"""Command-line interface.

Subcommands: noise, sweep, optimize, capacity, contours, filter-analysis,
fit-spectrum, fit-occupancy, xi-e, compare, validate.  Rates on the
command line and in all emitted CSV are ordinary frequencies in Hz, and
a rate flag's type returns rad/s; floats are printed as the shortest
decimal that round-trips, so identical inputs give byte-identical output.

:data:`COMMANDS` is the one place a flag, its default, its type and the
modes that do not read it are declared.  The parser built from it checks
only the shape of argv: it sets no default and converts nothing, so a
flag counts as given exactly when it is on the command line.
:func:`_read_flags` fills in the defaults, fails on the first given flag
that the chosen mode does not read, then converts every value by its
flag's type, all before the handler runs, so a handler reads ``args`` as
finished values.

A handler checks its input and computes every value before it returns
what it computed: a list of lines, or a table as the CSV chunks of
:func:`registry.float_table`, which only formats.  :func:`cli_dispatch`
alone writes that output, to stdout or ``--out``, once the handler has
returned, so a failure leaves stdout empty and writes no ``--out`` file,
and a large table is streamed block by block, never held as one string.
filter-analysis writes its ``--trace`` file, and compare its bundle under
``--out-dir``, before they return.  A failure is one ``error: <message>``
line on stderr, and a warning one ``warning: <message>`` line.

Exit status: 0 on success; 2 only on a malformed argv (an unknown
subcommand or flag, a missing value or required flag, a value outside a
flag's choices); 1 when a value fails its flag's type, with one
``error: FLAG ...`` line, or when validation, evaluation or an allocation
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings

import numpy as np

from . import calibration, noise, optimize, registry
from .capacity import (
    ChannelSpec,
    cap_integrated_closed,
    cap_integrated_quadrature,
    cap_small_eta,
    cap_ub_grid,
    cap_ub_point,
)
from .config import load_config
from .core import (
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
)
from .registry import format_float


def _floats(**values) -> list:
    """``key=value`` lines, every value written as a float."""
    return [f"{key}={format_float(value)}" for key, value in values.items()]


def _write(output, path=None) -> None:
    """Write a handler's output to ``path``, or to stdout without one.

    ``output`` is a list of lines, or text chunks written one by one.
    """
    if isinstance(output, list):
        output = ["\n".join(output) + "\n"]
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(output)


def _parse_pair(text: str):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise ValueError(f"expects LOW:HIGH, got {text!r}") from None
    return lo, hi


def _parse_triplet(text: str, positive: bool = False):
    """``LOW:HIGH:N`` of a grid axis: finite bounds, positive if ``positive``, and N >= 0."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"expects LOW:HIGH:N, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got {text!r}")
    if positive and not (lo > 0 and hi > 0):
        raise ValueError(f"bounds must be positive, got {text!r}")
    if n < 0:
        raise ValueError(f"N must be nonnegative, got {text!r}")
    return lo, hi, n


def _levels(text: str) -> list:
    """Comma-separated levels; empty items are skipped."""
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"expects comma-separated numbers, got {text!r}") from None


def _count(text: str, least: int) -> int:
    """A whole number of samples, at least ``least``."""
    count = int(text)
    if count < least:
        raise ValueError(f"must be at least {least}, got {text!r}")
    return count


def _positive_range(text: str, convert=rate_from_hz):
    """``LOW:HIGH`` of a rate axis or bracket in Hz as rad/s, or as ``convert``
    maps it, failing unless 0 < LOW < HIGH < inf after the mapping."""
    lo, hi = map(convert, _parse_pair(text))
    if not 0.0 < lo < hi < math.inf:  # written so that nan fails
        raise ValueError(f"must be finite, positive and increasing, got {text!r}")
    return lo, hi


def _rate(text: str, positive: bool = False) -> float:
    """A rate in Hz, as rad/s, that must be finite and nonnegative, or positive if ``positive``."""
    try:
        rate = rate_from_hz(float(text))
    except ValueError:
        rate = math.nan
    above_zero = rate > 0.0 if positive else rate >= 0.0  # nan fails either
    if not (above_zero and rate < math.inf):
        raise ValueError(f"must be finite and {'positive' if positive else 'nonnegative'}, "
                         f"got {text!r}")
    return rate


def _model_for(direction: str, style: str) -> str:
    table = {
        ("up", "lossy"): noise.MODEL_LOSSY_UP,
        ("up", "ideal"): noise.MODEL_IDEAL_UP,
        ("down", "lossy"): noise.MODEL_LOSSY_DOWN,
        ("down", "ideal"): noise.MODEL_IDEAL_DOWN,
        ("down", "combined"): noise.MODEL_IDEAL_DOWN_COMBINED,
    }
    if (direction, style) not in table:
        raise ValueError(f"model style {style!r} is not defined for {direction}conversion")
    return table[direction, style]


def _resolve_op(args, cfg) -> OperatingPoint:
    op = cfg.operating_points.get(args.op)
    if args.op is not None and op is None:
        raise ValueError(
            f"config has no operating point {args.op!r}; "
            f"available: {', '.join(sorted(cfg.operating_points))}"
        )
    if op is None and (args.gamma_e_hz is None or args.gamma_o_hz is None):
        raise ValueError("give --op NAME or both --gamma-e-hz and --gamma-o-hz")
    return OperatingPoint(
        gamma_e=op.gamma_e if args.gamma_e_hz is None else args.gamma_e_hz,
        gamma_o=op.gamma_o if args.gamma_o_hz is None else args.gamma_o_hz,
        duty=args.duty if args.duty is not None else (op.duty if op else 1.0),
    )


def _cmd_validate(args):
    load_config(args.config)
    return ["ok"]


def _cmd_noise(args):
    cfg = load_config(args.config)
    op = _resolve_op(args, cfg)
    model = _model_for(args.direction, args.model)
    budget = noise.evaluate(model, cfg.device, op, cfg.environment)
    header = ["direction", "model", "gamma_e_hz", "gamma_o_hz",
              "n_add_motional", "n_add_em", "n_add_corr", "n_add_total"]
    row = [budget.direction, model, rate_to_hz(op.gamma_e), rate_to_hz(op.gamma_o),
           budget.motional, budget.electromagnetic, budget.correlation, budget.total]
    return registry.float_table(header, [row])


def _cmd_sweep(args):
    cfg = load_config(args.config)
    model = _model_for(args.direction, args.model)
    gamma_e, gamma_o, needs = {
        "gamma-e": (args.range_hz, args.gamma_o_hz, "sweeping gamma_e needs --gamma-o-hz"),
        "gamma-o": (args.gamma_e_hz, args.range_hz, "sweeping gamma_o needs --gamma-e-hz"),
        "both": (args.range_hz, args.range2_hz, "sweeping both needs --range2-hz for gamma_o"),
    }[args.variable]
    if gamma_e is None or gamma_o is None:
        raise ValueError(needs)
    spec = optimize.SweepSpec(
        gamma_e=gamma_e,
        gamma_o=gamma_o,
        n_samples=args.n,
        model=model,
        duty=args.duty,
    )
    _, _, *values = optimize.sweep(spec, cfg.device, cfg.environment).values()
    # one block per gamma_e, each over the gamma_o axis, which runs fastest
    axis_e, axis_o = spec.axes()
    values = [column.reshape(len(axis_e), len(axis_o)) for column in values]
    gamma_o_hz = rate_to_hz(axis_o)
    header = ["gamma_e_hz", "gamma_o_hz", "throughput_hz", "n_add_total",
              "n_add_motional", "n_add_em", "n_add_corr"]
    # the columns come in the header's order
    return registry.float_table(header, (
        [row_gamma_e, gamma_o_hz, *(column[i] for column in values)]
        for i, row_gamma_e in enumerate(rate_to_hz(axis_e).tolist())
    ))


def _cmd_optimize(args):
    # the downconversion search reaches gamma_e = ratio * gamma_o at both high ends
    (_, ratio), (_, gamma_o) = args.ratio_bracket, args.bracket_hz
    if args.direction == "down" and not math.isfinite(ratio * gamma_o):
        raise ValueError(f"--ratio-bracket high end {ratio!r} times the --bracket-hz "
                         f"high end {gamma_o!r} rad/s is not finite")
    cfg = load_config(args.config)
    if args.direction == "up":
        if args.gamma_o_hz is None:
            raise ValueError("upconversion optimization needs --gamma-o-hz")
        model = _model_for("up", args.model)
        result = optimize.optimize_up(
            cfg.device, cfg.environment, gamma_o_fixed=args.gamma_o_hz,
            bracket=args.bracket_hz, model=model, duty=args.duty,
        )
    else:
        model = _model_for("down", args.model)
        result = optimize.optimize_down(
            cfg.device, cfg.environment, gamma_o_bracket=args.bracket_hz,
            ratio_bracket=args.ratio_bracket, model=model, duty=args.duty,
        )
    budget = result.budget
    return [
        f"direction={args.direction}",
        f"model={model}",
        *_floats(
            gamma_e_hz=rate_to_hz(result.op.gamma_e),
            gamma_o_hz=rate_to_hz(result.op.gamma_o),
            n_add_total=budget.total,
            n_add_motional=budget.motional,
            n_add_em=budget.electromagnetic,
            n_add_corr=budget.correlation,
        ),
        f"at_boundary={result.at_boundary}",
        f"flat_objective={result.flat_objective}",
    ]


def _grid_mode(args) -> bool:
    return args.grid_eta is not None or args.grid_throughput_hz is not None


def _cmd_capacity(args):
    if _grid_mode(args):
        if args.grid_n_add is None:
            raise ValueError("grid mode needs --grid-n-add LOW:HIGH:N")
        n_values = np.linspace(*args.grid_n_add)
        # one call over the whole grid checks both axes, n_add even when
        # there are no rows, before the first row is formatted; each row
        # is one block, with n_values formatted once for all of them
        if args.grid_eta is not None:
            etas = np.linspace(*args.grid_eta)
            caps = cap_ub_grid(etas[:, None], n_values)
            return registry.float_table(["eta", "n_add", "c_ub"], (
                [eta, n_values, row] for eta, row in zip(etas.tolist(), caps)
            ))
        thetas = np.geomspace(*args.grid_throughput_hz)
        caps = cap_small_eta(n_values, thetas[:, None])
        return registry.float_table(["throughput_hz", "n_add", "cap_qubits_per_s", "form"], (
            [theta, n_values, row, "small-eta"] for theta, row in zip(thetas.tolist(), caps)
        ))

    if args.eta is None or args.n_add is None:
        raise ValueError("point mode needs --eta and --n-add")
    point = cap_ub_point(args.eta, args.n_add)
    if args.bandwidth_hz is None:
        return registry.float_table(["eta", "n_add", "c_ub"], [[args.eta, args.n_add, point]])
    spec = ChannelSpec(args.eta, args.n_add, args.bandwidth_hz, args.duty)
    integrated = {
        "closed": cap_integrated_closed,
        "quadrature": cap_integrated_quadrature,
        "small-eta": lambda s: cap_small_eta(s.n_add, s.throughput_hz),
    }[args.form](spec)
    return registry.float_table(
        ["eta", "n_add", "bandwidth_hz", "duty", "throughput_hz",
         "c_ub", "cap_qubits_per_s", "form"],
        [[spec.eta, spec.n_add, spec.bandwidth_hz, spec.duty,
          spec.throughput_hz, point, integrated, args.form]],
    )


def _cmd_contours(args):
    return registry.contour_table(args.levels, args.throughput_range_hz, args.n_add_range, args.n)


def _cmd_filter_analysis(args):
    from . import filters

    grid = dict(span_hz=args.span_hz, n_points=args.n_points)
    if args.preset == "paper":
        spec = filters.tuned_preset()
    else:
        if args.linewidth_hz is None:
            raise ValueError("give --linewidth-hz or --preset paper")
        spec = filters.FilterSpec(linewidth_hz=args.linewidth_hz, center_hz=args.center_hz,
                                  notches=args.notch)
    # --span-hz and --n-points shape only the trace, but are checked in every mode
    filters.check_trace_grid(spec, **grid)
    # without either flag the report's own default, 3 / Gamma_T, applies
    t_rep = args.t_rep_s if args.t_rep_mult is None else args.t_rep_mult / spec.gamma_t
    report = filters.analyze_filter(spec, t_rep)
    summary = (report.eta_notch, report.eta_temporal, report.eta_total,
               report.tail_noise_photons, report.t_rep_s)
    if args.trace:
        response = filters.impulse_response(spec, **grid)
        # one block, which the writer formats a fixed number of rows at a time
        trace = [[response.times_s, response.energy_density]]
        _write(registry.float_table(["t_s", "energy_density"], trace), args.trace)
    notches = ";".join(f"{format_float(lo)}:{format_float(hi)}" for lo, hi in spec.notches)
    return [
        *_floats(linewidth_hz=spec.linewidth_hz, t_rep_s=report.t_rep_s),
        f"notches={notches}",
        *_floats(
            eta_notch=report.eta_notch,
            eta_temporal=report.eta_temporal,
            eta_total=report.eta_total,
            tail_noise_photons=report.tail_noise_photons,
            tail_first_window_photons=report.tail_first_window_photons,
            pre_window_energy=report.pre_window_energy,
        ),
        "",
        "eta_notch,eta_temporal,eta_total,tail_noise_photons,t_rep_s",
        ",".join(map(format_float, summary)),
    ]


def _cmd_fit_spectrum(args):
    from . import spectra

    spectrum = spectra.read_spectrum_csv(args.spectrum)
    exclude = spectra.ExclusionBands(args.exclude)
    fit = spectra.fit_lorentzian(spectrum, exclude)
    lines = [
        *_floats(
            center_hz=fit.center_hz,
            fwhm_hz=fit.fwhm_hz,
            peak_height=fit.peak_height,
            floor=fit.floor,
            residual_norm=fit.residual_norm,
        ),
        f"converged={fit.converged}",
        f"n_iterations={fit.n_iterations}",
    ]
    if args.efficiency:
        efficiency = spectra.read_spectrum_csv(args.efficiency)
        averaged = spectra.averaged_added_noise(spectrum, efficiency, exclude)
        lines += _floats(averaged_value=averaged)
    return lines


def _cmd_fit_occupancy(args):
    records = calibration.load_occupancy_records(args.records)
    if args.method != "all":
        records = [r for r in records if r.method == args.method]
    fit = calibration.fit_occupancy(records, unweighted=args.unweighted)
    return [
        "# occupancy slope quoted per Hz of gamma_e (Hz convention)",
        f"n_records={len(records)}",
        f"method={args.method}",
        *_floats(
            a_e_per_hz=fit.a_e_per_hz,
            sigma_a_e_per_hz=fit.sigma_a_e * 2.0 * np.pi,
            b_e=fit.b_e,
            sigma_b_e=fit.sigma_b_e,
        ),
    ]


def _cmd_xi_e(args):
    factors = {name: getattr(args, name) for name in calibration.READOUT_FACTORS}
    return _floats(xi_e=calibration.xi_e(calibration.ReadoutCalInput(**factors)))


def _cmd_compare(args):
    path = None if args.registry == "bundled" else args.registry
    records = registry.load_registry(path)
    live = []
    if args.config:
        cfg = load_config(args.config)
        model = _model_for(args.direction, "lossy")
        for name, op in sorted(cfg.operating_points.items()):
            budget = noise.evaluate(model, cfg.device, op, cfg.environment)
            live.append(registry.DeviceRecord(
                label=f"config:{name}",
                direction=args.direction,
                n_add=max(budget.total, 0.0),
                eta=min(apparent_efficiency(cfg.device, op), 1.0),
                bandwidth_hz=bandwidth_hz(cfg.device, op),
                duty=op.duty,
                source="live",
                notes="computed from config",
            ))
    written = registry.emit_comparison(
        records, args.levels, args.out_dir, direction=args.direction,
        live_points=live, throughput_range_hz=args.throughput_range_hz,
    )
    return [f"{name}: {written[name]}" for name in sorted(written)]


DIRECTIONS = ["up", "down"]
MODELS = ["ideal", "lossy", "combined"]

# Per subcommand: its handler, its help, its flags and its modes.  A flag
# maps to its argparse keywords; "default" is filled in when it is not
# given, and "type" converts the value it ends up with.  A mode is (applies
# to the filled args, the flags it does not read, why); a given flag that an
# applying mode does not read fails as "error: FLAG WHY", in listed order.
COMMANDS = {
    "validate": (_cmd_validate, "check a config against the device invariants", {
        "--config": dict(required=True),
    }, ()),
    "noise": (_cmd_noise, "evaluate one added-noise budget", {
        "--config": dict(required=True),
        "--direction": dict(choices=DIRECTIONS, required=True),
        "--model": dict(choices=MODELS, default="lossy"),
        "--op": dict(help="operating point name from the config"),
        "--gamma-e-hz": dict(type=_rate),
        "--gamma-o-hz": dict(type=_rate),
        # no default: without --duty the operating point's duty applies
        "--duty": dict(type=float),
        "--out": {},
    }, ()),
    "sweep": (_cmd_sweep, "sweep pump rates and tabulate noise vs throughput", {
        "--config": dict(required=True),
        "--direction": dict(choices=DIRECTIONS, required=True),
        "--variable": dict(choices=["gamma-e", "gamma-o", "both"], default="gamma-e"),
        "--range-hz": dict(type=_positive_range, required=True, help="LOW:HIGH for the swept rate"),
        "--range2-hz": dict(type=_positive_range, help="LOW:HIGH for gamma_o when sweeping both"),
        "--n": dict(type=lambda text: _count(text, 1), default=50),
        "--gamma-e-hz": dict(type=lambda text: _rate(text, positive=True)),
        "--gamma-o-hz": dict(type=lambda text: _rate(text, positive=True)),
        "--model": dict(choices=MODELS, default="lossy"),
        "--duty": dict(type=float, default=1.0),
        "--out": {},
    }, (
        (lambda a: a.variable == "gamma-e", ("--gamma-e-hz", "--range2-hz"),
         "is not used with --variable gamma-e"),
        (lambda a: a.variable == "gamma-o", ("--gamma-o-hz", "--range2-hz"),
         "is not used with --variable gamma-o"),
        (lambda a: a.variable == "both", ("--gamma-e-hz", "--gamma-o-hz"),
         "is not used with --variable both"),
    )),
    "optimize": (_cmd_optimize, "find the noise-optimal operating point", {
        "--config": dict(required=True),
        "--direction": dict(choices=DIRECTIONS, required=True),
        "--gamma-o-hz": dict(type=_rate),
        "--bracket-hz": dict(type=_positive_range, default="10:1e7"),
        "--ratio-bracket": dict(type=lambda text: _positive_range(text, float), default="1e-3:1e3"),
        "--model": dict(choices=MODELS, default="lossy"),
        "--duty": dict(type=float, default=1.0),
        "--out": {},
    }, (
        (lambda a: a.direction == "up", ("--ratio-bracket",), "is not used with --direction up"),
        (lambda a: a.direction == "down", ("--gamma-o-hz",), "is not used with --direction down"),
    )),
    "capacity": (_cmd_capacity, "capacity bounds: point, integrated, or grids", {
        "--eta": dict(type=float),
        "--n-add": dict(type=float),
        "--bandwidth-hz": dict(type=float),
        "--duty": dict(type=float, default=1.0),
        "--form": dict(choices=["closed", "small-eta", "quadrature"], default="closed"),
        "--grid-eta": dict(type=_parse_triplet, help="LOW:HIGH:N (linear)"),
        "--grid-n-add": dict(type=_parse_triplet, help="LOW:HIGH:N (linear)"),
        "--grid-throughput-hz": dict(type=lambda text: _parse_triplet(text, positive=True),
                                     help="LOW:HIGH:N (log spaced)"),
        "--out": {},
    }, (
        (_grid_mode, ("--eta", "--n-add", "--bandwidth-hz", "--duty", "--form"),
         "is not used in grid mode"),
        (lambda a: a.grid_eta is not None, ("--grid-throughput-hz",),
         "cannot be combined with --grid-eta"),
        (lambda a: not _grid_mode(a), ("--grid-n-add",), "is not used in point mode"),
        (lambda a: not _grid_mode(a) and a.bandwidth_hz is None, ("--duty", "--form"),
         "is not used without --bandwidth-hz"),
    )),
    "contours": (_cmd_contours, "iso-capacity contour polylines", {
        "--levels": dict(type=_levels, required=True, help="comma-separated qubits/s levels"),
        "--throughput-range-hz": dict(type=_parse_pair, default="0.01:100000"),
        "--n-add-range": dict(type=_parse_pair, default="0.001:0.999"),
        "--n": dict(type=lambda text: _count(text, 2), default=512),
        "--out": {},
    }, ()),
    "filter-analysis": (_cmd_filter_analysis, "notched-filter transmission and ringing", {
        "--preset": dict(choices=["paper"]),
        "--linewidth-hz": dict(type=float),
        "--center-hz": dict(type=float, default=0.0),
        "--notch": dict(action="append", type=_parse_pair, default=(),
                        help="LOW:HIGH in Hz, repeatable"),
        "--t-rep-mult": dict(type=float, help="repetition time in units of 1/Gamma_T"),
        "--t-rep-s": dict(type=float),
        "--span-hz": dict(type=float),
        "--n-points": dict(type=int, default=2**20),
        "--trace": dict(help="write the time-domain trace CSV here"),
        "--out": {},
    }, (
        (lambda a: a.t_rep_s is not None, ("--t-rep-mult",), "is not used with --t-rep-s"),
        (lambda a: a.preset == "paper", ("--linewidth-hz", "--notch", "--center-hz"),
         "cannot be combined with --preset paper, which fixes it"),
    )),
    "fit-spectrum": (
        _cmd_fit_spectrum, "fit floor + Lorentzian to a spectrum CSV, honouring exclusion bands", {
            "--spectrum": dict(required=True, help="CSV: freq_hz,value"),
            "--exclude": dict(action="append", type=_parse_pair, default=(),
                              help="LOW:HIGH band in Hz, repeatable"),
            "--efficiency": dict(help="efficiency spectrum CSV; adds the efficiency-weighted "
                                 "average of the fitted spectrum over unexcluded points"),
            "--out": {},
        }, ()),
    "fit-occupancy": (_cmd_fit_occupancy, "fit the linear circuit-occupancy model", {
        "--records": dict(required=True, help="CSV: gamma_e_hz,n_bar_e,sigma,method"),
        "--method": dict(choices=["microwave", "optomechanical", "all"], default="all"),
        "--unweighted": dict(action="store_true", default=False),
        "--out": {},
    }, ()),
    "xi-e": (_cmd_xi_e, "microwave readout-efficiency product", {
        **{"--" + name.replace("_", "-"): dict(type=float, required=True)
           for name in calibration.READOUT_FACTORS},
        "--out": {},
    }, ()),
    "compare": (_cmd_compare, "emit registry scatter plus contour bundle", {
        "--registry": dict(default="bundled", help="'bundled' or a CSV path"),
        "--direction": dict(choices=DIRECTIONS, required=True),
        "--levels": dict(type=_levels, default="",
                         help="comma-separated contour levels in qubits/s"),
        "--out-dir": dict(required=True),
        "--config": dict(help="compute live points from this config"),
        "--throughput-range-hz": dict(type=_parse_pair, default="0.01:100000"),
    }, ()),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quduct",
        description="Transducer noise budgets, throughput, and capacity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in flags.items():
            keywords = {key: value for key, value in keywords.items() if key != "type"}
            p.add_argument(flag, **{**keywords, "default": None})
    return parser


def _read_flags(args, flags, modes) -> None:
    """Fill in the defaults of the ``flags`` not given, fail on the first
    given flag that an applying mode does not read, then convert every
    value, or each item of an ``append`` flag, by the flag's ``type``.

    Modes apply on the filled values, because a default can choose one:
    sweep without ``--variable`` is in the gamma-e mode.
    """
    given = {flag for flag in flags if getattr(args, _dest(flag)) is not None}
    for flag in flags.keys() - given:
        setattr(args, _dest(flag), flags[flag].get("default"))
    for applies, unread, reason in modes:
        for flag in unread if applies(args) else ():
            if flag in given:
                raise ValueError(f"{flag} {reason}")
    for flag, keywords in flags.items():
        convert, value = keywords.get("type"), getattr(args, _dest(flag))
        try:
            if convert is not None and value is not None:
                each = keywords.get("action") == "append"
                setattr(args, _dest(flag), [*map(convert, value)] if each else convert(value))
        except ValueError as exc:
            raise ValueError(f"{flag} {exc}") from None


def cli_dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    run, _, flags, modes = COMMANDS[args.command]
    with warnings.catch_warnings():
        # one line per warning, without the library source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _read_flags(args, flags, modes)
            _write(run(args), getattr(args, "out", None))
            return 0
        except (ValueError, RuntimeError, OSError, MemoryError) as exc:
            # ConfigError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
