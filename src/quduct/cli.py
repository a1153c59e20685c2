"""Command-line interface.

Subcommands: noise, sweep, optimize, capacity, contours, filter-analysis,
fit-spectrum, fit-occupancy, xi-e, compare, validate.  Rates on the
command line and in all emitted CSV are ordinary frequencies in Hz;
floats are printed as the shortest decimal that round-trips, so
identical inputs give byte-identical output.

A handler returns what it computed (CSV text, a ``(header, rows)`` table
or a list of lines), which is written in one piece once it has returned,
so a failure leaves stdout empty.  validate and filter-analysis write
through :func:`_write` themselves and return the exit status.  Warnings
go to stderr as ``warning: <message>`` lines.

Exit status: 0 on success, 1 on validation or evaluation failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings

import numpy as np

from . import calibration, filters, noise, optimize, registry
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
    validate_device,
)
from .registry import format_float


def _floats(**values) -> list:
    """``key=value`` lines, every value written as a float."""
    return [f"{key}={format_float(value)}" for key, value in values.items()]


def _write(output, path=None) -> None:
    """Write a handler's output to ``path``, or to stdout without one."""
    if isinstance(output, tuple):
        output = registry.csv_text(*output)
    elif isinstance(output, list):
        output = "\n".join(output) + "\n"
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(output)


def _parse_pair(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects LOW:HIGH, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_triplet(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects LOW:HIGH:N, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _levels(text: str) -> list:
    """Comma-separated ``--levels``; empty items are skipped."""
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"--levels expects comma-separated numbers, got {text!r}") from None


def _reject_given(args, flags, reason: str) -> None:
    """Fail naming the first of ``flags`` given on the command line.

    A flag counts as given when its value is not None, so only flags
    without a default can be checked.
    """
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} {reason}")


def _rate_range(text: str, flag: str):
    lo, hi = _parse_pair(text, flag)
    return rate_from_hz(lo), rate_from_hz(hi)


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
        gamma_e=op.gamma_e if args.gamma_e_hz is None else rate_from_hz(args.gamma_e_hz),
        gamma_o=op.gamma_o if args.gamma_o_hz is None else rate_from_hz(args.gamma_o_hz),
        duty=args.duty if args.duty is not None else (op.duty if op else 1.0),
    )


def _load_valid_config(path):
    """:func:`load_config`, failing on a device that :func:`validate_device` rejects."""
    cfg = load_config(path)
    if report := validate_device(cfg.device):
        raise ValueError(f"{path} fails validation: {'; '.join(report)}")
    return cfg


def _cmd_validate(args) -> int:
    report = validate_device(load_config(args.config).device)
    _write([f"violation: {item}" for item in report] or ["ok"])
    return 1 if report else 0


def _cmd_noise(args):
    cfg = _load_valid_config(args.config)
    op = _resolve_op(args, cfg)
    model = _model_for(args.direction, args.model)
    budget = noise.evaluate(model, cfg.device, op, cfg.environment)
    header = ["direction", "model", "gamma_e_hz", "gamma_o_hz",
              "n_add_motional", "n_add_em", "n_add_corr", "n_add_total"]
    row = [budget.direction, model, rate_to_hz(op.gamma_e), rate_to_hz(op.gamma_o),
           budget.motional, budget.electromagnetic, budget.correlation, budget.total]
    return header, [row]


def _cmd_sweep(args):
    cfg = _load_valid_config(args.config)
    model = _model_for(args.direction, args.model)
    unused = f"is not used with --variable {args.variable}"
    gamma_e = gamma_o = _rate_range(args.range_hz, "--range-hz")
    if args.variable == "gamma-e":
        _reject_given(args, ("--gamma-e-hz", "--range2-hz"), unused)
        if args.gamma_o_hz is None:
            raise ValueError("sweeping gamma_e needs --gamma-o-hz")
        gamma_o = rate_from_hz(args.gamma_o_hz)
    elif args.variable == "gamma-o":
        _reject_given(args, ("--gamma-o-hz", "--range2-hz"), unused)
        if args.gamma_e_hz is None:
            raise ValueError("sweeping gamma_o needs --gamma-e-hz")
        gamma_e = rate_from_hz(args.gamma_e_hz)
    else:
        _reject_given(args, ("--gamma-e-hz", "--gamma-o-hz"), unused)
        if args.range2_hz is None:
            raise ValueError("sweeping both needs --range2-hz for gamma_o")
        gamma_o = _rate_range(args.range2_hz, "--range2-hz")
    spec = optimize.SweepSpec(
        gamma_e=gamma_e,
        gamma_o=gamma_o,
        n_samples=args.n,
        model=model,
        duty=args.duty,
    )
    columns = optimize.sweep(spec, cfg.device, cfg.environment)
    for rate in ("gamma_e", "gamma_o"):
        columns[rate] = rate_to_hz(columns[rate])
    header = ["gamma_e_hz", "gamma_o_hz", "throughput_hz", "n_add_total",
              "n_add_motional", "n_add_em", "n_add_corr"]
    # the columns come in the header's order
    return header, zip(*(column.tolist() for column in columns.values()))


def _cmd_optimize(args):
    cfg = _load_valid_config(args.config)
    bracket = _rate_range(args.bracket_hz, "--bracket-hz")
    if args.direction == "up":
        if args.gamma_o_hz is None:
            raise ValueError("upconversion optimization needs --gamma-o-hz")
        model = _model_for("up", args.model)
        result = optimize.optimize_up(
            cfg.device, cfg.environment, gamma_o_fixed=rate_from_hz(args.gamma_o_hz),
            bracket=bracket, model=model, duty=args.duty,
        )
    else:
        _reject_given(args, ("--gamma-o-hz",), "is not used with --direction down")
        model = _model_for("down", args.model)
        result = optimize.optimize_down(
            cfg.device, cfg.environment, gamma_o_bracket=bracket,
            ratio_bracket=_parse_pair(args.ratio_bracket, "--ratio-bracket"),
            model=model, duty=args.duty,
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


def _cmd_capacity(args):
    if args.grid_eta or args.grid_throughput_hz:
        point_only = ("--eta", "--n-add", "--bandwidth-hz", "--duty", "--form")
        _reject_given(args, point_only, "is not used in grid mode")
        if args.grid_eta:
            _reject_given(args, ("--grid-throughput-hz",), "cannot be combined with --grid-eta")
        if args.grid_n_add is None:
            raise ValueError("grid mode needs --grid-n-add LOW:HIGH:N")
        n_values = np.linspace(*_parse_triplet(args.grid_n_add, "--grid-n-add"))
        if args.grid_eta:
            # one array operation per grid row, each row formatted as it is
            # written, so no whole-grid array is ever held
            etas = np.linspace(*_parse_triplet(args.grid_eta, "--grid-eta"))
            return ["eta", "n_add", "c_ub"], (
                (eta, n_add, c)
                for eta in etas
                for n_add, c in zip(n_values, cap_ub_grid(eta, n_values))
            )
        thetas = np.geomspace(*_parse_triplet(args.grid_throughput_hz, "--grid-throughput-hz"))
        # one call takes the slopes once and checks n_add even when there are no rows
        caps = cap_small_eta(n_values, thetas[:, None])
        return ["throughput_hz", "n_add", "cap_qubits_per_s", "form"], (
            (theta, n_add, cap, "small-eta")
            for theta, row in zip(thetas, caps)
            for n_add, cap in zip(n_values, row)
        )

    _reject_given(args, ("--grid-n-add",), "is not used in point mode")
    if args.eta is None or args.n_add is None:
        raise ValueError("point mode needs --eta and --n-add")
    point = cap_ub_point(args.eta, args.n_add)
    if args.bandwidth_hz is None:
        _reject_given(args, ("--duty", "--form"), "is not used without --bandwidth-hz")
        return ["eta", "n_add", "c_ub"], [[args.eta, args.n_add, point]]
    # --duty and --form have no parser default, so that the modes that
    # ignore them see them given
    duty = 1.0 if args.duty is None else args.duty
    spec = ChannelSpec(args.eta, args.n_add, args.bandwidth_hz, duty)
    form = args.form or "closed"
    integrated = {
        "closed": cap_integrated_closed,
        "quadrature": cap_integrated_quadrature,
        "small-eta": lambda s: cap_small_eta(s.n_add, s.throughput_hz),
    }[form](spec)
    return (
        ["eta", "n_add", "bandwidth_hz", "duty", "throughput_hz",
         "c_ub", "cap_qubits_per_s", "form"],
        [[spec.eta, spec.n_add, spec.bandwidth_hz, spec.duty,
          spec.throughput_hz, point, integrated, form]],
    )


def _cmd_contours(args):
    return registry.contour_csv(
        _levels(args.levels),
        _parse_pair(args.throughput_range_hz, "--throughput-range-hz"),
        _parse_pair(args.n_add_range, "--n-add-range"),
        args.n,
    )


def _cmd_filter_analysis(args) -> int:
    if args.preset == "paper":
        _reject_given(args, ("--linewidth-hz", "--notch", "--center-hz"),
                      "cannot be combined with --preset paper, which fixes it")
        spec = filters.tuned_preset(span_hz=args.span_hz, n_points=args.n_points)
    else:
        if args.linewidth_hz is None:
            raise ValueError("give --linewidth-hz or --preset paper")
        spec = filters.FilterSpec(
            linewidth_hz=args.linewidth_hz,
            center_hz=0.0 if args.center_hz is None else args.center_hz,
            notches=tuple(_parse_pair(notch, "--notch") for notch in args.notch or []),
        )
    t_rep = args.t_rep_s if args.t_rep_s is not None else args.t_rep_mult / spec.gamma_t
    filters.check_t_rep(t_rep)  # before the FFTs, which take most of the run
    # one response serves both the report and the trace
    response = filters.impulse_response(spec, span_hz=args.span_hz, n_points=args.n_points)
    report = filters.filter_report(response, t_rep)
    summary = (report.eta_notch, report.eta_temporal, report.eta_total,
               report.tail_noise_photons, report.t_rep_s)
    # the report goes out before the trace, so an unwritable --trace path still leaves it
    notches = ";".join(f"{format_float(lo)}:{format_float(hi)}" for lo, hi in spec.notches)
    _write([
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
    ], args.out)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            rows = zip(response.times_s, response.energy_density)
            registry.write_csv(fh, ["t_s", "energy_density"], rows)
    return 0


def _cmd_fit_spectrum(args):
    from . import spectra

    spectrum = spectra.read_spectrum_csv(args.spectrum)
    exclude = spectra.ExclusionBands([_parse_pair(b, "--exclude") for b in args.exclude or []])
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
    if args.include_external:
        records += registry.load_registry(registry.external_upconversion_path())
    live = []
    if args.config:
        cfg = _load_valid_config(args.config)
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
        records, _levels(args.levels or ""), args.out_dir,
        direction=args.direction, live_points=live,
        throughput_range_hz=_parse_pair(args.throughput_range_hz, "--throughput-range-hz"),
    )
    return [f"{name}: {written[name]}" for name in sorted(written)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quduct",
        description="Transducer noise budgets, throughput, and capacity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    directions = ["up", "down"]
    models = ["ideal", "lossy", "combined"]

    p = command("validate", _cmd_validate, "check a config against the device invariants")
    p.add_argument("--config", required=True)

    p = command("noise", _cmd_noise, "evaluate one added-noise budget")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", choices=directions, required=True)
    p.add_argument("--model", choices=models, default="lossy")
    p.add_argument("--op", help="operating point name from the config")
    p.add_argument("--gamma-e-hz", type=float)
    p.add_argument("--gamma-o-hz", type=float)
    # no default: without --duty the operating point's duty applies
    p.add_argument("--duty", type=float)
    p.add_argument("--out")

    p = command("sweep", _cmd_sweep, "sweep pump rates and tabulate noise vs throughput")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", choices=directions, required=True)
    p.add_argument("--variable", choices=["gamma-e", "gamma-o", "both"], default="gamma-e")
    p.add_argument("--range-hz", required=True, help="LOW:HIGH for the swept rate")
    p.add_argument("--range2-hz", help="LOW:HIGH for gamma_o when sweeping both")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--gamma-e-hz", type=float)
    p.add_argument("--gamma-o-hz", type=float)
    p.add_argument("--model", choices=models, default="lossy")
    p.add_argument("--duty", type=float, default=1.0)
    p.add_argument("--out")

    p = command("optimize", _cmd_optimize, "find the noise-optimal operating point")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", choices=directions, required=True)
    p.add_argument("--gamma-o-hz", type=float)
    p.add_argument("--bracket-hz", default="10:1e7")
    p.add_argument("--ratio-bracket", default="1e-3:1e3")
    p.add_argument("--model", choices=models, default="lossy")
    p.add_argument("--duty", type=float, default=1.0)
    p.add_argument("--out")

    p = command("capacity", _cmd_capacity, "capacity bounds: point, integrated, or grids")
    p.add_argument("--eta", type=float)
    p.add_argument("--n-add", type=float)
    p.add_argument("--bandwidth-hz", type=float)
    p.add_argument("--duty", type=float)
    p.add_argument("--form", choices=["closed", "small-eta", "quadrature"])
    p.add_argument("--grid-eta", help="LOW:HIGH:N (linear)")
    p.add_argument("--grid-n-add", help="LOW:HIGH:N (linear)")
    p.add_argument("--grid-throughput-hz", help="LOW:HIGH:N (log spaced)")
    p.add_argument("--out")

    p = command("contours", _cmd_contours, "iso-capacity contour polylines")
    p.add_argument("--levels", required=True, help="comma-separated qubits/s levels")
    p.add_argument("--throughput-range-hz", default="0.01:100000")
    p.add_argument("--n-add-range", default="0.001:0.999")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--out")

    p = command("filter-analysis", _cmd_filter_analysis, "notched-filter transmission and ringing")
    p.add_argument("--preset", choices=["paper"])
    p.add_argument("--linewidth-hz", type=float)
    # no default: the preset rejects it, an explicit filter takes 0.0 without it
    p.add_argument("--center-hz", type=float)
    p.add_argument("--notch", action="append", help="LOW:HIGH in Hz, repeatable")
    p.add_argument("--t-rep-mult", type=float, default=3.0,
                   help="repetition time in units of 1/Gamma_T")
    p.add_argument("--t-rep-s", type=float)
    p.add_argument("--span-hz", type=float)
    p.add_argument("--n-points", type=int, default=2**20)
    p.add_argument("--trace", help="write the time-domain trace CSV here")
    p.add_argument("--out")

    p = command("fit-spectrum", _cmd_fit_spectrum,
                "fit floor + Lorentzian to a spectrum CSV, honouring exclusion bands")
    p.add_argument("--spectrum", required=True, help="CSV: freq_hz,value")
    p.add_argument("--exclude", action="append", help="LOW:HIGH band in Hz, repeatable")
    p.add_argument("--efficiency", help="efficiency spectrum CSV; adds the efficiency-weighted "
                   "average of the fitted spectrum over unexcluded points")
    p.add_argument("--out")

    p = command("fit-occupancy", _cmd_fit_occupancy, "fit the linear circuit-occupancy model")
    p.add_argument("--records", required=True, help="CSV: gamma_e_hz,n_bar_e,sigma,method")
    p.add_argument("--method", choices=["microwave", "optomechanical", "all"], default="all")
    p.add_argument("--unweighted", action="store_true")
    p.add_argument("--out")

    p = command("xi-e", _cmd_xi_e, "microwave readout-efficiency product")
    for name in calibration.READOUT_FACTORS:
        p.add_argument("--" + name.replace("_", "-"), type=float, required=True)
    p.add_argument("--out")

    p = command("compare", _cmd_compare, "emit registry scatter plus contour bundle")
    p.add_argument("--registry", default="bundled", help="'bundled' or a CSV path")
    p.add_argument("--direction", choices=directions, required=True)
    p.add_argument("--levels", help="comma-separated contour levels in qubits/s")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="compute live points from this config")
    p.add_argument("--include-external", action="store_true")
    p.add_argument("--throughput-range-hz", default="0.01:100000")
    return parser


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    with warnings.catch_warnings():
        # one line per warning, without the library source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            output = args.fn(args)
            if isinstance(output, int):
                return output
            _write(output, getattr(args, "out", None))
            return 0
        except (ValueError, RuntimeError, OSError) as exc:
            # ConfigError and RegistryError are ValueErrors
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
