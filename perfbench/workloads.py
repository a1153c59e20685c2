"""Seeded inputs, invocation lists and expected outputs of the four workloads.

A workload is a fixed list of ``quduct`` CLI invocations run one after the
other by a single client (a closed loop).  The seed changes input values
only, never the number of invocations, rows or FFT points, so runs with
different seeds do the same amount of work.

Every invocation carries the exact stdout (and any files it writes) that
the library's public functions give on the same inputs, formatted the way
the CLI documents it: CSV with shortest round-trip floats.  Comparing bytes
catches a wrong value anywhere in the output, not only in sampled rows.
Argument paths are relative to the directory the inputs are written to,
which is also the working directory of every child, so the argument lists
do not depend on where the checkout lives.

Why these workloads:

* ``capacity-grid``: per-point ``cap_ub_point`` calls dominate; this is
  where a vectorized grid shows.  Filters, noise and config do no work.
* ``filter-preset``: 2^20-point FFTs dominate, and the preset's width
  bisection is most of them.  The explicit-notch runs use the same layer
  without bisection, so a change to tuning alone moves only the preset
  share.  It is also the memory-heavy workload.
* ``tradeoff-tables``: CSV formatting and the per-point noise loop
  dominate; the capacity kernel does nothing.  Without it the noise models
  and the formatter would dominate no workload.
* ``design-session``: 100 short invocations of every other subcommand;
  interpreter start-up, import, config parsing and argparse dominate and
  the kernels do almost nothing.  Grid or filter changes should not move it.
"""

from __future__ import annotations

import csv
import functools
import io
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from harness import VerifyError
from quduct import calibration, filters, noise, optimize, registry, spectra
from quduct.capacity import (
    ChannelSpec,
    cap_integrated_closed,
    cap_integrated_quadrature,
    cap_small_eta,
    cap_ub_grid,
    cap_ub_point,
)
from quduct.config import load_config
from quduct.core import (
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
    validate_device,
)

GRID_SIDE = 300            # capacity-grid: 9e4 rows
SWEEP_SIDE = 200           # tradeoff-tables sweep: 4e4 rows
CONTOUR_SAMPLES = 100_000  # per level, three levels
THROUGHPUT_SIDE = 300      # tradeoff-tables small-eta grid: 9e4 rows
EXPLICIT_NOTCH_RUNS = 3
PRESET_TOLERANCE = 2e-4

# Contours are clipped to the throughput range; this range holds every
# point of every level drawn below, so the row count is fixed.
CONTOUR_RANGE_HZ = (1e-4, 1e12)

NOISE_PAIRS = (
    ("up", "lossy"), ("up", "ideal"),
    ("down", "lossy"), ("down", "ideal"), ("down", "combined"),
)
MODEL_FOR = {
    ("up", "lossy"): noise.MODEL_LOSSY_UP,
    ("up", "ideal"): noise.MODEL_IDEAL_UP,
    ("down", "lossy"): noise.MODEL_LOSSY_DOWN,
    ("down", "ideal"): noise.MODEL_IDEAL_DOWN,
    ("down", "combined"): noise.MODEL_IDEAL_DOWN_COMBINED,
}


@dataclass(frozen=True)
class Expected:
    """What one invocation must produce: stdout bytes, the number of data
    rows in it, and the files it writes (path relative to the input dir)."""

    stdout: bytes
    rows: int
    files: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    kind: str
    argv: tuple
    expect: Callable[[], Expected]  # computed on first use, then cached


def _lazy(fn, *args) -> Callable[[], Expected]:
    return functools.cache(functools.partial(fn, *args))


def _f(x) -> str:
    return repr(float(x))


def _csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _table(header, rows) -> Expected:
    return Expected(_csv(header, rows).encode(), len(rows))


def _lines(lines) -> Expected:
    """Key=value output: every ``key=value`` line counts as a data row."""
    return Expected(("\n".join(lines) + "\n").encode(), sum("=" in s for s in lines))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _r(x: float, digits: int = 6) -> float:
    """Round a drawn value so arguments stay short and readable."""
    return float(f"{x:.{digits}g}")


def _log_uniform(rng, lo: float, hi: float) -> float:
    return _r(float(np.exp(rng.uniform(np.log(lo), np.log(hi)))))


# --------------------------------------------------------------- inputs


def write_device_config(path: Path, rng) -> None:
    """A device config near the bundled example, every invariant held."""
    jit = lambda v: _r(v * rng.uniform(0.9, 1.1))  # noqa: E731
    kappa_e = jit(1.5e6)
    kappa_o = jit(1.2e6)
    path.write_text(
        "[device]\n"
        f"omega_m_hz = {jit(1.27e6)!r}\n"
        f"gamma_m_hz = {jit(15.0)!r}\n"
        f"kappa_e_hz = {kappa_e!r}\n"
        f"kappa_e_ext_hz = {_r(kappa_e * rng.uniform(0.7, 0.9))!r}\n"
        f"kappa_o_hz = {kappa_o!r}\n"
        f"kappa_o_ext_hz = {_r(kappa_o * rng.uniform(0.65, 0.85))!r}\n"
        f"eta_m = {_r(rng.uniform(0.3, 0.4))!r}\n"
        f"eps_mode = {_r(rng.uniform(0.85, 0.95))!r}\n"
        f"eps_pl = {_r(rng.uniform(0.85, 0.95))!r}\n"
        f"eps_cl = {_r(rng.uniform(0.85, 0.95))!r}\n"
        "\n[noise]\n"
        f"n_th_gamma_m_hz = {jit(4150.0)!r}\n"
        f"n_lock_gamma_lock_hz = {jit(380.0)!r}\n"
        f"a_e_per_hz = {jit(1.3e-5)!r}\n"
        f"b_e = {jit(0.7)!r}\n"
        "n_bar_o = 0.0\n"
        "\n[operating_point.up]\n"
        f"gamma_e_hz = {jit(11000.0)!r}\n"
        f"gamma_o_hz = {jit(11000.0)!r}\n"
        "\n[operating_point.down]\n"
        f"gamma_e_hz = {jit(8000.0)!r}\n"
        f"gamma_o_hz = {jit(11000.0)!r}\n"
    )
    report = validate_device(load_config(path).device)
    if report:
        raise VerifyError(f"generated config {path.name} is invalid: {report}")


def write_occupancy_records(path: Path, rng, n: int = 30) -> None:
    rows = []
    for i in range(n):
        gamma_hz = _log_uniform(rng, 1e3, 1e5)
        n_bar = max(1.3e-5 * gamma_hz + 0.7 + rng.normal(0.0, 0.02), 0.0)
        method = (calibration.METHOD_MICROWAVE, calibration.METHOD_OPTOMECHANICAL)[i % 2]
        rows.append([_f(gamma_hz), _f(_r(n_bar)), _f(_r(rng.uniform(0.02, 0.05))), method])
    path.write_text(_csv(calibration.OCCUPANCY_CSV_HEADER, rows))


def write_spectrum(path: Path, rng, n: int = 1400) -> tuple:
    """Floor plus one Lorentzian with noise; returns (low, high) of a band
    to exclude, placed on the flank away from the peak."""
    f = np.linspace(1.20e6, 1.34e6, n)
    center = 1.27e6 + rng.uniform(-5e3, 5e3)
    fwhm = rng.uniform(5e3, 15e3)
    height = rng.uniform(1.0, 3.0)
    floor = rng.uniform(0.1, 0.5)
    y = floor + height / (1.0 + ((f - center) / (fwhm / 2.0)) ** 2)
    y = y + rng.normal(0.0, 0.01 * height, n)
    path.write_text(_csv(spectra.SPECTRUM_CSV_HEADER, [[_f(a), _f(b)] for a, b in zip(f, y)]))
    low = _r(1.30e6 + rng.uniform(0.0, 1e4))
    return low, _r(low + 3e3)


# ------------------------------------------------------ capacity-grid


def _expect_capacity_grid(e_lo, e_hi, n_lo, n_hi, side) -> Expected:
    eta = np.linspace(e_lo, e_hi, side)
    n_add = np.linspace(n_lo, n_hi, side)
    c_ub = cap_ub_grid(eta[:, None], n_add[None, :])
    eta_s = [_f(v) for v in eta]
    n_s = [_f(v) for v in n_add]
    rows = [[eta_s[i], n_s[j], _f(c_ub[i, j])] for i in range(side) for j in range(side)]
    return _table(["eta", "n_add", "c_ub"], rows)


def capacity_grid(seed: int, workdir: Path) -> list:
    rng = _rng(seed, "capacity-grid")
    e_lo, e_hi = _r(rng.uniform(0.0, 0.05)), _r(rng.uniform(0.95, 0.99))
    # the n_add range crosses 1, so the zero-capacity branch is covered
    n_lo, n_hi = _r(rng.uniform(0.0, 0.05)), _r(rng.uniform(1.2, 1.5))
    argv = ("capacity", "--grid-eta", f"{e_lo!r}:{e_hi!r}:{GRID_SIDE}",
            "--grid-n-add", f"{n_lo!r}:{n_hi!r}:{GRID_SIDE}")
    return [Invocation("capacity-grid", argv,
                       _lazy(_expect_capacity_grid, e_lo, e_hi, n_lo, n_hi, GRID_SIDE))]


# ------------------------------------------------------ filter-preset


def _filter_text(spec, report) -> Expected:
    return _lines([
        f"linewidth_hz={_f(spec.linewidth_hz)}",
        f"t_rep_s={_f(report.t_rep_s)}",
        f"notches={';'.join(f'{_f(lo)}:{_f(hi)}' for lo, hi in spec.notches)}",
        f"eta_notch={_f(report.eta_notch)}",
        f"eta_temporal={_f(report.eta_temporal)}",
        f"eta_total={_f(report.eta_total)}",
        f"tail_noise_photons={_f(report.tail_noise_photons)}",
        f"tail_first_window_photons={_f(report.tail_first_window_photons)}",
        f"pre_window_energy={_f(report.pre_window_energy)}",
        "",
        "eta_notch,eta_temporal,eta_total,tail_noise_photons,t_rep_s",
        ",".join(_f(v) for v in (report.eta_notch, report.eta_temporal, report.eta_total,
                                 report.tail_noise_photons, report.t_rep_s)),
    ])


def _expect_filter(spec) -> Expected:
    report = filters.analyze_filter(spec, t_rep_s=3.0 / spec.gamma_t)
    return _filter_text(spec, report)


def _expect_preset() -> Expected:
    spec = filters.tuned_preset()
    report = filters.analyze_filter(spec, t_rep_s=3.0 / spec.gamma_t)
    if abs(report.eta_notch - filters.PRESET_ETA_NOTCH) > PRESET_TOLERANCE:
        raise VerifyError(f"preset eta_notch {report.eta_notch} misses 0.94 by > 2e-4")
    return _filter_text(spec, report)


def filter_preset(seed: int, workdir: Path) -> list:
    rng = _rng(seed, "filter-preset")
    runs = [Invocation("filter-preset", ("filter-analysis", "--preset", "paper"),
                       functools.cache(_expect_preset))]
    for _ in range(EXPLICIT_NOTCH_RUNS):
        linewidth = _r(rng.uniform(18e3, 25e3))
        upper = (_r(5e3 - rng.uniform(400, 800)), _r(5e3 + rng.uniform(400, 800)))
        lower = (_r(-9e3 - rng.uniform(250, 550)), _r(-9e3 + rng.uniform(250, 550)))
        # "--notch -9500:..." would parse as a flag, hence the "=" form
        argv = ("filter-analysis", "--linewidth-hz", repr(linewidth),
                f"--notch={upper[0]!r}:{upper[1]!r}", f"--notch={lower[0]!r}:{lower[1]!r}")
        spec = filters.FilterSpec(linewidth_hz=linewidth, notches=(upper, lower))
        runs.append(Invocation("filter-notch", argv, _lazy(_expect_filter, spec)))
    return runs


# ---------------------------------------------------- tradeoff-tables


def _expect_sweep(cfg_path, model, ge_range, go_range, n) -> Expected:
    cfg = load_config(cfg_path)
    ge_values = np.geomspace(rate_from_hz(ge_range[0]), rate_from_hz(ge_range[1]), n)
    go_values = np.geomspace(rate_from_hz(go_range[0]), rate_from_hz(go_range[1]), n)
    rows = []
    for ge in ge_values:
        for go in go_values:
            op = OperatingPoint(gamma_e=ge, gamma_o=go, duty=1.0)
            theta = apparent_efficiency(cfg.device, op) * bandwidth_hz(cfg.device, op)
            head = [_f(rate_to_hz(ge)), _f(rate_to_hz(go)), _f(theta)]
            try:
                b = noise.evaluate(model, cfg.device, op, cfg.environment)
            except (ValueError, ArithmeticError):
                rows.append(head + ["nan"] * 4)
                continue
            rows.append(head + [_f(b.total), _f(b.motional), _f(b.electromagnetic),
                                _f(b.correlation)])
    return _table(["gamma_e_hz", "gamma_o_hz", "throughput_hz", "n_add_total",
                   "n_add_motional", "n_add_em", "n_add_corr"], rows)


def _expect_contours(levels, n) -> Expected:
    text = registry.contour_csv(levels, CONTOUR_RANGE_HZ, (0.001, 0.999), n)
    return Expected(text.encode(), text.count("\n") - 1)


def _expect_throughput_grid(t_lo, t_hi, n_lo, n_hi, side) -> Expected:
    n_add = np.linspace(n_lo, n_hi, side)
    rows = [[_f(theta), _f(n), _f(cap_small_eta(n, theta)), "small-eta"]
            for theta in np.geomspace(t_lo, t_hi, side) for n in n_add]
    return _table(["throughput_hz", "n_add", "cap_qubits_per_s", "form"], rows)


def tradeoff_tables(seed: int, workdir: Path) -> list:
    rng = _rng(seed, "tradeoff-tables")
    cfg = workdir / "tradeoff.cfg"
    write_device_config(cfg, rng)
    ge = (_r(rng.uniform(100, 500)), _r(rng.uniform(5e5, 1e6)))
    go = (_r(rng.uniform(100, 500)), _r(rng.uniform(5e5, 1e6)))
    sweep = ("sweep", "--config", cfg.name, "--direction", "down", "--variable", "both",
             "--n", str(SWEEP_SIDE), "--range-hz", f"{ge[0]!r}:{ge[1]!r}",
             "--range2-hz", f"{go[0]!r}:{go[1]!r}")
    levels = sorted(_log_uniform(rng, 1.0, 1e4) for _ in range(3))
    contours = ("contours", "--levels", ",".join(map(repr, levels)),
                "--throughput-range-hz", "{!r}:{!r}".format(*CONTOUR_RANGE_HZ),
                "--n", str(CONTOUR_SAMPLES))
    t = (_r(rng.uniform(0.5, 2.0)), _r(rng.uniform(5e4, 2e5)))
    n = (_r(rng.uniform(0.0, 0.05)), _r(rng.uniform(0.95, 0.99)))
    grid = ("capacity", "--grid-throughput-hz", f"{t[0]!r}:{t[1]!r}:{THROUGHPUT_SIDE}",
            "--grid-n-add", f"{n[0]!r}:{n[1]!r}:{THROUGHPUT_SIDE}")
    return [
        Invocation("sweep", sweep,
                   _lazy(_expect_sweep, cfg, noise.MODEL_LOSSY_DOWN, ge, go, SWEEP_SIDE)),
        Invocation("contours", contours, _lazy(_expect_contours, levels, CONTOUR_SAMPLES)),
        Invocation("throughput-grid", grid,
                   _lazy(_expect_throughput_grid, *t, *n, THROUGHPUT_SIDE)),
    ]


# ----------------------------------------------------- design-session


def _expect_validate(cfg_path) -> Expected:
    report = validate_device(load_config(cfg_path).device)
    if report:
        raise VerifyError(f"{cfg_path.name} violates {report}")
    return Expected(b"ok\n", 1)


def _expect_noise(cfg_path, direction, style, ge_hz, go_hz) -> Expected:
    cfg = load_config(cfg_path)
    model = MODEL_FOR[(direction, style)]
    op = OperatingPoint(gamma_e=rate_from_hz(ge_hz), gamma_o=rate_from_hz(go_hz), duty=1.0)
    b = noise.evaluate(model, cfg.device, op, cfg.environment)
    return _table(
        ["direction", "model", "gamma_e_hz", "gamma_o_hz",
         "n_add_motional", "n_add_em", "n_add_corr", "n_add_total"],
        [[b.direction, model, _f(rate_to_hz(op.gamma_e)), _f(rate_to_hz(op.gamma_o)),
          _f(b.motional), _f(b.electromagnetic), _f(b.correlation), _f(b.total)]],
    )


def _expect_optimize(cfg_path, direction, go_hz, duty) -> Expected:
    cfg = load_config(cfg_path)
    bracket = (rate_from_hz(10.0), rate_from_hz(1e7))
    model = MODEL_FOR[(direction, "lossy")]
    if direction == "up":
        result = optimize.optimize_up(cfg.device, cfg.environment,
                                      gamma_o_fixed=rate_from_hz(go_hz), bracket=bracket,
                                      model=model, duty=duty)
    else:
        result = optimize.optimize_down(cfg.device, cfg.environment, gamma_o_bracket=bracket,
                                        ratio_bracket=(1e-3, 1e3), model=model, duty=duty)
    return _lines([
        f"direction={direction}",
        f"model={model}",
        f"gamma_e_hz={_f(rate_to_hz(result.op.gamma_e))}",
        f"gamma_o_hz={_f(rate_to_hz(result.op.gamma_o))}",
        f"n_add_total={_f(result.budget.total)}",
        f"n_add_motional={_f(result.budget.motional)}",
        f"n_add_em={_f(result.budget.electromagnetic)}",
        f"n_add_corr={_f(result.budget.correlation)}",
        f"at_boundary={result.at_boundary}",
        f"flat_objective={result.flat_objective}",
    ])


def _expect_capacity_point(form, eta, n_add, bw, duty) -> Expected:
    spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=bw, duty=duty)
    integrated = {
        "closed": cap_integrated_closed,
        "quadrature": cap_integrated_quadrature,
        "small-eta": lambda s: cap_small_eta(s.n_add, s.throughput_hz),
    }[form](spec)
    return _table(
        ["eta", "n_add", "bandwidth_hz", "duty", "throughput_hz",
         "c_ub", "cap_qubits_per_s", "form"],
        [[_f(spec.eta), _f(spec.n_add), _f(spec.bandwidth_hz), _f(spec.duty),
          _f(spec.throughput_hz), _f(cap_ub_point(eta, n_add)), _f(integrated), form]],
    )


def _expect_xi_e(factors) -> Expected:
    value = calibration.xi_e(calibration.ReadoutCalInput(**factors))
    return Expected(f"xi_e={_f(value)}\n".encode(), 1)


def _expect_fit_occupancy(path, method, unweighted) -> Expected:
    records = calibration.load_occupancy_records(path)
    if method != "all":
        records = [r for r in records if r.method == method]
    fit = calibration.fit_occupancy(records, unweighted=unweighted)
    return _lines([
        "# occupancy slope quoted per Hz of gamma_e (Hz convention)",
        f"n_records={len(records)}",
        f"method={method}",
        f"a_e_per_hz={_f(fit.a_e_per_hz)}",
        f"sigma_a_e_per_hz={_f(fit.sigma_a_e * 2.0 * np.pi)}",
        f"b_e={_f(fit.b_e)}",
        f"sigma_b_e={_f(fit.sigma_b_e)}",
    ])


def _expect_fit_spectrum(path, band) -> Expected:
    fit = spectra.fit_lorentzian(spectra.read_spectrum_csv(path), spectra.ExclusionBands([band]))
    return _lines([
        f"center_hz={_f(fit.center_hz)}",
        f"fwhm_hz={_f(fit.fwhm_hz)}",
        f"peak_height={_f(fit.peak_height)}",
        f"floor={_f(fit.floor)}",
        f"residual_norm={_f(fit.residual_norm)}",
        f"converged={fit.converged}",
        f"n_iterations={fit.n_iterations}",
    ])


def _expect_compare(direction, levels, out_dir, t_range) -> Expected:
    scatter = registry.scatter_csv(registry.load_registry(None), direction=direction)
    contours = registry.contour_csv(levels, t_range, (1e-3, 0.999), 512)
    paths = {"contours": f"{out_dir}/contours_{direction}.csv",
             "scatter": f"{out_dir}/scatter_{direction}.csv"}
    stdout = "".join(f"{name}: {path}\n" for name, path in sorted(paths.items()))
    return Expected(stdout.encode(), 2, {paths["contours"]: contours.encode(),
                                         paths["scatter"]: scatter.encode()})


# kind -> number of invocations in one session; 100 in all, so the 90th
# percentile latency has ten samples beyond it
SESSION_MIX = {
    "validate": 8, "noise": 20, "optimize-up": 6, "optimize-down": 6,
    "capacity-closed": 8, "capacity-small-eta": 8, "capacity-quadrature": 8,
    "xi-e": 8, "fit-occupancy": 8, "fit-spectrum": 8, "compare": 12,
}
SESSION_CONFIGS = 4


def design_session(seed: int, workdir: Path) -> list:
    rng = _rng(seed, "design-session")
    configs = []
    for k in range(SESSION_CONFIGS):
        configs.append(workdir / f"dev{k}.cfg")
        write_device_config(configs[-1], rng)
    # optimize runs on the bundled device, so its evaluation counts are
    # the same for every seed
    example = workdir / "example.cfg"
    shutil.copyfile(registry.bundled_registry_path().parent / "example_device.cfg", example)
    records = [workdir / f"occ{k}.csv" for k in range(2)]
    for path in records:
        write_occupancy_records(path, rng)
    spectrum_files = [workdir / f"spec{k}.csv" for k in range(2)]
    bands = [write_spectrum(path, rng) for path in spectrum_files]

    runs = []
    for i in range(SESSION_MIX["validate"]):
        cfg = configs[i % SESSION_CONFIGS]
        runs.append(Invocation("validate", ("validate", "--config", cfg.name),
                               _lazy(_expect_validate, cfg)))
    for i in range(SESSION_MIX["noise"]):
        direction, style = NOISE_PAIRS[i % len(NOISE_PAIRS)]
        cfg = configs[i % SESSION_CONFIGS]
        ge, go = _log_uniform(rng, 2e3, 5e4), _log_uniform(rng, 2e3, 5e4)
        argv = ("noise", "--config", cfg.name, "--direction", direction, "--model", style,
                "--gamma-e-hz", repr(ge), "--gamma-o-hz", repr(go))
        runs.append(Invocation("noise", argv, _lazy(_expect_noise, cfg, direction, style, ge, go)))
    for direction in ("up", "down"):
        for _ in range(SESSION_MIX[f"optimize-{direction}"]):
            duty = _r(rng.uniform(0.1, 1.0))
            go = _log_uniform(rng, 5e3, 3e4)
            argv = ("optimize", "--config", example.name, "--direction", direction,
                    "--duty", repr(duty))
            if direction == "up":
                argv += ("--gamma-o-hz", repr(go))
            runs.append(Invocation(f"optimize-{direction}", argv,
                                   _lazy(_expect_optimize, example, direction, go, duty)))
    for form in ("closed", "small-eta", "quadrature"):
        for _ in range(SESSION_MIX[f"capacity-{form}"]):
            eta, n_add = _r(rng.uniform(0.01, 0.95)), _r(rng.uniform(0.0, 0.95))
            bw, duty = _log_uniform(rng, 1e3, 1e6), _r(rng.uniform(0.1, 1.0))
            argv = ("capacity", "--eta", repr(eta), "--n-add", repr(n_add),
                    "--bandwidth-hz", repr(bw), "--duty", repr(duty), "--form", form)
            runs.append(Invocation(f"capacity-{form}", argv,
                                   _lazy(_expect_capacity_point, form, eta, n_add, bw, duty)))
    for _ in range(SESSION_MIX["xi-e"]):
        factors = {
            "xi_o": _r(rng.uniform(0.1, 0.9)), "eps_cl": _r(rng.uniform(0.5, 1.0)),
            "ratio_det": _r(rng.uniform(0.5, 2.0)),
            "kappa_e_over_ext": _r(rng.uniform(1.0, 1.5)),
            "kappa_o_ext_over": _r(rng.uniform(0.5, 1.0)),
            "gamma_o_over_e": _r(rng.uniform(0.5, 2.0)),
            "gain_o_over_e": _r(rng.uniform(0.8, 1.2)),
        }
        argv = ("xi-e",) + sum(((f"--{k.replace('_', '-')}", repr(v))
                                for k, v in factors.items()), ())
        runs.append(Invocation("xi-e", argv, _lazy(_expect_xi_e, factors)))
    methods = ("all", "microwave", "optomechanical", "all")
    for i in range(SESSION_MIX["fit-occupancy"]):
        path, method, unweighted = records[i % 2], methods[i % 4], i % 4 == 3
        argv = ("fit-occupancy", "--records", path.name, "--method", method)
        argv += ("--unweighted",) if unweighted else ()
        runs.append(Invocation("fit-occupancy", argv,
                               _lazy(_expect_fit_occupancy, path, method, unweighted)))
    for i in range(SESSION_MIX["fit-spectrum"]):
        path, band = spectrum_files[i % 2], bands[i % 2]
        argv = ("fit-spectrum", "--spectrum", path.name, f"--exclude={band[0]!r}:{band[1]!r}")
        runs.append(Invocation("fit-spectrum", argv, _lazy(_expect_fit_spectrum, path, band)))
    t_range = (0.01, 100000.0)
    for i in range(SESSION_MIX["compare"]):
        direction = ("up", "down")[i % 2]
        levels = sorted(_log_uniform(rng, 10.0, 1e4) for _ in range(2))
        out_dir = f"cmp{i:02d}"
        argv = ("compare", "--direction", direction, "--levels", ",".join(map(repr, levels)),
                "--out-dir", out_dir)
        runs.append(Invocation("compare", argv,
                               _lazy(_expect_compare, direction, levels, out_dir, t_range)))
    order = rng.permutation(len(runs))
    return [runs[i] for i in order]


WORKLOADS = {
    "capacity-grid": capacity_grid,
    "filter-preset": filter_preset,
    "tradeoff-tables": tradeoff_tables,
    "design-session": design_session,
}
