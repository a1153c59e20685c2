"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion NN] PASS ...` line on success (run with
``pytest -s tests/test_acceptance.py`` to see them).  Criterion 04a is
expected to fail and is marked strict-xfail: the published closed form's
unit-transmissivity limit carries a square that the quoted limit
expression drops, so the stated target cannot be met for nonzero noise;
see the test body and README for the analysis.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from quduct import noise, optimize
from quduct.calibration import fit_occupancy, OccupancyRecord
from quduct.capacity import (
    LN2,
    ChannelSpec,
    cap_integrated_closed,
    cap_integrated_quadrature,
    cap_small_eta,
)
from quduct.cli import cli_dispatch
from quduct.core import (
    DeviceParams,
    NoiseEnvironment,
    OperatingPoint,
    TWO_PI,
    rate_from_hz,
)
from quduct.filters import FilterSpec, analyze_filter, tuned_preset
from quduct.registry import bundled_registry_path, load_registry

ETA_GRID = [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
N_GRID = [0.0, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99]

EXAMPLE_CFG = str(bundled_registry_path().parent / "example_device.cfg")


def _report(num: str, text: str):
    print(f"[criterion {num}] PASS {text}")


def _lossless_params(**overrides):
    base = dict(
        omega_m=rate_from_hz(1.27e6),
        gamma_m=0.0,
        kappa_e=rate_from_hz(1e6),
        kappa_e_ext=rate_from_hz(1e6),
        kappa_o=rate_from_hz(1e6),
        kappa_o_ext=rate_from_hz(1e6),
        eta_m=1.0,
        gain_e=1.0,
        gain_o=1.0,
        n_min_e=0.0,
        n_min_o=0.0,
    )
    base.update(overrides)
    return DeviceParams(**base)


def test_criterion_01_closed_form_vs_quadrature_oracle():
    start = time.perf_counter()
    worst = 0.0
    for eta in ETA_GRID:
        for n_add in N_GRID:
            spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=22e3)
            closed = cap_integrated_closed(spec)
            quad = cap_integrated_quadrature(spec)
            rel = abs(closed - quad) / quad if quad else abs(closed)
            worst = max(worst, rel)
            assert rel <= 1e-6, (eta, n_add, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("01", f"closed vs quadrature worst rel {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_small_eta_accuracy_claims():
    n_values = np.concatenate([np.linspace(0.0, 0.999, 4000), [0.9999]])
    maxima = {}
    for eta, bound in ((0.5, 0.17), (0.1, 0.03)):
        deficits = []
        for n_add in n_values:
            spec = ChannelSpec(eta=eta, n_add=float(n_add), bandwidth_hz=1.0)
            closed = cap_integrated_closed(spec)
            if closed == 0.0:
                continue
            small = cap_small_eta(float(n_add), spec.throughput_hz)
            deficits.append(1.0 - small / closed)
        maxima[eta] = max(deficits)
        assert maxima[eta] <= bound, (eta, maxima[eta])
    _report(
        "02",
        f"max small-throughput deficit {maxima[0.5]:.4f} at eta=0.5 "
        f"(bound 0.17), {maxima[0.1]:.4f} at eta=0.1 (bound 0.03)",
    )


def test_criterion_03_factor_of_two_sandwich():
    for eta in ETA_GRID:
        for n_add in N_GRID:
            spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1.0)
            closed = cap_integrated_closed(spec)
            small = cap_small_eta(n_add, spec.throughput_hz)
            assert small <= closed + 1e-12, (eta, n_add)
            assert closed <= 2.0 * small + 1e-12, (eta, n_add)
    _report("03", "small-eta form <= closed form <= 2x small-eta form on full grid")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated target is unattainable for two reasons: (a) it drops a "
        "square; the closed form's eta->1 limit is (2 pi Theta / ln2)"
        "(1 - sqrt(N))^2, confirmed by the independent quadrature and "
        "required by the factor-of-two property of criterion 03, so the "
        "quoted form is 2x off at N=0.25 and 10x at N=0.81; (b) the closed "
        "form approaches its own limit only as sqrt(1-eta) = 1e-3 at "
        "eta = 1-1e-6, so even the N=0 point misses the 1e-4 tolerance"
    ),
)
def test_criterion_04a_high_eta_limit_as_stated():
    eta = 1.0 - 1e-6
    failures = []
    for n_add in (0.0, 0.25, 0.81):
        spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1e3)
        closed = cap_integrated_closed(spec)
        stated = TWO_PI * spec.throughput_hz / LN2 * (1.0 - math.sqrt(n_add))
        rel = abs(closed - stated) / stated
        if rel > 1e-4:
            failures.append((n_add, rel))
    print(
        "[criterion 04a] FAIL (expected): stated eta->1 target misses at "
        + ", ".join(f"N={n}: rel {r:.3f}" for n, r in failures)
    )
    assert not failures


def test_criterion_04b_small_eta_limit():
    eta = 1e-6
    for n_add in (0.0, 0.25, 0.81):
        spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1e3)
        closed = cap_integrated_closed(spec)
        linear = cap_small_eta(n_add, spec.throughput_hz)
        assert abs(closed - linear) / linear <= 1e-4, n_add
    _report("04b", "closed form matches the linear-throughput form at eta=1e-6")


def test_criterion_05_down_conversion_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        params = _lossless_params(
            n_min_e=rng.uniform(0.0, 1.0), n_min_o=rng.uniform(0.0, 1.0)
        )
        env = NoiseEnvironment(
            n_th_gamma_m=rng.uniform(0.0, 1e5),
            a_e=rng.uniform(0.0, 1e-4),
            b_e=rng.uniform(0.0, 3.0),
            n_bar_o=rng.uniform(0.0, 2.0),
        )
        op = OperatingPoint(
            gamma_e=rng.uniform(10.0, 1e6), gamma_o=rng.uniform(10.0, 1e6)
        )
        ideal = noise.evaluate(noise.MODEL_IDEAL_DOWN, params, op, env).total
        combined = noise.evaluate(noise.MODEL_IDEAL_DOWN_COMBINED, params, op, env).total
        assert abs(ideal - combined) <= 1e-12 * max(abs(ideal), 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("05", f"10^4 random draws equivalent to 1e-12 in {elapsed:.1f}s")


def test_criterion_06_lossless_reduction():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        params = _lossless_params(
            n_min_e=rng.uniform(0.0, 0.5), n_min_o=rng.uniform(0.0, 0.5)
        )
        env = NoiseEnvironment(
            n_th_gamma_m=rng.uniform(0.0, 1e5),
            n_lock_gamma_lock=0.0,
            a_e=rng.uniform(0.0, 1e-4),
            b_e=rng.uniform(0.0, 3.0),
            n_bar_o=rng.uniform(0.0, 2.0),
        )
        op = OperatingPoint(
            gamma_e=rng.uniform(10.0, 1e6), gamma_o=rng.uniform(10.0, 1e6)
        )
        lossy_down = noise.evaluate(noise.MODEL_LOSSY_DOWN, params, op, env).total
        ideal_down = noise.evaluate(noise.MODEL_IDEAL_DOWN, params, op, env).total
        assert abs(lossy_down - ideal_down) <= 1e-12 * max(abs(ideal_down), 1.0)

        lossy_up = noise.evaluate(noise.MODEL_LOSSY_UP, params, op, env).total
        n_em = noise.n_bar_e(env, op.gamma_e) + params.n_min_e
        n_om = env.n_bar_o + params.n_min_o
        expected_up = (
            env.n_th_gamma_m / op.gamma_e + n_em + n_om * op.gamma_o / op.gamma_e
        )
        assert abs(lossy_up - expected_up) <= 1e-12 * max(abs(expected_up), 1.0)
    _report("06", "unity-factor models reduce to ideal forms on 10^3 draws")


def test_criterion_07_upconversion_optimum_oracle():
    env = NoiseEnvironment(
        n_th_gamma_m=rate_from_hz(4150.0),
        n_lock_gamma_lock=rate_from_hz(380.0),
        a_e=1.3e-5 / TWO_PI,
        b_e=0.7,
    )
    closed_form = math.sqrt(rate_from_hz(4530.0) / (1.3e-5 / TWO_PI))
    result = optimize.optimize_up(
        _lossless_params(), env, gamma_o_fixed=rate_from_hz(11e3)
    )
    rel = abs(result.op.gamma_e - closed_form) / closed_form
    assert rel <= 1e-3
    assert closed_form / TWO_PI == pytest.approx(18.7e3, rel=5e-3)
    _report(
        "07",
        f"numeric optimum {result.op.gamma_e / TWO_PI:.1f} Hz vs closed form "
        f"{closed_form / TWO_PI:.1f} Hz (rel {rel:.1e})",
    )


def test_criterion_08_unnotched_filter_analytics():
    report = analyze_filter(FilterSpec(linewidth_hz=21.7e3))
    eta_t_expected = 1.0 - math.exp(-3.0)
    tail_expected = math.exp(-3.0)
    assert abs(report.eta_temporal - eta_t_expected) <= 0.005
    assert abs(report.tail_noise_photons - tail_expected) <= 0.005
    _report(
        "08",
        f"eta_temporal {report.eta_temporal:.4f} (target {eta_t_expected:.4f}), "
        f"tail {report.tail_noise_photons:.4f} (target {tail_expected:.4f})",
    )


def test_criterion_09_notched_filter_preset():
    spec = tuned_preset()
    report = analyze_filter(spec)
    assert abs(report.eta_notch - 0.940) <= 1e-3
    assert 0.89 <= report.eta_temporal <= 0.93
    assert 0.84 <= report.eta_total <= 0.88
    assert 0.06 <= report.tail_noise_photons <= 0.12
    _report(
        "09",
        f"eta_notch {report.eta_notch:.4f}, eta_temporal {report.eta_temporal:.3f}, "
        f"eta_total {report.eta_total:.3f}, tail {report.tail_noise_photons:.3f}",
    )


def test_criterion_10_occupancy_fit_reproduction():
    rows = {
        "current microwave": (1.05e-5, 0.17),
        "current optomechanical": (1.3e-5, 0.7),
        "prior microwave": (9.44e-4, 0.093),
    }
    gammas_hz = np.linspace(1e3, 30e3, 10)
    fits = {}
    for name, (a_per_hz, b) in rows.items():
        records = [
            OccupancyRecord(
                gamma_e=rate_from_hz(f), n_bar_e=a_per_hz * f + b, sigma=0.05
            )
            for f in gammas_hz
        ]
        fit = fit_occupancy(records)
        assert abs(fit.a_e_per_hz - a_per_hz) <= 1e-8 * a_per_hz
        assert abs(fit.b_e - b) <= 1e-8 * max(b, 1.0)
        fits[name] = fit
    ratio = fits["prior microwave"].a_e_per_hz / fits["current microwave"].a_e_per_hz
    assert ratio == pytest.approx(9.44e-4 / 1.05e-5, rel=0.01)
    _report("10", f"fits round-trip to 1e-8; slope ratio {ratio:.1f} (approx 89.9)")


def test_criterion_11_registry_throughput_arithmetic():
    expected = {
        "Kumar 2023": 135.0,
        "Higginbotham 2018": 1645.0,
        "Sahu 2022": 1.35,
        "Xie 2025": 0.8,
        "Meesala 2024": 3.072,
    }
    records = {r.label: r for r in load_registry() if r.label in expected}
    assert set(records) == set(expected)
    for label, value in expected.items():
        assert records[label].throughput_hz == pytest.approx(
            value, rel=5e-4
        ), label
    _report("11", "bundled registry throughputs match hand-computed products")


def test_criterion_12_measured_noise_bracketing():
    # the published on-device values need unpublished cavity parameters;
    # instead: the ideal model with calibrated inputs lands in [1.0, 1.5],
    # and a combined loss factor near one half brings it into the
    # published range without asserting any single unpublished parameter
    env = NoiseEnvironment(
        n_th_gamma_m=rate_from_hz(4150.0),
        n_lock_gamma_lock=rate_from_hz(380.0),
        a_e=1.3e-5 / TWO_PI,
        b_e=0.7,
    )
    op = OperatingPoint(gamma_e=rate_from_hz(11e3), gamma_o=rate_from_hz(11e3))
    ideal = noise.evaluate(noise.MODEL_LOSSY_UP, _lossless_params(), op, env).total
    assert 1.0 <= ideal <= 1.5
    assert ideal < 2.6

    totals = []
    factorisations = [
        dict(eps_e=0.45),
        dict(eps_e=0.5),
        dict(eps_e=0.55),
        dict(gain_e=1.1, eps_e=0.5 / 1.1),
        dict(kappa_e_ext=rate_from_hz(0.5e6), eps_e=1.0),  # ratio 0.5 via kappas
    ]
    for overrides in factorisations:
        params = _lossless_params(**overrides)
        factor = (
            params.gain_e * params.eps_e * params.kappa_e_ext / params.kappa_e
        )
        assert 0.45 <= factor <= 0.55
        total = noise.evaluate(noise.MODEL_LOSSY_UP, params, op, env).total
        assert 2.2 <= total <= 3.0, (overrides, total)
        totals.append(total)
    _report(
        "12",
        f"ideal total {ideal:.3f} in [1.0, 1.5]; loss factor 0.45..0.55 "
        f"gives {min(totals):.2f}..{max(totals):.2f} in [2.2, 3.0]",
    )


def _run_cli(argv, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-m", "quduct.cli", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_13_cli_determinism(tmp_path, child_env):
    records_csv = tmp_path / "records.csv"
    records_csv.write_text(
        "gamma_e_hz,n_bar_e,sigma,method\n"
        "1000.0,0.713,0.05,optomechanical\n"
        "9000.0,0.817,0.05,optomechanical\n"
        "16000.0,0.908,0.05,optomechanical\n"
    )
    invocations = [
        ["validate", "--config", EXAMPLE_CFG],
        ["noise", "--config", EXAMPLE_CFG, "--direction", "up", "--op", "up"],
        ["noise", "--config", EXAMPLE_CFG, "--direction", "down", "--op", "down"],
        ["sweep", "--config", EXAMPLE_CFG, "--direction", "up",
         "--variable", "gamma-e", "--range-hz", "1000:100000", "--n", "11",
         "--gamma-o-hz", "11000"],
        ["optimize", "--config", EXAMPLE_CFG, "--direction", "up",
         "--gamma-o-hz", "11000"],
        ["capacity", "--grid-eta", "0.05:0.95:5", "--grid-n-add", "0:0.99:5"],
        ["capacity", "--eta", "0.4", "--n-add", "0.5", "--bandwidth-hz", "22000"],
        ["contours", "--levels", "10,1000", "--throughput-range-hz", "0.1:100000",
         "--n", "65"],
        ["filter-analysis", "--linewidth-hz", "21700", "--notch", "4000:6000",
         "--n-points", "131072"],
        ["fit-occupancy", "--records", str(records_csv)],
        ["xi-e", "--xi-o", "0.4", "--eps-cl", "0.95", "--ratio-det", "0.0204",
         "--kappa-e-over-ext", "1.25", "--kappa-o-ext-over", "0.75",
         "--gamma-o-over-e", "1.375", "--gain-o-over-e", "0.999"],
    ]
    for argv in invocations:
        code1, out1, err1 = _run_cli(argv, tmp_path, child_env)
        code2, out2, _ = _run_cli(argv, tmp_path, child_env)
        assert code1 == 0, (argv, out1, err1)
        assert code1 == code2
        assert out1 == out2, argv

    # compare writes files; those must be byte-identical across runs too
    dir1, dir2 = tmp_path / "cmp1", tmp_path / "cmp2"
    for out_dir in (dir1, dir2):
        code, _, err = _run_cli(
            ["compare", "--direction", "up", "--levels", "100,1000",
             "--out-dir", str(out_dir), "--config", EXAMPLE_CFG],
            tmp_path,
            child_env,
        )
        assert code == 0, err
    for name in ("scatter_up.csv", "contours_up.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
    _report("13", "all subcommands byte-identical across consecutive runs")
