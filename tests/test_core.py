import math

import numpy as np
import pytest

from quduct.core import (
    DeviceParams,
    InconsistentBudgetWarning,
    BudgetAssemblyError,
    NoiseEnvironment,
    OperatingPoint,
    TWO_PI,
    apparent_efficiency,
    assemble_budget,
    backaction_limit,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
    stokes_gain,
    throughput,
    transduction,
    validate_device,
)


def make_params(**overrides):
    base = dict(
        omega_m=rate_from_hz(1.27e6),
        gamma_m=rate_from_hz(15.0),
        kappa_e=rate_from_hz(1.5e6),
        kappa_e_ext=rate_from_hz(1.2e6),
        kappa_o=rate_from_hz(1.2e6),
        kappa_o_ext=rate_from_hz(0.9e6),
        eta_m=0.4,
    )
    base.update(overrides)
    return DeviceParams(**base)


def test_rate_round_trip():
    assert rate_to_hz(rate_from_hz(123.0)) == pytest.approx(123.0, rel=1e-15)
    assert rate_from_hz(1.0) == pytest.approx(TWO_PI)


def test_sideband_defaults_applied():
    p = make_params()
    assert p.n_min_e == pytest.approx(backaction_limit(p.kappa_e, p.omega_m))
    assert p.gain_o == pytest.approx(stokes_gain(p.kappa_o, p.omega_m))
    assert p.gain_e > 1.0
    assert p.gain_total == pytest.approx(p.gain_e * p.gain_o)


def test_sideband_defaults_overridable():
    p = make_params(gain_e=1.0, gain_o=1.0, n_min_e=0.0, n_min_o=0.0)
    assert p.gain_total == 1.0
    assert p.n_min_e == 0.0


def test_validate_consistent_params_clean():
    assert validate_device(make_params()) == []


def test_validate_external_exceeds_total():
    p = make_params(kappa_e_ext=2 * rate_from_hz(1.5e6))
    report = validate_device(p)
    assert any("external exceeds total" in item for item in report)


def test_validate_gain_below_unity():
    p = make_params(gain_e=0.5)
    report = validate_device(p)
    assert any("gain below unity" in item for item in report)


def test_validate_nonfinite():
    p = make_params(eta_m=math.nan)
    assert any("not finite" in item for item in validate_device(p))


def test_total_damping_zero_pump_limit():
    p = make_params(gamma_m=rate_from_hz(10.0))
    op = OperatingPoint(gamma_e=0.0, gamma_o=0.0)
    assert transduction(p, op.gamma_e, op.gamma_o)[0] == pytest.approx(rate_from_hz(10.0))


def test_total_damping_matched_point_bandwidth():
    # two matched 11 kHz rates with negligible intrinsic loss: 22 kHz bandwidth
    p = make_params(gamma_m=0.0)
    op = OperatingPoint(gamma_e=rate_from_hz(11e3), gamma_o=rate_from_hz(11e3))
    assert bandwidth_hz(p, op) == pytest.approx(22e3, rel=1e-12)


def test_total_damping_sum():
    p = make_params(gamma_m=rate_from_hz(1e3))
    op = OperatingPoint(gamma_e=rate_from_hz(8e3), gamma_o=rate_from_hz(10e3))
    gamma_t = transduction(p, op.gamma_e, op.gamma_o)[0]
    assert rate_to_hz(gamma_t) == pytest.approx(19e3, rel=1e-12)


def test_total_damping_symmetric_under_exchange():
    p = make_params()
    rng = np.random.default_rng(7)
    for _ in range(50):
        ge, go = rng.uniform(1.0, 1e6, size=2)
        a = transduction(p, ge, go)[0]
        b = transduction(p, go, ge)[0]
        assert a == b


def test_throughput_examples():
    assert throughput(1.0, 1.0, 1.0) == 1.0
    assert throughput(0.4, 22000.0, 1.0) == pytest.approx(8800.0)
    assert throughput(0.0, 5000.0, 0.5) == 0.0


def test_throughput_rejects_out_of_range():
    with pytest.raises(ValueError):
        throughput(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        throughput(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        throughput(0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="bandwidth_hz must be positive and finite, got inf"):
        throughput(0.5, math.inf)
    with pytest.raises(ValueError, match="bandwidth_hz must be positive and finite, got nan"):
        throughput(0.5, math.nan)
    with pytest.raises(ValueError, match=r"duty cycle must be in \(0, 1\], got nan"):
        throughput(0.5, 1.0, math.nan)


def test_throughput_monotone_in_each_argument():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eta, duty = rng.uniform(0.01, 0.99, size=2)
        bw = rng.uniform(1.0, 1e6)
        base = throughput(eta, bw, duty)
        assert throughput(min(eta * 1.1, 1.0), bw, duty) >= base
        assert throughput(eta, bw * 1.1, duty) >= base
        assert throughput(eta, bw, min(duty * 1.1, 1.0)) >= base


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(gamma_e=-1.0, gamma_o=1.0)
    with pytest.raises(ValueError):
        OperatingPoint(gamma_e=1.0, gamma_o=1.0, duty=0.0)
    assert OperatingPoint(gamma_e=1.0, gamma_o=1.0).duty == 1.0


@pytest.mark.parametrize("rates", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                                   (1.0, math.nan), (1.0, -1e-300)])
def test_operating_point_names_a_bad_rate(rates):
    name = "gamma_e" if not 0.0 <= rates[0] < math.inf else "gamma_o"
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        OperatingPoint(*rates)


def test_environment_validation():
    with pytest.raises(ValueError):
        NoiseEnvironment(n_th_gamma_m=-1.0)
    with pytest.raises(ValueError):
        NoiseEnvironment(n_th_gamma_m=1.0, b_e=-0.1)


def test_budget_total_is_exact_sum():
    import warnings as _warnings

    rng = np.random.default_rng(11)
    for _ in range(200):
        m, e, c = rng.uniform(0.0, 10.0, size=3)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", InconsistentBudgetWarning)
            b = assemble_budget(m, e, c, "up")
        assert b.total == m + e - c


def test_budget_nonfinite_names_term():
    with pytest.raises(BudgetAssemblyError, match="electromagnetic"):
        assemble_budget(1.0, math.inf, 0.0, "down")


def test_budget_negative_total_warns():
    with pytest.warns(InconsistentBudgetWarning):
        b = assemble_budget(1.0, 0.0, 2.0, "up")
    assert b.total == -1.0  # flagged, not clamped


def test_apparent_efficiency_matched_lossless():
    p = make_params(gamma_m=0.0, eta_m=1.0, gain_e=1.0, gain_o=1.0)
    op = OperatingPoint(gamma_e=1000.0, gamma_o=1000.0)
    assert apparent_efficiency(p, op) == pytest.approx(1.0, rel=1e-12)
