import math

import numpy as np
import pytest

from quduct import noise, optimize
from quduct.core import (
    DeviceParams,
    NoiseEnvironment,
    OperatingPoint,
    TWO_PI,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
)


def clean_params(**overrides):
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


CAL_ENV = NoiseEnvironment(
    n_th_gamma_m=rate_from_hz(4150.0),
    n_lock_gamma_lock=rate_from_hz(380.0),
    a_e=1.3e-5 / TWO_PI,
    b_e=0.7,
)

# balancing the 1/gamma_e thermal fall against the linear occupancy rise:
# gamma_e* = sqrt((thermal + locking products) / slope)
GAMMA_E_STAR = math.sqrt(rate_from_hz(4530.0) / (1.3e-5 / TWO_PI))


def test_closed_form_optimum_value():
    assert GAMMA_E_STAR / TWO_PI == pytest.approx(18667.0, rel=1e-3)


def test_optimize_up_matches_stationarity_oracle():
    result = optimize.optimize_up(
        clean_params(), CAL_ENV, gamma_o_fixed=rate_from_hz(11e3)
    )
    assert not result.at_boundary and not result.flat_objective
    assert result.op.gamma_e == pytest.approx(GAMMA_E_STAR, rel=1e-3)
    assert result.budget.direction == "up"


def test_optimize_up_bracket_rescale_invariance():
    base = optimize.optimize_up(
        clean_params(), CAL_ENV, gamma_o_fixed=rate_from_hz(11e3),
        bracket=(rate_from_hz(10.0), rate_from_hz(1e7)),
    )
    wide = optimize.optimize_up(
        clean_params(), CAL_ENV, gamma_o_fixed=rate_from_hz(11e3),
        bracket=(rate_from_hz(1.0), rate_from_hz(1e8)),
    )
    assert wide.op.gamma_e == pytest.approx(base.op.gamma_e, rel=1e-3)


def test_optimize_up_gradient_vanishes_at_optimum():
    params = clean_params()
    result = optimize.optimize_up(params, CAL_ENV, gamma_o_fixed=rate_from_hz(11e3))
    g = result.op.gamma_e

    def total(gamma_e):
        op = OperatingPoint(gamma_e=gamma_e, gamma_o=rate_from_hz(11e3))
        return noise.n_add_up_lossy(params, op, CAL_ENV).total

    h = 1e-5 * g
    grad = (total(g + h) - total(g - h)) / (2 * h)
    assert abs(grad * g) < 1e-4 * total(g)  # log-axis relative gradient


def test_optimize_up_boundary_when_monotone_decreasing():
    # flat occupancy: total falls as 1/gamma_e forever, optimum at the top
    env = NoiseEnvironment(n_th_gamma_m=rate_from_hz(4150.0), a_e=0.0, b_e=0.5)
    result = optimize.optimize_up(clean_params(), env, gamma_o_fixed=1e3)
    assert result.at_boundary
    assert result.op.gamma_e == pytest.approx(rate_from_hz(1e7), rel=1e-6)


def test_optimize_up_boundary_when_monotone_increasing():
    # no thermal term: total rises with gamma_e, optimum at the bottom
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=1e-5, b_e=0.0)
    result = optimize.optimize_up(clean_params(), env, gamma_o_fixed=1e3)
    assert result.at_boundary
    assert result.op.gamma_e == pytest.approx(rate_from_hz(10.0), rel=1e-6)


def test_optimize_down_matches_stationarity_oracle():
    # combined-form objective with nonzero backaction: the two axes
    # decouple as gamma_o* = sqrt(thermal/a_e), ratio* = sqrt(b_e/n_min_e)
    params = clean_params(n_min_e=0.05)
    env = NoiseEnvironment(
        n_th_gamma_m=rate_from_hz(4150.0), a_e=1.3e-5 / TWO_PI, b_e=0.7
    )
    result = optimize.optimize_down(
        params, env, model=noise.MODEL_IDEAL_DOWN_COMBINED
    )
    gamma_o_star = math.sqrt(rate_from_hz(4150.0) / (1.3e-5 / TWO_PI))
    ratio_star = math.sqrt(0.7 / 0.05)
    assert not result.at_boundary
    assert result.op.gamma_o == pytest.approx(gamma_o_star, rel=1e-3)
    assert result.op.gamma_e / result.op.gamma_o == pytest.approx(ratio_star, rel=1e-3)


def test_optimize_down_ratio_boundary_without_backaction():
    params = clean_params(n_min_e=0.0)
    env = NoiseEnvironment(
        n_th_gamma_m=rate_from_hz(4150.0), a_e=1.3e-5 / TWO_PI, b_e=0.7
    )
    result = optimize.optimize_down(
        params, env, model=noise.MODEL_IDEAL_DOWN_COMBINED, ratio_bracket=(1e-2, 1e2)
    )
    assert result.at_boundary
    assert result.op.gamma_e / result.op.gamma_o == pytest.approx(1e2, rel=1e-6)


def test_optimize_down_flat_objective():
    # only a constant optical-bath term: nothing depends on either axis
    params = clean_params(n_min_e=0.0, n_min_o=0.0)
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=0.0, b_e=0.0, n_bar_o=0.4)
    result = optimize.optimize_down(
        params, env, model=noise.MODEL_IDEAL_DOWN_COMBINED
    )
    assert result.flat_objective
    # lowest pump power wins the tie
    assert result.op.gamma_o == pytest.approx(rate_from_hz(10.0), rel=1e-9)
    assert result.budget.total == pytest.approx(0.4, rel=1e-12)


def test_sweep_u_shape_and_rederivability():
    params = clean_params()
    spec = optimize.SweepSpec(
        variable=optimize.SWEEP_GAMMA_E,
        gamma_e=(rate_from_hz(300.0), rate_from_hz(3e6)),
        gamma_o=rate_from_hz(11e3),
        n_samples=60,
        model=noise.MODEL_LOSSY_UP,
    )
    points = optimize.sweep(spec, params, CAL_ENV)
    assert len(points) == 60
    totals = np.array([p.n_add_total for p in points])
    sign_flips = np.count_nonzero(np.diff(np.sign(np.diff(totals))) != 0)
    assert sign_flips == 1  # U shape: falls then rises

    # every stored value re-derives from the public operations
    for p in points[::7]:
        budget = noise.evaluate(spec.model, params, p.op, CAL_ENV)
        assert budget.total == p.n_add_total
        eta = apparent_efficiency(params, p.op)
        assert p.throughput_hz == eta * bandwidth_hz(params, p.op) * p.op.duty


def test_sweep_minimum_near_stationarity_point():
    points = optimize.sweep(
        optimize.SweepSpec(
            variable=optimize.SWEEP_GAMMA_E,
            gamma_e=(rate_from_hz(1e3), rate_from_hz(1e6)),
            gamma_o=rate_from_hz(11e3),
            n_samples=400,
            model=noise.MODEL_LOSSY_UP,
        ),
        clean_params(),
        CAL_ENV,
    )
    best = min(points, key=lambda p: p.n_add_total)
    assert best.op.gamma_e == pytest.approx(GAMMA_E_STAR, rel=0.05)


def test_sweep_matched_lossless_efficiency_is_unity():
    params = clean_params()
    env = NoiseEnvironment(n_th_gamma_m=1.0)
    points = optimize.sweep(
        optimize.SweepSpec(
            variable=optimize.SWEEP_GAMMA_E,
            gamma_e=(1e3, 1e3 + 1e-6),
            gamma_o=1e3,
            n_samples=1,
            model=noise.MODEL_IDEAL_UP,
        ),
        params,
        env,
    )
    (point,) = points
    assert apparent_efficiency(params, point.op) == pytest.approx(1.0, rel=1e-9)
    assert point.throughput_hz == pytest.approx(
        bandwidth_hz(params, point.op), rel=1e-9
    )


def test_sweep_single_sample_equals_direct_evaluation():
    params = clean_params()
    spec = optimize.SweepSpec(
        variable=optimize.SWEEP_GAMMA_O,
        gamma_e=rate_from_hz(8e3),
        gamma_o=(rate_from_hz(11e3), rate_from_hz(12e3)),
        n_samples=1,
        model=noise.MODEL_LOSSY_DOWN,
    )
    (point,) = optimize.sweep(spec, params, CAL_ENV)
    direct = noise.n_add_down_lossy(
        params, OperatingPoint(rate_from_hz(8e3), rate_from_hz(11e3)), CAL_ENV
    )
    assert point.budget == direct


def test_sweep_collects_per_point_failures():
    # negative occupancy at large gamma_e: those points carry an error
    params = clean_params()
    env = NoiseEnvironment(n_th_gamma_m=1e3, a_e=-1e-7, b_e=0.2)
    points = optimize.sweep(
        optimize.SweepSpec(
            variable=optimize.SWEEP_GAMMA_E,
            gamma_e=(1e4, 1e9),
            gamma_o=1e4,
            n_samples=30,
            model=noise.MODEL_IDEAL_UP,
        ),
        params,
        env,
    )
    failed = [p for p in points if p.error is not None]
    ok = [p for p in points if p.error is None]
    assert failed and ok
    assert all(math.isnan(p.n_add_total) for p in failed)


def test_sweep_both_grid():
    spec = optimize.SweepSpec(
        variable=optimize.SWEEP_BOTH,
        gamma_e=(1e3, 1e5),
        gamma_o=(1e3, 1e5),
        n_samples=5,
        model=noise.MODEL_IDEAL_DOWN,
    )
    points = optimize.sweep(spec, clean_params(), CAL_ENV)
    assert len(points) == 25


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        optimize.SweepSpec(
            variable="gamma_e", gamma_e=1e3, gamma_o=1e3, n_samples=5
        )  # swept axis needs a range
    with pytest.raises(ValueError):
        optimize.SweepSpec(
            variable="gamma_e", gamma_e=(1e3, 1e4), gamma_o=(1.0, 2.0), n_samples=5
        )  # fixed axis needs a number
    with pytest.raises(ValueError):
        optimize.SweepSpec(variable="nope", gamma_e=(1, 2), gamma_o=1.0, n_samples=5)
