import math

import numpy as np
import pytest

from quduct import noise
from quduct.core import (
    BudgetAssemblyError,
    DeviceParams,
    NoiseEnvironment,
    OperatingPoint,
    TWO_PI,
    assemble_budget,
    rate_from_hz,
)


def lossless_params(**overrides):
    """Unity gain/mode-matching/kappa-ratio device with no backaction."""
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


def lossy_params(**overrides):
    base = dict(
        omega_m=rate_from_hz(1.27e6),
        gamma_m=0.0,
        kappa_e=rate_from_hz(1.5e6),
        kappa_e_ext=rate_from_hz(1.2e6),
        kappa_o=rate_from_hz(1.2e6),
        kappa_o_ext=rate_from_hz(0.9e6),
        eta_m=0.4,
        eps_mode=0.9,
        gain_e=1.05,
        gain_o=1.03,
        n_min_e=0.02,
        n_min_o=0.01,
    )
    base.update(overrides)
    return DeviceParams(**base)


TABLE_OPTOMECH = dict(a_e=1.3e-5 / TWO_PI, b_e=0.7)
TABLE_PRIOR = dict(a_e=9.44e-4 / TWO_PI, b_e=0.093)


def test_n_bar_e_intercept():
    env = NoiseEnvironment(n_th_gamma_m=0.0, **TABLE_OPTOMECH)
    assert noise.n_bar_e(env, 0.0) == pytest.approx(0.7)


def test_n_bar_e_linear_evaluations():
    env = NoiseEnvironment(n_th_gamma_m=0.0, **TABLE_OPTOMECH)
    assert noise.n_bar_e(env, rate_from_hz(10e3)) == pytest.approx(0.83, rel=1e-12)
    env_prior = NoiseEnvironment(n_th_gamma_m=0.0, **TABLE_PRIOR)
    assert noise.n_bar_e(env_prior, rate_from_hz(1e3)) == pytest.approx(1.037, rel=1e-12)


def test_n_bar_e_negative_rejected():
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=-1.0, b_e=0.0)
    assert noise.n_bar_e(env, 1.0) == -1.0  # the formula; evaluate rejects it
    for kind in noise.MODEL_KINDS:
        with pytest.raises(ValueError, match="negative n_bar_e"):
            noise.evaluate(kind, lossless_params(), OperatingPoint(1.0, 1.0), env)


def test_up_ideal_noiseless_limit():
    env = NoiseEnvironment(n_th_gamma_m=0.0)
    op = OperatingPoint(gamma_e=1e3, gamma_o=1e3)
    budget = noise.evaluate(noise.MODEL_IDEAL_UP, lossless_params(), op, env)
    assert budget.total == 0.0
    assert budget.direction == "up"


def test_up_ideal_calibrated_example():
    # matched 11 kHz rates, thermal+locking product of 4530 Hz, occupancy fit:
    # total = 4530/11000 + (1.3e-5 * 11000 + 0.7) = 0.41182 + 0.843
    env = NoiseEnvironment(n_th_gamma_m=rate_from_hz(4530.0), **TABLE_OPTOMECH)
    op = OperatingPoint(gamma_e=rate_from_hz(11e3), gamma_o=rate_from_hz(11e3))
    budget = noise.evaluate(noise.MODEL_IDEAL_UP, lossless_params(), op, env)
    assert budget.total == pytest.approx(4530.0 / 11000.0 + 0.843, rel=1e-12)
    assert 1.0 <= budget.total <= 1.5


def test_up_down_mirror_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        ge, go = rng.uniform(1e2, 1e6, size=2)
        n_th = rng.uniform(0.0, 1e4)
        b_e, n_bar_o = rng.uniform(0.0, 3.0, size=2)
        n_min_e, n_min_o = rng.uniform(0.0, 0.5, size=2)
        params = lossless_params(n_min_e=n_min_e, n_min_o=n_min_o)
        env = NoiseEnvironment(n_th_gamma_m=n_th, a_e=0.0, b_e=b_e, n_bar_o=n_bar_o)
        op = OperatingPoint(gamma_e=ge, gamma_o=go)
        down = noise.evaluate(noise.MODEL_IDEAL_DOWN, params, op, env)

        swapped_params = lossless_params(n_min_e=n_min_o, n_min_o=n_min_e)
        swapped_env = NoiseEnvironment(
            n_th_gamma_m=n_th, a_e=0.0, b_e=n_bar_o, n_bar_o=b_e
        )
        swapped_op = OperatingPoint(gamma_e=go, gamma_o=ge)
        up = noise.evaluate(noise.MODEL_IDEAL_UP, swapped_params, swapped_op, swapped_env)
        assert up.total == pytest.approx(down.total, rel=1e-12)
        assert up.motional == pytest.approx(down.motional, rel=1e-12)


def test_down_ideal_matched_unit_occupancy():
    # b_e = 1, no backaction, matched rates, no thermal or optical noise:
    # terms are 0 + 0 + 1 + 4 - 4 = 1
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=0.0, b_e=1.0)
    op = OperatingPoint(gamma_e=5e3, gamma_o=5e3)
    budget = noise.evaluate(noise.MODEL_IDEAL_DOWN, lossless_params(), op, env)
    assert budget.motional == pytest.approx(1.0, rel=1e-12)
    assert budget.electromagnetic == pytest.approx(4.0, rel=1e-12)
    assert budget.correlation == pytest.approx(4.0, rel=1e-12)
    assert budget.total == pytest.approx(1.0, rel=1e-12)


def test_down_ideal_equals_combined_random():
    rng = np.random.default_rng(29)
    params_base = lossless_params()
    for _ in range(200):
        ge, go = rng.uniform(1e2, 1e6, size=2)
        params = lossless_params(
            n_min_e=rng.uniform(0.0, 0.5), n_min_o=rng.uniform(0.0, 0.5)
        )
        env = NoiseEnvironment(
            n_th_gamma_m=rng.uniform(0.0, 1e5),
            a_e=rng.uniform(0.0, 1e-4),
            b_e=rng.uniform(0.0, 3.0),
            n_bar_o=rng.uniform(0.0, 1.0),
        )
        op = OperatingPoint(gamma_e=ge, gamma_o=go)
        ideal = noise.evaluate(noise.MODEL_IDEAL_DOWN, params, op, env)
        combined = noise.evaluate(noise.MODEL_IDEAL_DOWN_COMBINED, params, op, env)
        assert combined.total == pytest.approx(ideal.total, rel=1e-12)
    assert params_base.gamma_m == 0.0  # equivalence needs Gamma_T = Ge + Go


def test_down_combined_em_free_limit():
    env = NoiseEnvironment(n_th_gamma_m=1e4, a_e=0.0, b_e=0.0, n_bar_o=0.3)
    op = OperatingPoint(gamma_e=2e3, gamma_o=4e3)
    budget = noise.evaluate(noise.MODEL_IDEAL_DOWN_COMBINED, lossless_params(), op, env)
    assert budget.total == pytest.approx(1e4 / 4e3 + 0.3, rel=1e-12)
    assert budget.electromagnetic == 0.0


def test_down_combined_diverges_at_high_microwave_drive():
    # nonzero backaction limit makes the ratio term blow up with gamma_e
    params = lossless_params(n_min_e=0.05)
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=0.0, b_e=0.1)
    totals = []
    for ge in (1e3, 1e4, 1e5, 1e6):
        op = OperatingPoint(gamma_e=ge, gamma_o=1e3)
        totals.append(noise.evaluate(noise.MODEL_IDEAL_DOWN_COMBINED, params, op, env).total)
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[-1] > 100 * totals[0]


def test_lossy_down_reduces_to_ideal():
    env = NoiseEnvironment(
        n_th_gamma_m=2e4, n_lock_gamma_lock=0.0, a_e=2e-5, b_e=0.4, n_bar_o=0.2
    )
    op = OperatingPoint(gamma_e=3e3, gamma_o=7e3)
    params = lossless_params(n_min_e=0.03, n_min_o=0.02)
    lossy = noise.evaluate(noise.MODEL_LOSSY_DOWN, params, op, env)
    ideal = noise.evaluate(noise.MODEL_IDEAL_DOWN, params, op, env)
    assert lossy.total == pytest.approx(ideal.total, rel=1e-12)
    assert lossy.motional == pytest.approx(ideal.motional, rel=1e-12)
    assert lossy.correlation == pytest.approx(ideal.correlation, rel=1e-12)


def test_lossy_up_reduces_to_ideal_plus_locking():
    env = NoiseEnvironment(n_th_gamma_m=2e4, n_lock_gamma_lock=5e3, a_e=0.0, b_e=0.4)
    op = OperatingPoint(gamma_e=3e3, gamma_o=7e3)
    params = lossless_params(n_min_e=0.0, n_min_o=0.1)
    lossy = noise.evaluate(noise.MODEL_LOSSY_UP, params, op, env)
    expected = (2e4 + 5e3) / 3e3 + 0.4 + 0.1 * 7e3 / 3e3
    assert lossy.total == pytest.approx(expected, rel=1e-12)
    assert lossy.electromagnetic == 0.0
    assert lossy.correlation == 0.0


def test_lossy_down_locking_term_linearity():
    params = lossy_params()
    op = OperatingPoint(gamma_e=3e3, gamma_o=7e3)
    env1 = NoiseEnvironment(n_th_gamma_m=1e4, n_lock_gamma_lock=2e3, a_e=1e-5, b_e=0.2)
    env2 = NoiseEnvironment(n_th_gamma_m=1e4, n_lock_gamma_lock=4e3, a_e=1e-5, b_e=0.2)
    b1 = noise.evaluate(noise.MODEL_LOSSY_DOWN, params, op, env1)
    b2 = noise.evaluate(noise.MODEL_LOSSY_DOWN, params, op, env2)
    denom = params.gain_o * params.eps_mode * (params.kappa_o_ext / params.kappa_o) * op.gamma_o
    assert b2.motional - b1.motional == pytest.approx(2e3 / denom, rel=1e-12)
    assert b2.electromagnetic == b1.electromagnetic
    assert b2.correlation == b1.correlation


def test_lossy_down_mode_matching_scales_two_terms():
    env = NoiseEnvironment(n_th_gamma_m=1e4, n_lock_gamma_lock=1e3, a_e=1e-5, b_e=0.2)
    op = OperatingPoint(gamma_e=3e3, gamma_o=7e3)
    full = noise.evaluate(noise.MODEL_LOSSY_DOWN, lossy_params(eps_mode=1.0), op, env)
    half = noise.evaluate(noise.MODEL_LOSSY_DOWN, lossy_params(eps_mode=0.5), op, env)
    assert half.motional == pytest.approx(2.0 * full.motional, rel=1e-12)
    assert half.correlation == pytest.approx(2.0 * full.correlation, rel=1e-12)
    assert half.electromagnetic == pytest.approx(full.electromagnetic, rel=1e-12)


def test_lossy_up_vanishes_at_large_gamma_e():
    params = lossless_params()
    env = NoiseEnvironment(n_th_gamma_m=1e4, n_lock_gamma_lock=1e3)
    totals = [
        noise.evaluate(noise.MODEL_LOSSY_UP, params, OperatingPoint(ge, 0.0), env).total
        for ge in (1e4, 1e6, 1e8)
    ]
    assert totals[0] > totals[1] > totals[2]
    assert totals[2] < 1e-3


def test_up_ideal_monotone_for_constant_occupancy():
    # with a flat circuit occupancy and no optical noise the total falls
    # monotonically with gamma_e
    params = lossless_params()
    env = NoiseEnvironment(n_th_gamma_m=1e4, a_e=0.0, b_e=0.5)
    ge_values = np.geomspace(1e2, 1e6, 40)
    totals = [
        noise.evaluate(noise.MODEL_IDEAL_UP, params, OperatingPoint(g, 1e3), env).total
        for g in ge_values
    ]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_up_ideal_unique_interior_minimum_with_slope():
    params = lossless_params()
    env = NoiseEnvironment(n_th_gamma_m=1e4, a_e=1e-4, b_e=0.5)
    ge_values = np.geomspace(1e2, 1e7, 300)
    totals = np.array(
        [
            noise.evaluate(noise.MODEL_IDEAL_UP, params, OperatingPoint(g, 1e3), env).total
            for g in ge_values
        ]
    )
    diffs = np.sign(np.diff(totals))
    flips = np.count_nonzero(np.diff(diffs) != 0)
    assert flips == 1  # falls, then rises: single interior minimum


def test_zero_gamma_rejected():
    env = NoiseEnvironment(n_th_gamma_m=1e3)
    with pytest.raises(ValueError, match="gamma_e"):
        noise.evaluate(noise.MODEL_IDEAL_UP, lossless_params(), OperatingPoint(0.0, 1e3), env)
    with pytest.raises(ValueError, match="gamma_o"):
        noise.evaluate(
            noise.MODEL_IDEAL_DOWN_COMBINED, lossless_params(), OperatingPoint(1e3, 0.0), env
        )


def test_nonfinite_intermediate_aborts_with_term_name():
    params = lossless_params(n_min_o=math.inf)
    env = NoiseEnvironment(n_th_gamma_m=1e3)
    with pytest.raises(BudgetAssemblyError, match="motional"):
        noise.evaluate(noise.MODEL_IDEAL_UP, params, OperatingPoint(1e3, 1e3), env)


def test_evaluate_dispatch():
    env = NoiseEnvironment(n_th_gamma_m=1e3)
    op = OperatingPoint(1e3, 1e3)
    params = lossless_params()
    direct = assemble_budget(*noise.terms(noise.MODEL_IDEAL_UP, params, env, 1e3, 1e3), "up")
    via = noise.evaluate(noise.MODEL_IDEAL_UP, params, op, env)
    assert via == direct
    with pytest.raises(ValueError, match="unknown noise model"):
        noise.evaluate("bogus", params, op, env)
    with pytest.raises(ValueError, match="unknown noise model"):
        noise.terms("bogus", params, env, 1e3, 1e3)
