import dataclasses
import math
import warnings

import numpy as np
import pytest

from quduct import noise, optimize
from quduct.config import load_config
from quduct.core import (
    DeviceParams,
    InconsistentBudgetWarning,
    NoiseEnvironment,
    OperatingPoint,
    TWO_PI,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
)
from quduct.registry import bundled_registry_path


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
        return noise.evaluate(noise.MODEL_LOSSY_UP, params, op, CAL_ENV).total

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


def _axis(value, n):
    return list(np.geomspace(*value, n)) if isinstance(value, tuple) else [value]


def _per_point_rows(spec, params, env):
    """The sweep table computed one point at a time through the scalar path.

    A point that noise.evaluate rejects gets nan in the four noise columns.
    """
    rows = []
    for ge in _axis(spec.gamma_e, spec.n_samples):
        for go in _axis(spec.gamma_o, spec.n_samples):
            op = OperatingPoint(gamma_e=ge, gamma_o=go, duty=spec.duty)
            theta = apparent_efficiency(params, op) * bandwidth_hz(params, op) * spec.duty
            try:
                b = noise.evaluate(spec.model, params, op, env)
                terms = [b.total, b.motional, b.electromagnetic, b.correlation]
            except ValueError:
                terms = [math.nan] * 4
            rows.append([ge, go, theta, *terms])
    return rows


def _swept_rows(columns):
    return [list(row) for row in zip(*(column.tolist() for column in columns.values()))]


def test_sweep_u_shape_and_rederivability():
    params = clean_params()
    spec = optimize.SweepSpec(
        gamma_e=(rate_from_hz(300.0), rate_from_hz(3e6)),
        gamma_o=rate_from_hz(11e3),
        n_samples=60,
        model=noise.MODEL_LOSSY_UP,
    )
    columns = optimize.sweep(spec, params, CAL_ENV)
    totals = columns["total"]
    assert len(totals) == 60
    sign_flips = np.count_nonzero(np.diff(np.sign(np.diff(totals))) != 0)
    assert sign_flips == 1  # U shape: falls then rises

    # every stored value re-derives from the public operations
    for i in range(0, 60, 7):
        op = OperatingPoint(columns["gamma_e"][i], columns["gamma_o"][i], spec.duty)
        budget = noise.evaluate(spec.model, params, op, CAL_ENV)
        assert budget.total == totals[i]
        eta = apparent_efficiency(params, op)
        assert columns["throughput_hz"][i] == eta * bandwidth_hz(params, op) * op.duty


def test_sweep_minimum_near_stationarity_point():
    columns = optimize.sweep(
        optimize.SweepSpec(
            gamma_e=(rate_from_hz(1e3), rate_from_hz(1e6)),
            gamma_o=rate_from_hz(11e3),
            n_samples=400,
            model=noise.MODEL_LOSSY_UP,
        ),
        clean_params(),
        CAL_ENV,
    )
    best = columns["gamma_e"][np.argmin(columns["total"])]
    assert best == pytest.approx(GAMMA_E_STAR, rel=0.05)


def test_sweep_matched_lossless_efficiency_is_unity():
    params = clean_params()
    env = NoiseEnvironment(n_th_gamma_m=1.0)
    columns = optimize.sweep(
        optimize.SweepSpec(
            gamma_e=(1e3, 1e3 + 1e-6),
            gamma_o=1e3,
            n_samples=1,
            model=noise.MODEL_IDEAL_UP,
        ),
        params,
        env,
    )
    ((gamma_e, gamma_o, throughput_hz, *_),) = _swept_rows(columns)
    op = OperatingPoint(gamma_e, gamma_o)
    assert apparent_efficiency(params, op) == pytest.approx(1.0, rel=1e-9)
    assert throughput_hz == pytest.approx(bandwidth_hz(params, op), rel=1e-9)


def test_sweep_single_sample_equals_direct_evaluation():
    params = clean_params()
    spec = optimize.SweepSpec(
        gamma_e=rate_from_hz(8e3),
        gamma_o=(rate_from_hz(11e3), rate_from_hz(12e3)),
        n_samples=1,
        model=noise.MODEL_LOSSY_DOWN,
    )
    columns = optimize.sweep(spec, params, CAL_ENV)
    direct = noise.evaluate(
        noise.MODEL_LOSSY_DOWN,
        params,
        OperatingPoint(rate_from_hz(8e3), rate_from_hz(11e3)),
        CAL_ENV,
    )
    for name in ("total", "motional", "electromagnetic", "correlation"):
        assert columns[name].tolist() == [getattr(direct, name)]


# the bundled example device and environment, with the occupancy slope
# made negative so that n_bar_e < 0 above gamma_e = 0.7 / 1e-5 Hz
EXAMPLE = load_config(bundled_registry_path().parent / "example_device.cfg")
NEGATIVE_SLOPE_ENV = dataclasses.replace(EXAMPLE.environment, a_e=-1e-5 / TWO_PI)


@pytest.mark.parametrize("kind", noise.MODEL_KINDS)
def test_sweep_matches_per_point_evaluation(kind):
    spec = optimize.SweepSpec(
        gamma_e=(rate_from_hz(100.0), rate_from_hz(1e7)),
        gamma_o=(rate_from_hz(100.0), rate_from_hz(1e7)),
        n_samples=40,
        model=kind,
        duty=0.3,
    )
    swept = _swept_rows(optimize.sweep(spec, EXAMPLE.device, NEGATIVE_SLOPE_ENV))
    expected = _per_point_rows(spec, EXAMPLE.device, NEGATIVE_SLOPE_ENV)
    assert [list(map(repr, row)) for row in swept] == [
        [repr(float(x)) for x in row] for row in expected
    ]
    nan_rows = [row for row in swept if math.isnan(row[3])]
    assert 0 < len(nan_rows) < len(swept)  # negative occupancy at large gamma_e
    assert all(math.isnan(x) for row in nan_rows for x in row[3:])


@pytest.mark.parametrize("field, value", [("eta_m", 0.0), ("gain_e", -1.0)])
def test_sweep_device_the_model_rejects_gives_all_nan_rows(field, value):
    params = dataclasses.replace(EXAMPLE.device, **{field: value})
    spec = optimize.SweepSpec(
        gamma_e=(1e3, 1e6),
        gamma_o=(1e3, 1e6),
        n_samples=6,
        model=noise.MODEL_LOSSY_DOWN,
    )
    swept = _swept_rows(optimize.sweep(spec, params, EXAMPLE.environment))
    expected = _per_point_rows(spec, params, EXAMPLE.environment)
    assert [list(map(repr, row)) for row in swept] == [
        [repr(float(x)) for x in row] for row in expected
    ]
    assert all(math.isnan(x) for row in swept for x in row[3:])
    assert all(math.isfinite(x) for row in swept for x in row[:3])


def test_sweep_warns_once_on_negative_totals():
    # a tiny microwave extraction ratio drops the electromagnetic term
    # while the correlation term stays, so the totals go negative
    params = dataclasses.replace(EXAMPLE.device, kappa_e_ext=rate_from_hz(1e3))
    env = NoiseEnvironment(n_th_gamma_m=0.0, a_e=EXAMPLE.environment.a_e, b_e=5.0)
    spec = optimize.SweepSpec(
        gamma_e=(1e3, 1e7),
        gamma_o=(1e3, 1e7),
        n_samples=10,
        model=noise.MODEL_LOSSY_DOWN,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns = optimize.sweep(spec, params, env)
    assert [w.category for w in caught] == [InconsistentBudgetWarning]
    negative = np.count_nonzero(columns["total"] < 0)
    assert 0 < negative < 100
    assert f"negative at {negative} of 100 points" in str(caught[0].message)


def test_sweep_both_grid():
    spec = optimize.SweepSpec(
        gamma_e=(1e3, 1e5),
        gamma_o=(1e3, 1e5),
        n_samples=5,
        model=noise.MODEL_IDEAL_DOWN,
    )
    columns = optimize.sweep(spec, clean_params(), CAL_ENV)
    assert [len(column) for column in columns.values()] == [25] * 7


@pytest.mark.parametrize(
    "gamma_e, gamma_o",
    [((1e3, 1e5), 2e4), (2e4, (1e3, 1e5)), ((1e3, 1e5), (3e3, 3e4))],
    ids=["range-fixed", "fixed-range", "range-range"],
)
def test_sweep_runs_gamma_e_major(gamma_e, gamma_o):
    spec = optimize.SweepSpec(
        gamma_e=gamma_e,
        gamma_o=gamma_o,
        n_samples=4,
        model=noise.MODEL_IDEAL_DOWN,
    )
    columns = optimize.sweep(spec, clean_params(), CAL_ENV)
    expected = [(ge, go) for ge in _axis(gamma_e, 4) for go in _axis(gamma_o, 4)]
    assert list(zip(columns["gamma_e"].tolist(), columns["gamma_o"].tolist())) == expected


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="nothing to sweep"):
        optimize.SweepSpec(gamma_e=1e3, gamma_o=1e3, n_samples=5)  # no axis has a range
    with pytest.raises(ValueError, match="gamma_o needs a fixed positive rate"):
        optimize.SweepSpec(gamma_e=(1e3, 1e4), gamma_o="1e3", n_samples=5)  # a number
    with pytest.raises(ValueError, match="gamma_e needs an increasing positive"):
        optimize.SweepSpec(gamma_e=(1e4, 1e3), gamma_o=1.0, n_samples=5)
    # infinite or nan rates, swept or fixed, fail naming their axis
    with pytest.raises(ValueError, match=r"gamma_e needs .* range below inf, got \(1000.0, inf\)"):
        optimize.SweepSpec(gamma_e=(1e3, math.inf), gamma_o=1e3, n_samples=3)
    with pytest.raises(ValueError, match=r"gamma_o needs .* range below inf, got \(nan, 10000.0\)"):
        optimize.SweepSpec(gamma_e=1e3, gamma_o=(math.nan, 1e4), n_samples=3)
    with pytest.raises(ValueError, match="gamma_o needs a fixed positive rate below inf, got inf"):
        optimize.SweepSpec(gamma_e=(1e3, 1e4), gamma_o=math.inf, n_samples=3)
    with pytest.raises(ValueError, match="gamma_e needs a fixed positive rate below inf, got inf"):
        optimize.SweepSpec(gamma_e=math.inf, gamma_o=(1e3, 1e4), n_samples=3)
    with pytest.raises(ValueError, match=r"duty cycle must be in \(0, 1\], got 0.0"):
        optimize.SweepSpec(gamma_e=(1e3, 1e4), gamma_o=1.0, n_samples=5, duty=0.0)


@pytest.mark.parametrize("direction", ["up", "down"])
def test_optimizer_evaluates_the_budget_only_at_the_optimum(monkeypatch, direction):
    calls = []
    evaluate = noise.evaluate

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(noise, "evaluate", counted)
    if direction == "up":
        result = optimize.optimize_up(EXAMPLE.device, EXAMPLE.environment,
                                      gamma_o_fixed=rate_from_hz(11e3))
    else:
        result = optimize.optimize_down(EXAMPLE.device, EXAMPLE.environment)
    assert len(calls) == 1
    assert calls[0][2] == result.op


@pytest.mark.parametrize(
    "model", [noise.MODEL_LOSSY_DOWN, noise.MODEL_IDEAL_DOWN, noise.MODEL_IDEAL_DOWN_COMBINED]
)
def test_optimize_down_beats_its_first_grid(model):
    # the 60x60 log grid of the default brackets, gamma_o outer
    gamma_o, ratio = np.meshgrid(
        np.geomspace(rate_from_hz(10.0), rate_from_hz(1e7), 60), np.geomspace(1e-3, 1e3, 60),
        indexing="ij",
    )
    motional, electromagnetic, correlation = noise.terms(
        model, EXAMPLE.device, EXAMPLE.environment, ratio * gamma_o, gamma_o
    )
    result = optimize.optimize_down(EXAMPLE.device, EXAMPLE.environment, model=model)
    assert not result.at_boundary
    assert result.budget.total <= np.min(motional + electromagnetic - correlation)


def test_optimize_down_raises_for_a_device_the_model_rejects():
    params = dataclasses.replace(EXAMPLE.device, eta_m=0.0)
    with pytest.raises(ValueError, match=r"eta_m must be positive here \(division\)"):
        optimize.optimize_down(params, EXAMPLE.environment, model=noise.MODEL_LOSSY_DOWN)
