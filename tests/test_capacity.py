import math
import tracemalloc

import numpy as np
import pytest

from quduct.capacity import (
    LN2,
    ChannelSpec,
    _capacity_bound,
    _small_eta_slope,
    cap_integrated_closed,
    cap_integrated_high_eta_limit,
    cap_integrated_quadrature,
    cap_small_eta,
    cap_ub_grid,
    cap_ub_point,
    capacity_contours,
)
from quduct.core import TWO_PI

ETA_GRID = [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
N_GRID = [0.0, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99]


def plob_bound(eta: float, n_add: float) -> float:
    """Independent route to the same per-use bound: substitute the thermal
    occupancy n = N * eta / (1 - eta) into the standard thermal-loss form
    -log2((1-eta) eta^n) - [(n+1) log2(n+1) - n log2(n)]."""
    if eta <= 0.0:
        return 0.0
    n = n_add * eta / (1.0 - eta)
    g = (n + 1.0) * math.log2(n + 1.0) - (n * math.log2(n) if n > 0 else 0.0)
    return max(-math.log2((1.0 - eta) * eta**n) - g, 0.0)


def test_broadcasting_and_scalars():
    eta = np.array([0.1, 0.5, 0.9])
    out = _capacity_bound(eta, 0.0)
    assert out.shape == (3,)
    expected = -np.log2(1.0 - eta)
    assert np.allclose(out, expected, rtol=1e-13)
    assert float(_capacity_bound(0.5, 1.0)) == 0.0
    rng = np.random.default_rng(19)
    assert np.all(
        _capacity_bound(rng.uniform(0.0, 0.999, 4096), rng.uniform(0.0, 1.5, 4096)) >= 0.0
    )


def test_point_pure_loss_reduction():
    # at zero added noise the bound is -log2(1 - eta)
    assert cap_ub_point(0.5, 0.0) == pytest.approx(1.0, rel=1e-12)
    for eta in ETA_GRID:
        assert cap_ub_point(eta, 0.0) == pytest.approx(-math.log2(1.0 - eta), rel=1e-12)


def test_point_zero_at_unit_noise():
    for eta in ETA_GRID:
        assert cap_ub_point(eta, 1.0) == 0.0
    assert cap_ub_point(0.5, 2.0) == 0.0  # beyond threshold stays zero


def test_point_matches_substitution_oracle():
    assert cap_ub_point(0.9, 0.5) == pytest.approx(plob_bound(0.9, 0.5), rel=1e-12)
    for eta in ETA_GRID:
        for n_add in N_GRID:
            if n_add >= 1.0:
                continue
            assert cap_ub_point(eta, n_add) == pytest.approx(
                plob_bound(eta, n_add), rel=1e-10, abs=1e-14
            )


def test_point_rejects_eta_one():
    with pytest.raises(ValueError):
        cap_ub_point(1.0, 0.5)
    with pytest.raises(ValueError):
        cap_ub_point(-0.1, 0.5)
    with pytest.raises(ValueError):
        cap_ub_point(0.5, -0.1)


def test_point_monotone_in_both_arguments():
    etas = np.linspace(0.001, 0.999, 200)
    ns = np.linspace(0.0, 0.999, 200)
    for n_add in (0.0, 0.2, 0.7):
        values = cap_ub_grid(etas, np.full_like(etas, n_add))
        assert np.all(np.diff(values) >= -1e-12)
    for eta in (0.1, 0.5, 0.9):
        values = cap_ub_grid(np.full_like(ns, eta), ns)
        assert np.all(np.diff(values) <= 1e-12)


def test_closed_zero_at_unit_noise():
    assert cap_integrated_closed(ChannelSpec(0.5, 1.0, 1e4)) == 0.0
    assert cap_integrated_closed(ChannelSpec(0.5, 2.0, 1e4)) == 0.0


def test_closed_matches_quadrature_on_grid():
    for eta in ETA_GRID:
        for n_add in N_GRID:
            spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=22e3)
            closed = cap_integrated_closed(spec)
            quad = cap_integrated_quadrature(spec)
            assert closed == pytest.approx(quad, rel=1e-6), (eta, n_add)


def test_quadrature_against_external_integrator():
    # same defining integral, evaluated by an unrelated adaptive scheme
    scipy_integrate = pytest.importorskip("scipy.integrate")
    for eta, n_add in [(0.3, 0.2), (0.9, 0.5), (0.05, 0.0)]:
        spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1.0)
        val, _ = scipy_integrate.quad(
            lambda u: cap_ub_point(eta / (1.0 + u * u), n_add),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=400,
        )
        assert cap_integrated_quadrature(spec) == pytest.approx(2.0 * val, rel=1e-7)


def test_quadrature_zero_efficiency():
    assert cap_integrated_quadrature(ChannelSpec(0.0, 0.1, 1e3)) == 0.0


def test_closed_linear_in_bandwidth_and_duty():
    base = ChannelSpec(eta=0.4, n_add=0.3, bandwidth_hz=5e3, duty=0.5)
    ref = cap_integrated_closed(base)
    assert cap_integrated_closed(
        ChannelSpec(0.4, 0.3, 10e3, 0.5)
    ) == pytest.approx(2 * ref, rel=1e-14)
    assert cap_integrated_closed(
        ChannelSpec(0.4, 0.3, 5e3, 1.0)
    ) == pytest.approx(2 * ref, rel=1e-14)
    assert cap_integrated_quadrature(
        ChannelSpec(0.4, 0.3, 10e3, 0.5)
    ) == pytest.approx(2 * cap_integrated_quadrature(base), rel=1e-12)


def test_small_eta_values():
    assert cap_small_eta(0.0, 1.0) == pytest.approx(math.pi / LN2, rel=1e-14)
    theta = 8800.0
    assert cap_small_eta(0.0, theta) == pytest.approx(4.532 * theta, rel=1e-3)
    # eta = 0 gives throughput 0, a valid channel that carries nothing
    assert cap_small_eta(np.array([0.0, 0.5, 1.5]), 0.0).tolist() == [0.0, 0.0, 0.0]


def test_small_eta_limit_of_closed_form():
    # tiny eta at fixed throughput reproduces the linearised form
    for n_add in [0.0, 0.25, 0.81]:
        eta = 1e-6
        spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1e4)
        closed = cap_integrated_closed(spec)
        approx = cap_small_eta(n_add, spec.throughput_hz)
        assert approx == pytest.approx(closed, rel=1e-4)


def test_high_eta_limit_of_closed_form():
    # approaching unit transmissivity the closed form tends to
    # duty * 2 pi B / ln2 * (1 - sqrt(N))^2; verified against the
    # independent quadrature as well, since the square is easy to drop
    for n_add in [0.0, 0.25, 0.81]:
        spec = ChannelSpec(eta=1.0 - 1e-6, n_add=n_add, bandwidth_hz=1e3)
        closed = cap_integrated_closed(spec)
        limit = cap_integrated_high_eta_limit(n_add, 1e3)
        assert closed == pytest.approx(limit, rel=2e-3)
        assert cap_integrated_quadrature(spec) == pytest.approx(closed, rel=1e-6)
    spec = ChannelSpec(eta=1.0 - 1e-9, n_add=0.25, bandwidth_hz=1e3)
    assert cap_integrated_closed(spec) == pytest.approx(
        cap_integrated_high_eta_limit(0.25, 1e3), rel=1e-4
    )


def test_factor_of_two_sandwich():
    for eta in ETA_GRID:
        for n_add in N_GRID:
            spec = ChannelSpec(eta=eta, n_add=n_add, bandwidth_hz=1.0)
            closed = cap_integrated_closed(spec)
            small = cap_small_eta(n_add, spec.throughput_hz)
            assert small <= closed + 1e-12
            assert closed <= 2.0 * small + 1e-12


def test_channel_spec_throughput_and_flag():
    spec = ChannelSpec(eta=0.4, n_add=0.5, bandwidth_hz=22e3, duty=0.5)
    assert spec.throughput_hz == pytest.approx(4400.0)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(eta=1.0, n_add=0.0, bandwidth_hz=1.0)
    with pytest.raises(ValueError):
        ChannelSpec(eta=0.5, n_add=-0.1, bandwidth_hz=1.0)
    with pytest.raises(ValueError):
        ChannelSpec(eta=0.5, n_add=0.1, bandwidth_hz=0.0)


def test_contours_constant_level_and_scaling():
    lines = capacity_contours([1e3], (1e-2, 1e6), (1e-3, 0.999), n_samples=301)
    (line,) = lines
    assert line.throughput_hz.size > 0
    for theta, n_add in zip(line.throughput_hz, line.n_add):
        assert cap_small_eta(n_add, theta) == pytest.approx(1e3, rel=1e-3)
    # contour throughput scales as the inverse of the noise factor
    g = 1.0 - line.n_add + line.n_add * np.log(line.n_add)
    assert np.allclose(line.throughput_hz * g, line.throughput_hz[0] * g[0], rtol=1e-12)


def test_contour_zero_noise_crossing():
    # level C at N -> 0 sits at throughput = C ln2 / pi
    lines = capacity_contours([1e3], (1e-2, 1e6), (1e-9, 0.5), n_samples=2001)
    (line,) = lines
    assert line.throughput_hz[0] == pytest.approx(1e3 * LN2 / math.pi, rel=1e-6)


def test_contour_empty_above_range():
    lines = capacity_contours([1e12], (1e-2, 1e2), (1e-3, 0.999))
    assert lines[0].throughput_hz.size == 0


def test_contour_lines_share_one_grid_and_keep_a_mask():
    lines = capacity_contours([30.0, 1e12, 100.0], (60.0, 1e4), (1e-3, 0.999), n_samples=64)
    grid = lines[0].n_grid
    assert all(line.n_grid is grid for line in lines)
    for line in lines:
        expected = line.level / (math.pi * _small_eta_slope(grid))
        assert np.array_equal(line.theta, expected)
        assert np.array_equal(line.keep, (expected >= 60.0) & (expected <= 1e4))
        assert np.array_equal(line.throughput_hz, expected[line.keep])
        assert np.array_equal(line.n_add, grid[line.keep])
    assert lines[1].throughput_hz.size == 0 < lines[2].throughput_hz.size


def test_contours_reject_an_infinite_throughput_bound():
    with pytest.raises(ValueError, match="^throughput range must be finite$"):
        capacity_contours([1e308], (1.0, math.inf), n_samples=5)


@pytest.mark.parametrize("throughput_range_hz", [(1.0, 1e5), (1e307, 1.7976931348623157e308)])
def test_an_overflowing_contour_point_is_clipped_without_a_warning(throughput_range_hz):
    # 1e308 / (pi * slope) passes the largest float where the slope is small;
    # the suite turns the RuntimeWarning numpy would give into a failure
    (line,) = capacity_contours([1e308], throughput_range_hz, n_samples=512)
    assert np.isinf(line.theta).any()
    assert np.isfinite(line.throughput_hz).all()
    t_lo, t_hi = throughput_range_hz
    assert ((line.throughput_hz >= t_lo) & (line.throughput_hz <= t_hi)).all()
    if t_lo > 1.0:
        # the rows inside the range are the quotient itself
        assert line.throughput_hz.size > 0
        slope = _small_eta_slope(line.n_add)
        assert np.array_equal(line.throughput_hz, 1e308 / (math.pi * slope))
    else:
        assert line.throughput_hz.size == 0


def test_small_eta_rows_match_scalar_form():
    # n_add runs from 0 across 1, where the slope turns to zero; equal lists
    # of floats mean every cell of an array row matches the scalar call bit
    # for bit
    thetas = np.geomspace(0.5, 2e5, 7)
    n_values = np.linspace(0.0, 1.2, 301)
    for theta in thetas:
        row = cap_small_eta(n_values, theta)
        assert row.shape == n_values.shape
        assert row.tolist() == [float(cap_small_eta(n_add, theta)) for n_add in n_values]


@pytest.mark.parametrize("n_add", [1.0, 1.2, 1.5])
def test_small_eta_zero_without_quantum_capacity(n_add):
    # 1 - N + N ln N is positive again above N = 1, but the channel there
    # has no quantum capacity, as the point bound and the closed form say
    assert cap_ub_point(0.01, n_add) == 0.0
    assert cap_integrated_closed(ChannelSpec(0.01, n_add, 1.0)) == 0.0
    assert cap_small_eta(n_add, 1.0) == 0.0
    assert cap_small_eta(np.full(2, n_add), np.array([1.0, 10.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n_add", [math.nan, -1.0, -1e-300])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: cap_ub_point(0.4, n),
        lambda n: cap_ub_grid([0.1, 0.4], [0.5, n]),
        lambda n: cap_small_eta(n, 1.0),
        lambda n: cap_small_eta(np.array([0.5, n]), 1.0),
    ],
    ids=["cap_ub_point", "cap_ub_grid", "cap_small_eta", "cap_small_eta_array"],
)
def test_bad_n_add_is_rejected_by_name(call, n_add):
    with pytest.raises(ValueError, match="n_add"):
        call(n_add)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cap_ub_point(1.2, 0.5), "eta must be in [0, 1), got 1.2"),
        (lambda: cap_ub_point(0.4, -1.0), "n_add must be nonnegative, got -1.0"),
        (lambda: cap_ub_grid([0.1, 1.5, -2.0], 0.5), "eta must be in [0, 1), got 1.5"),
        (lambda: cap_ub_grid([[0.1], [math.nan]], [0.5, -1.0]), "eta must be in [0, 1), got nan"),
        (lambda: cap_ub_grid(0.5, [0.1, -3.0, -1.0]), "n_add must be nonnegative, got -3.0"),
        (lambda: cap_small_eta(np.array([0.1, math.nan]), 1.0), "n_add must be nonnegative, got nan"),
        (lambda: ChannelSpec(1.0, -1.0, 1.0), "eta must be in [0, 1), got 1.0"),
        (lambda: ChannelSpec(0.5, -1.0, 1.0), "n_add must be nonnegative, got -1.0"),
        (lambda: ChannelSpec(0.5, 0.1, math.inf), "bandwidth_hz must be positive and finite, got inf"),
        (lambda: ChannelSpec(0.5, 0.1, 0.0), "bandwidth_hz must be positive and finite, got 0.0"),
        (lambda: ChannelSpec(0.5, 0.1, math.nan), "bandwidth_hz must be positive and finite, got nan"),
        (lambda: cap_small_eta(0.5, -1.0), "throughput_hz must be nonnegative and finite, got -1.0"),
        (lambda: cap_small_eta(0.5, math.nan), "throughput_hz must be nonnegative and finite, got nan"),
        (lambda: cap_small_eta([0.1, 0.5], [[1.0], [math.inf]]),
         "throughput_hz must be nonnegative and finite, got inf"),
        (lambda: cap_small_eta(-1.0, -1.0), "n_add must be nonnegative, got -1.0"),
    ],
)
def test_domain_check_names_the_first_bad_value(call, message):
    # one check serves a point and a grid: eta first, then n_add, each
    # naming its first value outside the domain
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_closed_unit_conversion_anchor():
    # the 2 pi B prefactor is pinned by the small-eta limit: with B in Hz
    # the result must be in qubits/s, linear in throughput in Hz
    eta = 1e-7
    spec = ChannelSpec(eta=eta, n_add=0.0, bandwidth_hz=1.0)
    assert cap_integrated_closed(spec) == pytest.approx(
        math.pi * eta / LN2, rel=1e-6
    )
    assert TWO_PI == pytest.approx(2 * math.pi)


def _capacity_bound_reference(eta, n_add):
    """The bound as one fresh array per step, the formulation the in-place
    kernel must reproduce bit for bit.  Overflow, which a huge n_add gives
    before it is masked to zero, is silenced as in the kernel."""
    eta = np.asarray(eta, dtype=np.float64)
    n_add = np.asarray(n_add, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = eta * (1.0 - n_add)
        t1 = np.where(
            n_add > 0.0, eta * n_add * np.log(np.where(n_add > 0.0, n_add, 1.0)), 0.0
        )
        t2 = (1.0 - x) * np.log1p(np.minimum(-x, 0.0))
        value = (t1 - t2) / ((1.0 - eta) * LN2)
    value = np.where((n_add >= 1.0) | (eta <= 0.0), 0.0, value)
    value = np.where(eta >= 1.0, np.nan, value)
    return np.maximum(value, 0.0)


def _small_eta_slope_reference(n_add):
    n_add = np.asarray(n_add, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 - n_add + n_add * np.log(n_add)
    g = np.where(n_add == 0.0, 1.0, np.maximum(g, 0.0))
    return np.where(n_add >= 1.0, 0.0, g / LN2)


def _assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


# -0.0 passes the domain check
EDGE_ETA = [-0.0, 0.0, 5e-324, 1e-300, 1e-8, 0.5, 0.9, 1.0 - 2.0**-53]
EDGE_N = [-0.0, 0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.5, 1e300]


def test_capacity_kernel_matches_the_reference_bit_for_bit():
    grid_eta = np.linspace(0.0, 1.0 - 2.0**-53, 300)[:, None]
    grid_n = np.linspace(0.0, 1.5, 300)
    _assert_same_bits(_capacity_bound(grid_eta, grid_n), _capacity_bound_reference(grid_eta, grid_n))
    rng = np.random.default_rng(19)
    eta = rng.uniform(0.0, 1.0, 10**6)
    n_add = rng.uniform(0.0, 1.5, 10**6)
    _assert_same_bits(_capacity_bound(eta, n_add), _capacity_bound_reference(eta, n_add))
    edge_eta, edge_n = np.meshgrid(EDGE_ETA, EDGE_N)
    _assert_same_bits(_capacity_bound(edge_eta, edge_n), _capacity_bound_reference(edge_eta, edge_n))


def test_small_eta_slope_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(19)
    for n_add in (np.linspace(0.0, 1.5, 300), rng.uniform(0.0, 1.5, 10**6), np.array(EDGE_N)):
        _assert_same_bits(_small_eta_slope(n_add), _small_eta_slope_reference(n_add))


def test_kernels_give_a_float64_scalar_for_scalars():
    for n_add in EDGE_N:
        for eta in EDGE_ETA:
            value = _capacity_bound(eta, n_add)
            assert type(value) is np.float64
            _assert_same_bits(value, _capacity_bound_reference(eta, n_add))
            assert type(cap_ub_grid(eta, n_add)) is np.float64
        slope = _small_eta_slope(n_add)
        assert type(slope) is np.float64
        _assert_same_bits(slope, _small_eta_slope_reference(n_add))
        assert type(cap_small_eta(n_add, 1e3)) is np.float64


def test_capacity_grid_holds_at_most_two_grid_arrays():
    # a 1000x1000 float64 grid is 8 MB; the fresh-array formulation peaks
    # at five of them (41 MB)
    eta = np.linspace(0.0, 0.999, 1000)[:, None]
    n_add = np.linspace(0.0, 1.2, 1000)
    tracemalloc.start()
    try:
        values = cap_ub_grid(eta, n_add)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (1000, 1000)
    assert peak < 2.5 * values.nbytes
