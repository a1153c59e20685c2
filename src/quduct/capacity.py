"""Quantum-capacity upper bounds for a transducer channel.

The per-frequency bound treats the transducer as a bosonic thermal-loss
channel of transmissivity eta whose environment injects the
input-referred added noise; two-way classical assistance is allowed.
Integrating the bound across a Lorentzian efficiency profile of
half-width ``bandwidth_hz`` gives a rate in qubits/s.  The closed form,
an independent numerical quadrature of the same integral, and the
small-efficiency linearisation are all provided; the quadrature is the
correctness oracle for the closed form.

Unit convention for the integral: the frequency measure is ordinary
frequency in Hz, fixed by requiring that the small-efficiency limit
reduce to (pi * throughput / ln 2) * (1 - N + N ln N) with throughput
in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI

LN2 = math.log(2.0)

# Lineshape truncation for the quadrature: integrate out to where the
# efficiency has fallen to 1e-8 of its peak, then add the analytic tail.
_TRUNCATION_FRACTION = 1e-8


def _check_domain(eta=0.0, n_add=0.0, throughput_hz=0.0) -> None:
    """Fail naming the first eta outside [0, 1), then the first n_add below
    0, then the first throughput_hz that is negative or not finite.

    Takes floats or broadcastable arrays; nan fails for all three.
    """
    eta = np.asarray(eta, dtype=np.float64)
    n_add = np.asarray(n_add, dtype=np.float64)
    throughput_hz = np.asarray(throughput_hz, dtype=np.float64)
    for name, value, ok, domain in (
        ("eta", eta, (eta >= 0.0) & (eta < 1.0), "in [0, 1)"),
        ("n_add", n_add, n_add >= 0.0, "nonnegative"),
        ("throughput_hz", throughput_hz, (throughput_hz >= 0.0) & (throughput_hz < math.inf),
         "nonnegative and finite"),
    ):
        if not ok.all():
            raise ValueError(f"{name} must be {domain}, got {value[~ok].flat[0]}")


def _capacity_bound(eta, n_add):
    """Per-use capacity upper bound of a thermal-loss channel, elementwise.

    [eta * N * ln(N) - M * ln(M)] / ((1 - eta) ln 2) with
    M = 1 - eta(1 - N), zero for n_add >= 1 (no quantum capacity) and for
    eta <= 0, with the 0*log(0) = 0 convention and a floor at zero.
    ln(M) is evaluated as log1p(-eta(1-N)) so the bound stays accurate
    deep in the lineshape tails where M is within a few ulp of 1.

    Every step writes into one of two arrays of the broadcast shape, the
    result and one scratch array; the only other temporaries are the size
    of one input (1 - N and ln N at n_add's shape, masks at each input's).
    A scalar pair gives a float64 scalar.
    """
    eta = np.asarray(eta, dtype=np.float64)
    n_add = np.asarray(n_add, dtype=np.float64)
    value = np.empty(np.broadcast_shapes(eta.shape, n_add.shape))
    # only an n_add >= 1 can overflow, and its value is set to zero below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.multiply(eta, 1.0 - n_add, out=value)
        # t2 = (1 - x) * log1p(min(-x, 0)) in the scratch array
        t2 = np.negative(x, out=np.empty_like(x))
        np.minimum(t2, 0.0, out=t2)
        np.log1p(t2, out=t2)
        np.multiply(np.subtract(1.0, x, out=value), t2, out=t2)
        # t1 = eta * N * ln(N) with ln(0) taken as 0, so that 0 * ln(0) = 0
        t1 = np.multiply(eta, n_add, out=value)
        np.multiply(t1, np.log(n_add, out=np.zeros_like(n_add), where=n_add > 0.0), out=t1)
        np.subtract(t1, t2, out=value)
        scale = np.multiply(np.subtract(1.0, eta, out=t2), LN2, out=t2)
        np.divide(value, scale, out=value)
    np.copyto(value, 0.0, where=n_add >= 1.0)
    np.copyto(value, 0.0, where=eta <= 0.0)
    np.copyto(value, np.nan, where=eta >= 1.0)
    np.maximum(value, 0.0, out=value)
    return value if value.ndim else value[()]


@dataclass(frozen=True)
class ChannelSpec:
    """Flat-noise channel abstraction: peak efficiency, added noise,
    bandwidth (half-width of the efficiency Lorentzian, Hz), duty cycle."""

    eta: float
    n_add: float
    bandwidth_hz: float
    duty: float = 1.0

    def __post_init__(self):
        _check_domain(self.eta, self.n_add)
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ValueError(
                f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz}"
            )
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")

    @property
    def throughput_hz(self) -> float:
        return self.eta * self.bandwidth_hz * self.duty


def cap_ub_grid(eta, n_add) -> np.ndarray:
    """Capacity upper bound in qubits per use at one frequency, over floats or arrays.

    Zero for n_add >= 1.  eta = 1 is rejected; use
    :func:`cap_integrated_high_eta_limit` for the unit-transmissivity
    limit of the integrated rate.
    """
    _check_domain(eta, n_add)
    return _capacity_bound(eta, n_add)


def cap_ub_point(eta: float, n_add: float) -> float:
    """:func:`cap_ub_grid` at one point, as a float."""
    return float(cap_ub_grid(eta, n_add))


def _small_eta_slope(n_add):
    """(1 - N + N ln N) / ln 2 elementwise, the per-Hz capacity slope as eta -> 0.

    1 / ln 2 at N = 0; zero for N >= 1, where the channel has no quantum
    capacity.  n_add is not checked.  Evaluated in the output array and
    one scratch array of n_add's shape; a scalar gives a float64 scalar.
    """
    n_add = np.asarray(n_add, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) at N = 0
        g = np.log(n_add, out=np.empty_like(n_add))
        np.multiply(n_add, g, out=g)
        np.add(1.0 - n_add, g, out=g)
    np.maximum(g, 0.0, out=g)
    np.copyto(g, 1.0, where=n_add == 0.0)
    np.divide(g, LN2, out=g)
    np.copyto(g, 0.0, where=n_add >= 1.0)
    return g if g.ndim else g[()]


def cap_integrated_closed(spec: ChannelSpec) -> float:
    """Bandwidth-integrated capacity bound in qubits/s, closed form.

    Returns 0 for n_add >= 1.  Removable singularities at n_add -> 0 and
    eta -> 1 are taken analytically.
    """
    eta, n_add = spec.eta, spec.n_add
    if n_add >= 1.0 or eta <= 0.0:
        return 0.0
    if 1.0 - eta < 1e-14:
        return cap_integrated_high_eta_limit(n_add, spec.bandwidth_hz, spec.duty)
    s = math.sqrt(1.0 - eta)
    m = math.sqrt(1.0 - eta * (1.0 - n_add))
    bracket = 1.0 - m
    if n_add > 0.0:
        # N ln(sqrt(N) ...) -> 0 as N -> 0, so the N = 0 branch above is
        # the analytic limit rather than a special case.
        bracket += (eta * n_add / s) * math.log(
            math.sqrt(n_add) * (1.0 + s) / (s + m)
        )
    return spec.duty * TWO_PI * spec.bandwidth_hz / LN2 * bracket


def cap_integrated_high_eta_limit(
    n_add: float, bandwidth_hz: float, duty: float = 1.0
) -> float:
    """Unit-transmissivity limit of the integrated bound, qubits/s.

    Analytic eta -> 1 limit of :func:`cap_integrated_closed`:
    duty * 2 pi B / ln 2 * (1 - sqrt(N))^2.  The square is required for
    consistency with the small-eta form never undershooting by more than
    a factor of two; see the tests.
    """
    if n_add >= 1.0:
        return 0.0
    return duty * TWO_PI * bandwidth_hz / LN2 * (1.0 - math.sqrt(n_add)) ** 2


def cap_small_eta(n_add, throughput_hz):
    """Small-efficiency integrated bound, qubits/s, linear in throughput.

    (pi * throughput / ln 2) * (1 - N + N ln N) over floats or
    broadcastable arrays; the N = 0 value is pi * throughput / ln 2, and
    the rate is 0 for N >= 1.  A negative or nonfinite throughput fails.
    """
    _check_domain(n_add=n_add, throughput_hz=throughput_hz)
    return math.pi * throughput_hz * _small_eta_slope(n_add)


def cap_integrated_quadrature(spec: ChannelSpec) -> float:
    """Bandwidth-integrated capacity bound by numerical quadrature.

    Integrates the per-frequency bound across the Lorentzian efficiency
    profile directly, as a check on :func:`cap_integrated_closed` that
    shares no algebra with it.  The detuning axis is truncated where the
    efficiency falls below peak * 1e-8 and the remaining tail, where the
    bound is linear in the efficiency, is added analytically.  Composite
    Gauss-Legendre panels (on an arctangent-transformed axis, so the
    integrand stays smooth and bounded) are doubled until the result is
    stable to 1e-9 relative; raises RuntimeError if refinement fails to
    converge.
    """
    eta, n_add = spec.eta, spec.n_add
    if n_add >= 1.0 or eta <= 0.0:
        return 0.0

    # detuning in units of the half-width: u = f / B; eta(u) = eta / (1 + u^2).
    u_max = math.sqrt(1.0 / _TRUNCATION_FRACTION - 1.0)
    theta_max = math.atan(u_max)
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def _level(n_panels: int) -> float:
        edges = np.linspace(0.0, theta_max, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        theta = (mid[:, None] + half * nodes[None, :]).ravel()
        w = np.broadcast_to(half * weights[None, :], (n_panels, nodes.size)).ravel()
        cos2 = np.cos(theta) ** 2
        integrand = _capacity_bound(eta * cos2, n_add) / cos2
        return float(np.sum(w * integrand))

    panels = 8  # 256 nodes to start
    value = _level(panels)
    for _ in range(12):
        panels *= 2
        refined = _level(panels)
        converged = abs(refined - value) <= 1e-9 * abs(refined) + 1e-300
        value = refined
        if converged:
            break
    else:
        raise RuntimeError("quadrature panel refinement did not converge")

    tail = float(_small_eta_slope(n_add)) * eta * (0.5 * math.pi - theta_max)
    return spec.duty * spec.bandwidth_hz * 2.0 * (value + tail)


@dataclass(frozen=True)
class ContourLine:
    """One iso-capacity polyline in the (throughput, n_add) plane.

    ``n_grid`` is the n_add grid that every line of one
    :func:`capacity_contours` call shares, as one object; ``theta`` is the
    line's throughput at each grid point and ``keep`` marks the points
    inside the throughput range.  ``throughput_hz`` and ``n_add`` are the
    kept points.
    """

    level: float  # qubits/s
    theta: np.ndarray  # Hz
    n_grid: np.ndarray
    keep: np.ndarray

    @property
    def throughput_hz(self) -> np.ndarray:
        return self.theta[self.keep]

    @property
    def n_add(self) -> np.ndarray:
        return self.n_grid[self.keep]


def capacity_contours(
    levels,
    throughput_range_hz,
    n_add_range=(1e-3, 0.999),
    n_samples: int = 512,
) -> list:
    """Iso-rate contours of the small-efficiency bound.

    The small-efficiency form is invertible: along a contour of level C,
    throughput(N) = C * ln 2 / (pi * (1 - N + N ln N)), so each polyline
    is computed exactly rather than traced on a grid.  Points falling
    outside ``throughput_range_hz``, whose bounds must be finite, are
    clipped away; a level too high for the range yields an empty polyline.
    Every line holds the same ``n_grid`` object and its own ``keep`` mask,
    which need not be contiguous.
    """
    t_lo, t_hi = throughput_range_hz
    n_lo, n_hi = n_add_range
    if not 0 < t_lo < t_hi:
        raise ValueError("throughput range must be positive and increasing")
    if not t_hi < math.inf:
        raise ValueError("throughput range must be finite")
    if not (0.0 < n_lo < n_hi < 1.0):
        raise ValueError("n_add range must lie inside (0, 1)")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    n_grid = np.linspace(n_lo, n_hi, n_samples)
    slope = _small_eta_slope(n_grid)
    lines = []
    for level in levels:
        if not 0 < level < math.inf:
            raise ValueError(f"contour levels must be positive and finite, got {level}")
        # a throughput past the largest float is past the finite range too,
        # so its overflow to inf only clips it
        with np.errstate(over="ignore", divide="ignore"):
            theta = level / (math.pi * slope)
        lines.append(ContourLine(level, theta, n_grid, (theta >= t_lo) & (theta <= t_hi)))
    return lines
