"""The continuous notched-Lorentzian model behind :func:`quduct.filters.analyze_filter`.

In units of half a linewidth from the filter center, x = 2f/gamma, and of
tau = pi gamma t = Gamma_T t / 2, the impulse response is gamma/2 times
2 pi e^-tau (tau > 0) minus N(tau), the sum over the notches (a, b) of
the band integrals int_a^b e^(i x tau) / (1 + ix) dx, and a unit of
energy (the un-notched filter's total) is 1 / (2 pi^2) of |.|^2 dtau.

Each band integral is the difference of F(x) = i e^-tau E1(-tau (1 + ix))
between its edges, plus 2 pi e^-tau where the band crosses x = 0 and E1
its branch cut.  A complex E1 (power series near the cut or the origin,
continued fraction or asymptotic series elsewhere) gives the edges' part
of N(tau) at a cost of one E1 per edge; up to tau = FAR_TAU its square is
integrated by Gauss-Legendre panels in tau as fine as the edges' spread,
and its product with e^-tau in closed form.  Past FAR_TAU, where e^-tau
is below rounding, each edge's 1/tau series stands in for E1 and the tail
is a sum over pairs of edges.  The spectral transmission and the
pre-window energy are sums of arctangents.

Only the filter report imports this module, so no other subcommand pays
for compiling it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The report's quadrature.  Panels in tau turn e^(i (x_e - x_f) tau)
# through at most PANEL_PHASE radians for every pair of edges; 16
# Gauss-Legendre nodes integrate e^(i theta) over 12 radians within 6e-16,
# and the oracle errors read the same at 6.  Past FAR_TAU the e^-tau terms
# are below rounding and every edge's 1/tau series converges to rounding
# within SERIES_TERMS terms; a pair of edges oscillating as
# e^(i (x_e - x_f) tau) is summed by parts once |x_e - x_f| tau reaches
# BY_PARTS, twice the highest power of 1/tau in the pair's series.
GAUSS_NODES = 16
PANEL_PHASE = 12.0
FAR_TAU = 40.0
SERIES_TERMS = 40
BY_PARTS = 4.0 * (SERIES_TERMS + 1)
# E1(z): the power series where |z| + Re z <= SECTOR, the asymptotic
# series where |z| >= FAR_TAU, and a continued fraction FRACTION_DEPTH
# deep in between agree with mpmath within 3e-15 relative for |z| < 80.
SECTOR = 2.5
FRACTION_DEPTH = 90
# complex elements in one block of the tau-by-edge arrays
BLOCK = 4096


def notch_edges(spec):
    """Lower and upper edges of the notches in half linewidths from the center."""
    bands = np.array(spec.notches, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (bands - spec.center_hz) / (0.5 * spec.linewidth_hz)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"notch edges must lie a finite number of linewidths from "
                         f"the center, got {spec.notches} Hz")
    return x[:, 0], x[:, 1]


def notched_share(lower, upper) -> float:
    """Share of the Lorentzian power 1 / (1 + x^2) inside the notches,
    sum (atan upper - atan lower) / pi, each difference taken as one atan2."""
    return float(np.sum(np.arctan2(upper - lower, 1.0 + lower * upper))) / math.pi


def pre_window(share: float) -> float:
    """Energy at negative times, share (1 - share) / 2, in closed form.

    Plancherel's theorem on the anti-causal part of the response gives
    (1/pi) int |G(x)|^2 dx, with (1 + ix) G(x) = (chi(x) - share) / 2
    - i L(x) / (2 pi), chi the notch indicator and L(x) the sum over notches
    of ln |(upper - x) / (lower - x)| - ln |(1 + i upper) / (1 + i lower)|.
    With x = tan(theta), L is sum ln |sin(theta_upper - theta) /
    sin(theta_lower - theta)|, whose Fourier series and
    sum cos(n psi) / n^2 = pi^2 / 6 - pi psi / 2 + psi^2 / 4 on [0, 2 pi]
    give share / 4 - share^2 / 2 - sum s_e s_f |theta_e - theta_f| / (8 pi),
    s = +1 on lower and -1 on upper edges.  The notches are disjoint, so
    between consecutive edges the partial sum of s is 1 inside a notch and 0
    outside, and the double sum is -2 pi share.
    """
    return 0.5 * share * (1.0 - share)


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the GAUSS_NODES-point Gauss-Legendre rule on [-1, 1]."""
    n = GAUSS_NODES
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):  # Newton on P_n from the asymptotic roots; 4 steps reach rounding
        p, q = x, np.ones(n)
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        slope = n * (x * p - q) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope**2)


def _panels(bounds, nodes, weights):
    """Gauss-Legendre nodes and weights over consecutive panels [bounds[i], bounds[i + 1]]."""
    half = 0.5 * np.diff(bounds)
    middle = bounds[:-1] + half
    return (middle[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def _e1(z, arg):
    """E1(z) where |z| + Re z <= SECTOR and |z| < FAR_TAU, by its power
    series with ln z = ln |z| + i ``arg``, whose terms outgrow the sum there
    by at most e^SECTOR; e^z E1(z) elsewhere, by the asymptotic series
    where |z| >= FAR_TAU and the continued fraction between.  Returns the
    power series' mask and the values."""
    size = np.abs(z)
    series = (size + z.real <= SECTOR) & (size < FAR_TAU)
    far = ~series & (size >= FAR_TAU)
    fraction = ~series & ~far
    out = np.empty_like(z)
    if series.any():
        near = z[series]
        term, total = np.ones_like(near), np.zeros_like(near)
        for k in range(1, math.ceil(3.0 * size[series].max()) + 25):
            term *= -near / k
            total += term / k
        out[series] = -np.euler_gamma - np.log(size[series]) - 1j * arg[series] - total
    if far.any():
        inverse = 1.0 / z[far]
        scaled = np.ones_like(inverse)  # sum (-1)^k k! / z^k
        for k in range(SERIES_TERMS, 0, -1):
            scaled = 1.0 - k * inverse * scaled
        out[far] = scaled * inverse
    if fraction.any():
        middle = z[fraction]
        scaled = middle + (2 * FRACTION_DEPTH + 1)  # z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))
        for k in range(FRACTION_DEPTH, 0, -1):
            scaled = middle + (2 * k - 1) - k * k / scaled
        out[fraction] = 1.0 / scaled
    return series, out


def _edge_integrals(x, tau):
    """F = i e^-tau E1(-tau (1 + ix)) for every tau (rows) and edge x (columns).

    E1 takes its principal branch, continued onto the cut from x < 0, so
    F(b) - F(a) is the band integral over (a, b) less 2 pi e^-tau when
    a <= 0 < b.  Where E1 grows as e^tau, F is formed as i e^(ix tau) times
    the bounded e^z E1(z).
    """
    tau, x = np.broadcast_arrays(tau[:, None], x[None, :])
    series, e1 = _e1(-tau * (1.0 + 1j * x), np.arctan(x) + np.where(x > 0.0, -math.pi, math.pi))
    return 1j * np.where(series, np.exp(-tau), np.exp(1j * x * tau)) * e1


def _pole_integrals(x, tau):
    """V = i E1(tau (1 - ix)) / 2 - e^-tau F / 2 for every tau (rows) and
    edge x (columns), whose difference between two times is the integral
    of e^-t F between them."""
    z = tau[:, None] * (1.0 - 1j * x)
    series, e1 = _e1(z, np.broadcast_to(-np.arctan(x), z.shape))
    e1 = np.where(series, e1, np.exp(-z) * e1)
    return 0.5j * e1 - 0.5 * np.exp(-tau)[:, None] * _edge_integrals(x, tau)


def _notch_energies(x, sign, jumps, share, bounds):
    """What the notches add to the energy between consecutive ``bounds``,
    the first of them 0.

    With N_e = sum s_e F_e the edges' part of the band integrals, that is
    (1 / 2 pi^2) int |N_e|^2 and, as the center lies outside the notches
    or in one, -(2 / pi) Re int e^-tau N_e or -int 2 e^-2tau: the first by
    Gauss-Legendre panels in tau, which |N_e|^2 needs only as fine as the
    edges' spread (it holds no frequency beyond it), a block of panels at a
    time; the others in closed form, sum s_e V_e turning to -pi share at 0.
    """
    spread = x.max() - x.min()
    per_block = max(1, BLOCK // (GAUSS_NODES * x.size))
    nodes, weights = _gauss_legendre()
    squared = np.zeros(len(bounds) - 1)
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        count = max(1, math.ceil((stop - start) * spread / PANEL_PHASE))
        for first in range(0, count, per_block):
            k = np.arange(first, min(first + per_block, count) + 1)
            t, w = _panels(start + (stop - start) * (k / count), nodes, weights)
            n = _edge_integrals(x, t) @ sign
            squared[i] += w @ (n.real**2 + n.imag**2)
    squared /= 2.0 * math.pi**2
    if jumps:
        return squared + np.diff(np.exp(-2.0 * np.array(bounds)))
    pole = np.concatenate([[-math.pi * share], (_pole_integrals(x, np.array(bounds[1:])) @ sign).real])
    return squared - 2.0 / math.pi * np.diff(pole)


def _edge_series(x):
    """c[e, k] = k! / (1 + i x_e)^(k + 1): edge e adds
    sign_e e^(i x_e t) (-i) sum_k c[e, k] t^-(k + 1) to the band integrals at t."""
    steps = np.concatenate(([1.0], np.arange(1.0, SERIES_TERMS + 1)))
    return np.cumprod(steps / (1.0 + 1j * x)[:, None], axis=1)


def _power_sum(coefficients, t):
    """sum_m coefficients[m] t^-(m + 2) for an array of t, by Horner's rule in 1/t."""
    r = 1.0 / t
    total = np.zeros_like(r, dtype=complex)
    for c in coefficients[::-1]:
        total = total * r + c
    return total * r * r


def _head(g, delta: float, tau: float, stop: float) -> complex:
    """int from tau to stop of e^(i delta t) sum_m g[m] t^-(m + 2) dt by
    Gauss-Legendre panels, each at most doubling t and PANEL_PHASE radians long."""
    bounds = [tau]
    while bounds[-1] < stop:
        bounds.append(min(2.0 * bounds[-1], bounds[-1] + PANEL_PHASE / abs(delta), stop))
    t, w = _panels(np.array(bounds), *_gauss_legendre())
    return complex(w @ (np.exp(1j * delta * t) * _power_sum(g, t)))


def _pair_tails(g, delta, tau: float):
    """int from tau to inf of e^(i delta_p t) sum_m g[p, m] t^-(m + 2) dt for
    every pair p, tau >= FAR_TAU.

    Gauss-Legendre panels up to |delta| t = BY_PARTS, then the series by parts,
    -e^(i delta t) / (i delta) sum_m g[m] t^-(m + 2) sum_n (m + 2)_n (i delta t)^-n.
    """
    with np.errstate(divide="ignore"):
        start = np.where(delta == 0.0, tau, np.maximum(tau, BY_PARTS / np.abs(delta)))
    tails = np.zeros(delta.size, dtype=complex)
    for p in np.flatnonzero(start > tau):
        tails[p] = _head(g[p], delta[p], tau, start[p])
    power = np.arange(2, g.shape[1] + 2)
    scaled = g * start[:, None] ** -power.astype(float)
    still = delta == 0.0
    tails[still] += np.sum(scaled[still] * start[still, None] / (power - 1.0), axis=1)
    moving = ~still & np.isfinite(delta * start)  # past that the rest is below the smallest float
    if moving.any():
        turn = 1j * delta[moving] * start[moving]
        rising = np.ones((turn.size, power.size), dtype=complex)
        for n in range(SERIES_TERMS - 1, -1, -1):
            rising = 1.0 + (power + n) / turn[:, None] * rising
        tails[moving] -= (np.exp(turn) / (1j * delta[moving])
                          * np.sum(scaled[moving] * rising, axis=1))
    return tails


def _far_tail(x, sign, tau: float) -> float:
    """Energy after tau >= FAR_TAU, (1 / 2 pi^2) int_tau^inf |N(t)|^2 dt.

    Each edge contributes its 1/t series to N, so |N|^2 is a sum over
    pairs of edges of e^(i (x_e - x_f) t) times a power series in 1/t;
    the pairs of one edge are summed together.
    """
    if math.isinf(tau):
        return 0.0
    c = _edge_series(x)
    total = 0.0
    for e in range(x.size):
        series = np.zeros((x.size - e, 2 * SERIES_TERMS + 1), dtype=complex)
        for k in range(SERIES_TERMS + 1):  # c[e] convolved with each conj(c[f]), f >= e
            series[:, k:k + SERIES_TERMS + 1] += c[e, k] * c[e:].conj()
        weight = 2.0 * sign[e] * sign[e:]
        weight[0] = 1.0
        total += float(weight @ _pair_tails(series, x[e] - x[e:], tau).real)
    return total / (2.0 * math.pi**2)


def window_parts(lower, upper, share: float, x: float):
    """What the notches add to the energy in the window (0, t_rep], to the
    tail after it and to the first window after it, (t_rep, 2 t_rep], with
    x = Gamma_T t_rep: the report's figures less the un-notched
    -expm1(-x), e^-x and e^-x (-expm1(-x)).

    Up to FAR_TAU the window and the first window after it are integrated
    and the tail is what the window leaves; past it the tails are summed
    and the window is what they leave.
    """
    if lower.size == 0:
        return 0.0, 0.0, 0.0
    edges = np.concatenate([lower, upper])
    sign = np.concatenate([-np.ones(lower.size), np.ones(upper.size)])
    # the band integral less the F difference: 2 pi e^-tau per band across x = 0
    jumps = float(np.sum(upper > 0.0) - np.sum(lower > 0.0))
    rest = -share - pre_window(share)
    tau = 0.5 * x
    if tau <= FAR_TAU:
        inside, first = _notch_energies(edges, sign, jumps, share, [0.0, tau, 2.0 * tau])
        return float(inside), float(rest - inside), float(first)
    after = _far_tail(edges, sign, tau)
    return rest - after, after, after - _far_tail(edges, sign, 2.0 * tau)
