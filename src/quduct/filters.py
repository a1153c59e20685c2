"""Time-domain behaviour of Lorentzian and notched-Lorentzian output filters.

A fast input pulse (much shorter than the filter response time) exits
the filter as the filter's impulse response h(t), the inverse Fourier
transform of the amplitude transfer function H(f) = 1 / (1 + 2if/gamma),
with f measured from the filter center and gamma the linewidth, zeroed
inside every brick-wall notch.  Energies are normalised so the un-notched
filter transmits exactly one unit, which makes the spectral transmission
of the notched filter directly readable as an efficiency.

:func:`analyze_filter` reports from this continuous model.  In units of
half a linewidth from the filter center, x = 2f/gamma, and of
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

Brick-wall notches make the response non-causal; energy appearing at
negative times is reported separately as pre-window energy rather than
folded into any efficiency.

:func:`impulse_response` samples the same response on a DFT grid, for
the time-domain trace only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectra import ExclusionBands

MIN_SPAN_LINEWIDTHS = 50.0
MIN_POINTS = 2**14
MIN_NOTCH_SAMPLES = 16

# Reproduction preset: linewidth and notch geometry for the published
# notched-filter example.  The notch band edges are read from a figure,
# not tabulated, so the preset pins the spectral transmission to the
# published 0.94 by rescaling the two widths with a single scalar and
# lets everything else follow.
PRESET_LINEWIDTH_HZ = 21.7e3
PRESET_NOTCH_GEOMETRY = ((5.0e3, 1.2e3), (-9.0e3, 0.8e3))  # (center offset, width) Hz
PRESET_ETA_NOTCH = 0.940
PRESET_TOLERANCE = 2e-4
PRESET_T_REP_MULTIPLE = 3.0

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


@dataclass(frozen=True)
class FilterSpec:
    """Lorentzian filter: FWHM of the power transmission, its center,
    and brick-wall notches given as absolute (low_hz, high_hz) bands."""

    linewidth_hz: float
    center_hz: float = 0.0
    notches: tuple = ()

    def __post_init__(self):
        # written so that nan fails
        if not 0.0 < self.linewidth_hz < math.inf:
            raise ValueError(f"linewidth_hz must be positive and finite, got {self.linewidth_hz}")
        if not math.isfinite(self.center_hz):
            raise ValueError(f"center_hz must be finite, got {self.center_hz}")
        object.__setattr__(
            self, "notches", tuple(ExclusionBands(self.notches).bands)
        )

    @property
    def gamma_t(self) -> float:
        """Total damping rate in rad/s implied by the linewidth."""
        return 2.0 * math.pi * self.linewidth_hz


@dataclass(frozen=True)
class ImpulseResponse:
    """Normalised time-domain energy of the filter response.

    ``times_s`` ascend from negative to positive times around zero;
    ``energy`` holds the per-bin energy in units where the un-notched
    filter totals one; ``energy_density`` is energy / dt.
    """

    times_s: np.ndarray
    energy: np.ndarray
    dt_s: float

    @property
    def energy_density(self) -> np.ndarray:
        return self.energy / self.dt_s


@dataclass(frozen=True)
class FilterReport:
    """Efficiencies and leakage of one filter at one repetition time.

    eta_total = eta_notch * eta_temporal exactly.  ``tail_noise_photons``
    is the summed energy from all prior unit pulses leaking into the
    current repetition window; ``tail_first_window_photons`` is the
    contribution of the single most recent prior pulse.
    """

    eta_notch: float
    eta_temporal: float
    eta_total: float
    tail_noise_photons: float
    tail_first_window_photons: float
    pre_window_energy: float
    t_rep_s: float


def check_trace_grid(spec: FilterSpec, span_hz: float | None = None,
                     n_points: int = 2**20) -> float:
    """The span in Hz of the :func:`impulse_response` grid, 300 linewidths
    by default, after every check that grid needs.

    The span must be finite and cover at least 50 linewidths, ``n_points``
    must be a power of two of at least 2**14, every notch must lie inside
    the span and hold at least 16 grid points, and the response must have
    decayed within the DFT window T = n_points / span: with
    aT = Gamma_T T, the periodised exp(-Gamma_T t) puts
    (exp(-0.49 aT) - exp(-0.51 aT)) / (1 - exp(-aT)) of its energy within
    0.01 T of |t| = T/2, rejected above 1e-6; an inverse DFT's share
    decides alike over 50 to 2e5 linewidths at 2**14 to 2**18 points, and
    agrees within 1.3e-3 where it is at least 1e-9.  Nothing is allocated.
    """
    span = 300.0 * spec.linewidth_hz if span_hz is None else float(span_hz)
    if not math.isfinite(span):
        raise ValueError(f"span_hz must be finite, got {span}")
    if span < MIN_SPAN_LINEWIDTHS * spec.linewidth_hz:
        raise ValueError(f"span {span:.4g} Hz is below {MIN_SPAN_LINEWIDTHS} linewidths")
    if n_points < MIN_POINTS or (n_points & (n_points - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= {MIN_POINTS}")
    df = span / n_points
    for low, high in spec.notches:
        lo, hi = low - spec.center_hz, high - spec.center_hz
        if lo < -span / 2.0 or hi > span / 2.0:
            raise ValueError(f"notch ({low}, {high}) Hz lies outside the span")
        if (hi - lo) / df < MIN_NOTCH_SAMPLES:
            raise ValueError(
                f"notch ({low}, {high}) Hz spans fewer than "
                f"{MIN_NOTCH_SAMPLES} grid points; raise n_points or shrink the span"
            )
    a_t = spec.gamma_t * n_points / span
    if (math.exp(-0.49 * a_t) - math.exp(-0.51 * a_t)) / -math.expm1(-a_t) > 1e-6:
        raise ValueError("response has not decayed within the DFT window; "
                         "increase span or n_points")
    return span


def _notch_bins(spec: FilterSpec, span: float, n_points: int) -> list:
    """Where each notch of ``spec`` falls on the ascending grid of :func:`impulse_response`.

    One ``(first, covered)`` pair per notch: ``covered[i]`` is the
    fraction of bin ``first + i`` inside the notch, and every bin outside
    that run is untouched.
    """
    df = span / n_points
    bins = []
    for low, high in spec.notches:
        lo, hi = low - spec.center_hz, high - spec.center_hz
        # the run has one spare bin at each end, whose coverage clips to 0
        first = max(math.floor(lo / df - 0.5) - 1 + n_points // 2, 0)
        stop = min(math.ceil(hi / df + 0.5) + 2 + n_points // 2, n_points)
        f = (np.arange(first, stop) - n_points // 2) * df
        # each bin carries the energy of [f - df/2, f + df/2); edge bins are
        # attenuated by their uncovered fraction so the discretised notch is
        # unbiased in the edge positions and stable under grid refinement
        covered = (np.minimum(f + 0.5 * df, hi) - np.maximum(f - 0.5 * df, lo)) / df
        bins.append((first, np.clip(covered, 0.0, 1.0)))
    return bins


def impulse_response(
    spec: FilterSpec, span_hz: float | None = None, n_points: int = 2**20
) -> ImpulseResponse:
    """Inverse-DFT the (possibly notched) amplitude transfer function.

    The amplitude response is a complex one-pole Lorentzian whose power
    FWHM is ``spec.linewidth_hz``, zeroed inside every notch, after the
    checks of :func:`check_trace_grid`.  The grid truncates the spectrum to
    the span and samples the notch edges.  Measured against
    :func:`analyze_filter` at t_rep = 3 / Gamma_T, with the window sums
    taken from the trace, the default 300 linewidths at 2**20 points put the
    un-notched in-window energy 2.0e-4 low, its tail 1.1e-4 high and 9.0e-5
    of its energy at negative times; on the tuned preset eta_notch is
    1.3e-4 low, the in-window energy 2.3e-4 low and the tail 8.5e-5 high.
    Every field lies within 2.4e-4 of the report, and doubling n_points
    does not shrink that error, which the span sets.

    One inverse DFT, in place on a DFT-order buffer, gives the notched
    response, divided by the un-notched energy by Parseval's theorem,
    sum |h_f|^2 / n_points (within 3e-15 of an inverse DFT's sum at 2**14
    to 2**20 points).  The memory peak is the buffer plus numpy's FFT plan
    and scratch, 16 + 32 MB at 2**20 points.
    """
    span = check_trace_grid(spec, span_hz, n_points)
    notch_bins = _notch_bins(spec, span, n_points)
    # detuning of each DFT-order bin from the filter center, and the complex
    # one-pole Lorentzian on it; the carrier phase is irrelevant to |h|^2
    f = np.fft.ifftshift(np.arange(n_points) - n_points // 2) * (span / n_points)
    spectrum = np.multiply(1j, f)
    spectrum /= spec.linewidth_hz / 2.0
    np.add(1.0, spectrum, out=spectrum)
    np.divide(1.0, spectrum, out=spectrum)
    # sample the response at half-sample offsets (k + 1/2) dt so the causal
    # jump at t = 0 falls on a bin boundary instead of inside a bin; the
    # phase factor shifts the time grid and leaves all energies unchanged
    half_shift = np.multiply(1j * np.pi, f)
    half_shift /= span
    spectrum *= np.exp(half_shift, out=half_shift)
    del f, half_shift
    norm = np.vdot(spectrum, spectrum).real / n_points
    for first, covered in notch_bins:  # natural bin i is DFT bin (i - n/2) mod n
        bins = (np.arange(first, first + covered.size) - n_points // 2) % n_points
        spectrum[bins] *= np.sqrt(1.0 - covered)
    energy = np.abs(np.fft.ifft(spectrum, out=spectrum))
    del spectrum  # |h|^2 takes one float buffer once the complex one is freed
    energy **= 2
    energy /= norm
    dt = 1.0 / span
    times = (np.arange(n_points) - n_points // 2 + 0.5) * dt
    # DFT order puts negative times second; the shift sorts them first
    return ImpulseResponse(times_s=times, energy=np.fft.fftshift(energy), dt_s=dt)


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


def analyze_filter(spec: FilterSpec, t_rep_s: float | None = None) -> FilterReport:
    """Spectral, temporal, and leakage figures of ``spec`` at ``t_rep_s``,
    by default 3 / Gamma_T, from the continuous model.

    Window bookkeeping is exact: in-window energy + tail energy +
    pre-window energy = total notched energy, with the tail summed over
    every later repetition window.  The un-notched e^-Gamma_T t enters
    each field in closed form, so without notches eta_temporal is
    1 - exp(-Gamma_T t_rep) to rounding; :func:`window_parts` adds what
    the notches change.
    """
    if t_rep_s is None:
        t_rep_s = PRESET_T_REP_MULTIPLE / spec.gamma_t
    if not 0.0 < t_rep_s < math.inf:  # written so that nan fails
        raise ValueError(f"repetition time t_rep_s must be positive and finite, got {t_rep_s}")
    lower, upper = notch_edges(spec)
    share = notched_share(lower, upper)
    eta_notch = 1.0 - share
    if eta_notch <= 0.0:
        return FilterReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, t_rep_s)
    x = spec.gamma_t * t_rep_s
    inside, after, first = window_parts(lower, upper, share, x)
    eta_temporal = (-math.expm1(-x) + inside) / eta_notch
    return FilterReport(
        eta_notch=eta_notch,
        eta_temporal=eta_temporal,
        eta_total=eta_notch * eta_temporal,
        tail_noise_photons=math.exp(-x) + after,
        tail_first_window_photons=math.exp(-x) * -math.expm1(-x) + first,
        pre_window_energy=pre_window(share),
        t_rep_s=t_rep_s,
    )


def scaled_preset_spec(width_scale: float) -> FilterSpec:
    """Preset filter, centred at 0, with both notch widths multiplied by
    ``width_scale``."""
    notches = []
    for offset, width in PRESET_NOTCH_GEOMETRY:
        half = 0.5 * width * width_scale
        notches.append((offset - half, offset + half))
    return FilterSpec(linewidth_hz=PRESET_LINEWIDTH_HZ, notches=tuple(notches))


def tuned_preset() -> FilterSpec:
    """Auto-tune the preset notch widths so eta_notch is within
    :data:`PRESET_TOLERANCE` of :data:`PRESET_ETA_NOTCH`.

    Bisection on the single width-rescale scalar; eta_notch decreases
    monotonically as the notches widen, so the root is bracketed by
    construction.  Each step takes eta_notch as :func:`analyze_filter`
    reports it, the share of the Lorentzian power that the notches leave.
    """
    lo, hi = 0.05, 10.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        spec = scaled_preset_spec(mid)  # centred at 0
        eta_notch = 1.0 - notched_share(*notch_edges(spec))
        if abs(eta_notch - PRESET_ETA_NOTCH) <= PRESET_TOLERANCE:
            return spec
        if eta_notch > PRESET_ETA_NOTCH:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("preset width tuning did not converge")
