"""Time-domain behaviour of Lorentzian and notched-Lorentzian output filters.

A fast input pulse (much shorter than the filter response time) exits
the filter as the filter's impulse response h(t), the inverse Fourier
transform of the amplitude transfer function H(f) = 1 / (1 + 2if/gamma),
with f measured from the filter center and gamma the linewidth, zeroed
inside every brick-wall notch.  Energies are normalised so the un-notched
filter transmits exactly one unit, which makes the spectral transmission
of the notched filter directly readable as an efficiency.

:func:`analyze_filter` reports from this continuous model, which
:mod:`quduct.notched` evaluates: sums of arctangents for the spectral
transmission and the pre-window energy, the un-notched e^-Gamma_T t in
closed form, and for the notches' part of the window energies a
quadrature in time of the response, whose band integrals are complex
exponential integrals at the notch edges.

Brick-wall notches make the response non-causal; energy appearing at
negative times is reported separately as pre-window energy rather than
folded into any efficiency.

:func:`impulse_response` samples the same response on a DFT grid, for
the time-domain trace only.
"""

from __future__ import annotations

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


def check_t_rep(t_rep_s: float) -> None:
    """Fail naming ``t_rep_s`` unless it is a positive, finite repetition time."""
    if not 0.0 < t_rep_s < math.inf:  # written so that nan fails
        raise ValueError(f"repetition time t_rep_s must be positive and finite, got {t_rep_s}")


def analyze_filter(spec: FilterSpec, t_rep_s: float | None = None) -> FilterReport:
    """Spectral, temporal, and leakage figures of ``spec`` at ``t_rep_s``,
    by default 3 / Gamma_T, from the continuous model.

    Window bookkeeping is exact: in-window energy + tail energy +
    pre-window energy = total notched energy, with the tail summed over
    every later repetition window.  The un-notched e^-Gamma_T t enters
    each field in closed form, so without notches eta_temporal is
    1 - exp(-Gamma_T t_rep) to rounding; :func:`quduct.notched.window_parts`
    adds what the notches change.
    """
    from . import notched  # compiled only where a filter is reported

    if t_rep_s is None:
        t_rep_s = PRESET_T_REP_MULTIPLE / spec.gamma_t
    check_t_rep(t_rep_s)
    lower, upper = notched.notch_edges(spec)
    share = notched.notched_share(lower, upper)
    eta_notch = 1.0 - share
    if eta_notch <= 0.0:
        return FilterReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, t_rep_s)
    x = spec.gamma_t * t_rep_s
    inside, after, first = notched.window_parts(lower, upper, share, x)
    eta_temporal = (-math.expm1(-x) + inside) / eta_notch
    return FilterReport(
        eta_notch=eta_notch,
        eta_temporal=eta_temporal,
        eta_total=eta_notch * eta_temporal,
        tail_noise_photons=math.exp(-x) + after,
        tail_first_window_photons=math.exp(-x) * -math.expm1(-x) + first,
        pre_window_energy=notched.pre_window(share),
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
    from . import notched

    lo, hi = 0.05, 10.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        spec = scaled_preset_spec(mid)  # centred at 0
        eta_notch = 1.0 - notched.notched_share(*notched.notch_edges(spec))
        if abs(eta_notch - PRESET_ETA_NOTCH) <= PRESET_TOLERANCE:
            return spec
        if eta_notch > PRESET_ETA_NOTCH:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("preset width tuning did not converge")
