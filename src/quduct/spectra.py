"""Frequency-dependent efficiency, synthetic noise spectra, Lorentzian
fitting with exclusion bands, and band-averaged added noise.

Lineshape convention: the efficiency Lorentzian is written
eta(f) = eta_peak / (1 + ((f - f_center) / B)^2), so the ``bandwidth``
knob B is the half-width at half-maximum in Hz.  The integrated-capacity
closed form assumes exactly this parametrisation, so consistency with it
beats the more common FWHM convention.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .registry import write_csv

KIND_EFFICIENCY = "efficiency"
KIND_OUTPUT_NOISE = "output_noise"
KIND_INPUT_REFERRED = "input_referred_noise"

# Points where the efficiency falls below peak * this fraction are masked
# out of input referral instead of being divided by.
DEFAULT_MASK_FRACTION = 1e-3


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid in Hz."""

    start_hz: float
    stop_hz: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.stop_hz > self.start_hz:
            raise ValueError("grid must be strictly increasing")

    @property
    def spacing_hz(self) -> float:
        return (self.stop_hz - self.start_hz) / (self.n_points - 1)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start_hz, self.stop_hz, self.n_points)


@dataclass(frozen=True)
class Spectrum:
    """Values on a frequency grid, with an optional validity mask.

    ``mask`` is True where a point is valid; None means all points are
    valid.  Values must be finite on valid points.
    """

    grid: FrequencyGrid
    values: np.ndarray
    kind: str
    mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values length does not match the grid")
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            object.__setattr__(self, "mask", mask)
            if mask.shape != values.shape:
                raise ValueError("mask length does not match the grid")
        valid = values if self.mask is None else values[self.mask]
        if valid.size and not np.all(np.isfinite(valid)):
            raise ValueError("spectrum has nonfinite values at valid points")

    def valid_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.n_points, dtype=bool)
        return self.mask


class ExclusionBands:
    """Non-overlapping set of (low_hz, high_hz) intervals to exclude."""

    def __init__(self, bands=()):
        cleaned = []
        for low, high in bands:
            if not high > low:
                raise ValueError(f"band must have low < high, got ({low}, {high})")
            cleaned.append((float(low), float(high)))
        cleaned.sort()
        merged = []
        for low, high in cleaned:
            if merged and low <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], high))
            else:
                merged.append((low, high))
        self.bands = tuple(merged)

    def __iter__(self):
        return iter(self.bands)

    def __len__(self):
        return len(self.bands)

    def excluded(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Boolean array, True where a frequency falls inside any band."""
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        out = np.zeros(freqs_hz.shape, dtype=bool)
        for low, high in self.bands:
            out |= (freqs_hz >= low) & (freqs_hz <= high)
        return out


@dataclass(frozen=True)
class LorentzComponent:
    """One signed Lorentzian line for spectrum synthesis.

    Give either ``height`` (peak value) or ``area`` (integral of the
    unit-sign line).  ``sign`` -1 models an interference dip.
    """

    center_hz: float
    fwhm_hz: float
    height: float | None = None
    area: float | None = None
    sign: int = 1

    def __post_init__(self):
        if self.fwhm_hz <= 0:
            raise ValueError("component width must be positive")
        if (self.height is None) == (self.area is None):
            raise ValueError("give exactly one of height or area")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def peak_height(self) -> float:
        if self.height is not None:
            return self.height
        # unit-area Lorentzian peaks at 2 / (pi * fwhm)
        return self.area * 2.0 / (math.pi * self.fwhm_hz)


@dataclass(frozen=True)
class LorentzianFit:
    """Four-parameter Lorentzian-plus-floor model and its fit quality."""

    center_hz: float
    fwhm_hz: float
    peak_height: float
    floor: float
    residual_norm: float = 0.0
    converged: bool = True
    n_iterations: int = 0

    def __post_init__(self):
        if self.fwhm_hz <= 0:
            raise ValueError("fwhm must be positive")

    def evaluate(self, freqs_hz: np.ndarray) -> np.ndarray:
        u = (np.asarray(freqs_hz, dtype=float) - self.center_hz) / (self.fwhm_hz / 2.0)
        return self.floor + self.peak_height / (1.0 + u * u)


def efficiency_lineshape(
    eta_peak: float, bandwidth_hz: float, grid: FrequencyGrid, center_hz: float
) -> Spectrum:
    """Lorentzian efficiency profile; ``bandwidth_hz`` is the HWHM."""
    if eta_peak < 0:
        raise ValueError("peak efficiency must be nonnegative")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    f = grid.frequencies()
    values = eta_peak / (1.0 + ((f - center_hz) / bandwidth_hz) ** 2)
    return Spectrum(grid, values, KIND_EFFICIENCY)


def synth_output_noise(components, floor: float, grid: FrequencyGrid) -> Spectrum:
    """Sum of signed Lorentzian components on a constant floor.

    Values are clamped at zero with a warning if the signed sum dips
    negative (a deeper interference dip than the floor supports).
    """
    f = grid.frequencies()
    values = np.full(grid.n_points, float(floor))
    for comp in components:
        hw = comp.fwhm_hz / 2.0
        u = (f - comp.center_hz) / hw
        values += comp.sign * comp.peak_height() / (1.0 + u * u)
    if np.any(values < 0):
        warnings.warn(
            "synthesised spectrum dipped below zero and was clamped", stacklevel=2
        )
        values = np.maximum(values, 0.0)
    return Spectrum(grid, values, KIND_OUTPUT_NOISE)


def input_refer(
    output_noise: Spectrum,
    efficiency: Spectrum,
    mask_fraction: float = DEFAULT_MASK_FRACTION,
) -> Spectrum:
    """Refer an output spectrum to the input: pointwise noise / efficiency.

    Points where the efficiency is below ``mask_fraction`` of its peak
    are masked rather than divided, so band edges do not blow up.
    """
    if output_noise.grid != efficiency.grid:
        raise ValueError("output and efficiency spectra must share a grid")
    eff = efficiency.values
    threshold = mask_fraction * float(np.max(eff)) if eff.size else 0.0
    valid = (
        output_noise.valid_mask()
        & efficiency.valid_mask()
        & (eff > threshold)
    )
    if not np.any(valid):
        raise ValueError("input referral masked every point")
    values = np.zeros_like(eff)
    values[valid] = output_noise.values[valid] / eff[valid]
    return Spectrum(output_noise.grid, values, KIND_INPUT_REFERRED, mask=valid)


def _initial_fit(f: np.ndarray, y: np.ndarray) -> LorentzianFit:
    floor = float(np.min(y))
    peak_idx = int(np.argmax(y))
    height = float(y[peak_idx] - floor)
    center = float(f[peak_idx])
    if height <= 0:
        return LorentzianFit(center, (f[-1] - f[0]) / 10.0, max(height, 1e-30), floor)
    half = floor + height / 2.0
    above = y >= half
    idx = np.nonzero(above)[0]
    if idx.size >= 2:
        width = float(f[idx[-1]] - f[idx[0]])
    else:
        width = 0.0
    if width <= 0:
        width = (f[-1] - f[0]) / 10.0
    return LorentzianFit(center, width, height, floor)


def fit_lorentzian(
    spectrum: Spectrum,
    exclude: ExclusionBands | None = None,
    init: LorentzianFit | None = None,
    grad_tol: float = 1e-9,
    max_iterations: int = 500,
) -> LorentzianFit:
    """Least-squares fit of floor + Lorentzian, skipping excluded bands.

    Damped (Levenberg-style) least squares with the analytic Jacobian of
    the four-parameter model; initialised from the peak location/height
    and the half-height crossings unless ``init`` is given.  Convergence
    is declared at relative gradient norm ``grad_tol``; hitting
    ``max_iterations`` returns the best iterate with converged=False.
    """
    f = spectrum.grid.frequencies()
    keep = spectrum.valid_mask()
    if exclude is not None:
        keep &= ~exclude.excluded(f)
    f = f[keep]
    y = spectrum.values[keep]
    if f.size < 8:
        raise ValueError(f"need at least 8 unexcluded points, have {f.size}")

    if init is None:
        init = _initial_fit(f, y)
    p = np.array([init.center_hz, init.fwhm_hz, init.peak_height, init.floor])

    def model_and_jac(params):
        c, w, h, fl = params
        hw = w / 2.0
        u = (f - c) / hw
        lor = 1.0 / (1.0 + u * u)
        m = fl + h * lor
        lor2 = lor * lor
        jac = np.empty((f.size, 4))
        jac[:, 0] = 4.0 * h * u * lor2 / w      # d/d center
        jac[:, 1] = 2.0 * h * u * u * lor2 / w  # d/d fwhm
        jac[:, 2] = lor                          # d/d height
        jac[:, 3] = 1.0                          # d/d floor
        return m, jac

    lam = 1e-3
    m, jac = model_and_jac(p)
    r = m - y
    cost = float(r @ r)
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iterations + 1):
        grad = jac.T @ r
        scale = max(cost, float(np.abs(y).max()) ** 2, 1e-300)
        if np.max(np.abs(grad)) <= grad_tol * scale:
            converged = True
            break
        jtj = jac.T @ jac
        step = None
        for _ in range(50):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-300))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            if trial[1] <= 0:  # width must stay positive
                lam *= 10.0
                continue
            m_trial, jac_trial = model_and_jac(trial)
            r_trial = m_trial - y
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                p, m, jac, r, cost = trial, m_trial, jac_trial, r_trial, cost_trial
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        else:
            break  # no acceptable step found; report best iterate

    return LorentzianFit(
        center_hz=float(p[0]),
        fwhm_hz=float(p[1]),
        peak_height=float(p[2]),
        floor=float(p[3]),
        residual_norm=math.sqrt(cost),
        converged=converged,
        n_iterations=n_iter,
    )


SPECTRUM_CSV_HEADER = ["freq_hz", "value"]


def read_spectrum_csv(path, kind: str = KIND_OUTPUT_NOISE) -> Spectrum:
    """Read a spectrum from CSV (header ``freq_hz,value``).

    Rows must form a uniform, strictly increasing frequency grid.
    """
    freqs = []
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SPECTRUM_CSV_HEADER:
            raise ValueError(
                f"expected header {','.join(SPECTRUM_CSV_HEADER)}, got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                freqs.append(float(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from exc
    if len(freqs) < 2:
        raise ValueError("spectrum needs at least 2 rows")
    freqs = np.asarray(freqs)
    steps = np.diff(freqs)
    if np.any(steps <= 0):
        raise ValueError("frequencies must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-6 * abs(steps[0]):
        raise ValueError("frequency grid is not uniform")
    grid = FrequencyGrid(float(freqs[0]), float(freqs[-1]), len(freqs))
    return Spectrum(grid, np.asarray(values), kind)


def write_spectrum_csv(spectrum: Spectrum, path):
    """Write a spectrum as CSV with the documented header."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, SPECTRUM_CSV_HEADER, zip(spectrum.grid.frequencies(), spectrum.values))


def averaged_added_noise(
    n_add: Spectrum, efficiency: Spectrum, exclude: ExclusionBands | None = None
) -> float:
    """Efficiency-weighted mean of the added noise over unexcluded points.

    Trapezoidal quadrature of n_add * eta and of eta over each contiguous
    unexcluded run, then the ratio of the two integrals; excluded or
    masked points break the runs.  Uniform rescaling of the efficiency
    cancels out.
    """
    if n_add.grid != efficiency.grid:
        raise ValueError("spectra must share a grid")
    f = n_add.grid.frequencies()
    keep = n_add.valid_mask() & efficiency.valid_mask()
    if exclude is not None:
        keep &= ~exclude.excluded(f)
    numerator = 0.0
    denominator = 0.0
    h = n_add.grid.spacing_hz
    run_start = None
    for i in range(len(f) + 1):
        inside = i < len(f) and keep[i]
        if inside and run_start is None:
            run_start = i
        elif not inside and run_start is not None:
            sl = slice(run_start, i)
            w = efficiency.values[sl]
            numerator += float(np.trapezoid(n_add.values[sl] * w, dx=h))
            denominator += float(np.trapezoid(w, dx=h))
            run_start = None
    if denominator <= 0.0:
        raise ValueError("zero total weight: everything excluded or efficiency zero")
    return numerator / denominator
