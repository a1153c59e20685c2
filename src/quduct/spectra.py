"""Measured spectra on a uniform frequency grid: Lorentzian fitting with
exclusion bands, and band-averaged added noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# The Lorentzian fit converges at this relative gradient norm, or stops
# after this many iterations.
FIT_GRAD_TOL = 1e-9
FIT_MAX_ITERATIONS = 500


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
    """Finite values on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values length does not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum has nonfinite values")


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

    def excluded(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Boolean array, True where a frequency falls inside any band."""
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        out = np.zeros(freqs_hz.shape, dtype=bool)
        for low, high in self.bands:
            out |= (freqs_hz >= low) & (freqs_hz <= high)
        return out


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
) -> LorentzianFit:
    """Least-squares fit of floor + Lorentzian, skipping excluded bands.

    Damped (Levenberg-style) least squares with the analytic Jacobian of
    the four-parameter model; initialised from the peak location/height
    and the half-height crossings unless ``init`` is given.  Convergence
    is declared at relative gradient norm :data:`FIT_GRAD_TOL`; hitting
    :data:`FIT_MAX_ITERATIONS` returns the best iterate with
    converged=False.
    """
    f = spectrum.grid.frequencies()
    y = spectrum.values
    if exclude is not None:
        keep = ~exclude.excluded(f)
        f = f[keep]
        y = y[keep]
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
    for n_iter in range(1, FIT_MAX_ITERATIONS + 1):
        grad = jac.T @ r
        scale = max(cost, float(np.abs(y).max()) ** 2, 1e-300)
        if np.max(np.abs(grad)) <= FIT_GRAD_TOL * scale:
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


def read_spectrum_csv(path) -> Spectrum:
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
                if not (math.isfinite(freqs[-1]) and math.isfinite(values[-1])):
                    raise ValueError(f"{row[0]},{row[1]} is not finite")
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
    return Spectrum(grid, np.asarray(values))


def averaged_added_noise(
    n_add: Spectrum, efficiency: Spectrum, exclude: ExclusionBands | None = None
) -> float:
    """Efficiency-weighted mean of the added noise over unexcluded points.

    Trapezoidal quadrature of n_add * eta and of eta over each contiguous
    unexcluded run, then the ratio of the two integrals; excluded points
    break the runs.  Uniform rescaling of the efficiency cancels out.
    """
    if n_add.grid != efficiency.grid:
        raise ValueError("spectra must share a grid")
    f = n_add.grid.frequencies()
    keep = np.ones(f.size, dtype=bool) if exclude is None else ~exclude.excluded(f)
    # trapezoid weights: each interval with both ends kept gives h/2 to each end
    half = np.where(keep[1:] & keep[:-1], 0.5 * n_add.grid.spacing_hz, 0.0)
    weights = np.zeros(f.size)
    weights[1:] += half
    weights[:-1] += half
    numerator = float(np.dot(weights, n_add.values * efficiency.values))
    denominator = float(np.dot(weights, efficiency.values))
    if denominator <= 0.0:
        raise ValueError("zero total weight: everything excluded or efficiency zero")
    return numerator / denominator
