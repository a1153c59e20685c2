"""Operating-point sweeps and noise-optimal pump settings.

Sweeps sample pump rates logarithmically and evaluate the selected noise
model on the whole grid at once, pairing the added noise with the
throughput at each point; these are the raw data behind throughput/noise
tradeoff curves.  The optimizers run golden-section search on
log-transformed rates: the objectives are smooth and unimodal in the
regimes of interest and span decades, so log spacing is the natural
metric.  Flat objectives are detected and resolved toward the lowest
pump power.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import noise
from .core import (
    DeviceParams,
    InconsistentBudgetWarning,
    NoiseBudget,
    NoiseEnvironment,
    OperatingPoint,
    rate_to_hz,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# objectives equal within this relative spread count as flat
_FLAT_SPREAD = 1e-12

# golden section stops when the log-axis bracket is this narrow
_REL_TOL = 1e-6
# log-spaced points of the coarse scan that brackets the minimum
_COARSE_POINTS = 60


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and what to hold fixed.

    ``gamma_e`` and ``gamma_o`` are each either a (low, high) tuple, an
    axis to sweep, or a fixed rate (rad/s).  At least one must be swept;
    ``n_samples`` applies per swept axis.
    """

    gamma_e: float | tuple
    gamma_o: float | tuple
    n_samples: int
    model: str = noise.MODEL_LOSSY_UP
    duty: float = 1.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        for name, axis in (("gamma_e", self.gamma_e), ("gamma_o", self.gamma_o)):
            if isinstance(axis, tuple):
                if not (len(axis) == 2 and 0 < axis[0] < axis[1]):
                    raise ValueError(f"{name} needs an increasing positive (low, high) range")
            elif not (isinstance(axis, (int, float)) and axis > 0):
                raise ValueError(f"{name} needs a fixed positive rate")
        if not (isinstance(self.gamma_e, tuple) or isinstance(self.gamma_o, tuple)):
            raise ValueError("nothing to sweep: give gamma_e or gamma_o a (low, high) range")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty cycle must be in (0, 1], got {self.duty}")

    def axes(self) -> tuple:
        """The gamma_e and gamma_o axes (rad/s) of the grid :func:`sweep` runs.

        A swept axis has ``n_samples`` log-spaced points, a fixed rate one.
        """
        return tuple(np.geomspace(*axis, self.n_samples) if isinstance(axis, tuple)
                     else np.array([axis], dtype=float) for axis in (self.gamma_e, self.gamma_o))


def sweep(spec: SweepSpec, params: DeviceParams, env: NoiseEnvironment) -> dict:
    """Evaluate the selected model over the grid of log-spaced operating points.

    Returns equal-length arrays keyed, in this order, ``gamma_e`` and
    ``gamma_o`` (rad/s), ``throughput_hz``, ``total``, ``motional``,
    ``electromagnetic`` and ``correlation``, over the grid of
    ``spec.axes()`` with gamma_o fastest.  A point that
    :func:`noise.evaluate` rejects has nan in the four noise columns.
    Negative totals raise one :class:`InconsistentBudgetWarning`.
    """
    gamma_e, gamma_o = (grid.ravel() for grid in np.meshgrid(*spec.axes(), indexing="ij"))
    # apparent_efficiency * bandwidth_hz * duty over arrays; unlike
    # core.throughput, it lets the sideband gain push the efficiency past 1
    gamma_t = gamma_e + gamma_o + params.gamma_m
    if (gamma_t <= 0).any():
        raise ValueError("total damping must be positive")
    eta = params.gain_total * params.eta_m * (4.0 * gamma_e * gamma_o / (gamma_t * gamma_t))
    columns = {"gamma_e": gamma_e, "gamma_o": gamma_o}
    columns["throughput_hz"] = eta * rate_to_hz(gamma_t) * spec.duty
    try:
        terms = noise.terms(spec.model, params, env, gamma_e, gamma_o)
    except (ValueError, ArithmeticError):  # a device the model rejects
        terms = (math.nan,) * 3
    motional, electromagnetic, correlation = terms
    finite = np.isfinite(motional) & np.isfinite(electromagnetic) & np.isfinite(correlation)
    rejected = ~finite | (noise.n_bar_e(env, gamma_e) < 0.0)
    names = ("total", "motional", "electromagnetic", "correlation")
    for name, value in zip(names, (motional + electromagnetic - correlation, *terms)):
        columns[name] = np.where(rejected, math.nan, value)
    negative = np.count_nonzero(columns["total"] < 0.0)
    if negative:
        message = f"noise budget total is negative at {negative} of {len(gamma_e)} points"
        warnings.warn(f"{message}; inputs are inconsistent", InconsistentBudgetWarning, stacklevel=2)
    return columns


@dataclass(frozen=True)
class OptimumResult:
    """Optimizer output: the operating point, its budget, and whether the
    search ended on a bracket boundary or a flat objective."""

    op: OperatingPoint
    budget: NoiseBudget
    at_boundary: bool = False
    flat_objective: bool = False


def _golden_min(fn, lo: float, hi: float) -> float:
    """Golden-section minimum of fn over [lo, hi] on a log axis."""
    a, b = math.log(lo), math.log(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(math.exp(c)), fn(math.exp(d))
    while (b - a) > _REL_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(math.exp(d))
    return math.exp(0.5 * (a + b))


def _minimize_log_axis(fn, bracket):
    """Coarse scan then golden section; flags boundary and flat outcomes."""
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must be positive and increasing")
    xs = np.geomspace(lo, hi, _COARSE_POINTS)
    ys = np.array([fn(x) for x in xs])
    spread = float(ys.max() - ys.min())
    if spread <= _FLAT_SPREAD * max(abs(float(ys.max())), 1e-300):
        return lo, True, False  # flat: lowest pump power wins
    k = int(np.argmin(ys))
    if k == 0:
        return float(xs[0]), False, True
    if k == len(xs) - 1:
        return float(xs[-1]), False, True
    x_best = _golden_min(fn, float(xs[k - 1]), float(xs[k + 1]))
    return x_best, False, False


def optimize_up(
    params: DeviceParams,
    env: NoiseEnvironment,
    gamma_o_fixed: float,
    bracket=(2.0 * math.pi * 10.0, 2.0 * math.pi * 1e7),
    model: str = noise.MODEL_LOSSY_UP,
    duty: float = 1.0,
) -> OptimumResult:
    """Minimise upconversion added noise over the electromechanical rate.

    The interior optimum balances the thermal term falling as
    1/gamma_e against the circuit-occupancy term rising linearly; with
    no rising term the optimum sits on the bracket boundary and is
    flagged as such.
    """

    def objective(gamma_e: float) -> float:
        op = OperatingPoint(gamma_e=gamma_e, gamma_o=gamma_o_fixed, duty=duty)
        return noise.evaluate(model, params, op, env).total

    best, flat, boundary = _minimize_log_axis(objective, bracket)
    op = OperatingPoint(gamma_e=best, gamma_o=gamma_o_fixed, duty=duty)
    return OptimumResult(
        op=op,
        budget=noise.evaluate(model, params, op, env),
        at_boundary=boundary,
        flat_objective=flat,
    )


def optimize_down(
    params: DeviceParams,
    env: NoiseEnvironment,
    gamma_o_bracket=(2.0 * math.pi * 10.0, 2.0 * math.pi * 1e7),
    ratio_bracket=(1e-3, 1e3),
    model: str = noise.MODEL_LOSSY_DOWN,
    duty: float = 1.0,
) -> OptimumResult:
    """Minimise downconversion added noise over (gamma_o, gamma_e/gamma_o).

    Nested golden-section search: the outer loop walks gamma_o, the
    inner loop finds the best rate ratio at that gamma_o.  Boundary
    optima on either axis are flagged.
    """
    def total(ratio: float, gamma_o: float) -> float:
        op = OperatingPoint(gamma_e=ratio * gamma_o, gamma_o=gamma_o, duty=duty)
        return noise.evaluate(model, params, op, env).total

    def best_ratio(gamma_o: float):
        """(ratio, flat, boundary) of the inner search at ``gamma_o``."""
        return _minimize_log_axis(lambda ratio: total(ratio, gamma_o), ratio_bracket)

    def outer(gamma_o: float) -> float:
        return total(best_ratio(gamma_o)[0], gamma_o)

    gamma_o_best, outer_flat, outer_boundary = _minimize_log_axis(outer, gamma_o_bracket)
    ratio_best, inner_flat, inner_boundary = best_ratio(gamma_o_best)
    op = OperatingPoint(
        gamma_e=ratio_best * gamma_o_best, gamma_o=gamma_o_best, duty=duty
    )
    return OptimumResult(
        op=op,
        budget=noise.evaluate(model, params, op, env),
        at_boundary=outer_boundary or inner_boundary,
        flat_objective=outer_flat and inner_flat,
    )
