"""Operating-point sweeps and noise-optimal pump settings.

Sweeps sample pump rates logarithmically and evaluate the selected noise
model on the whole grid at once, pairing the added noise with the
throughput at each point; these are the raw data behind throughput/noise
tradeoff curves.  The optimizers search log-spaced grids of the rates,
each grid evaluated in one array call, and zoom in on the grid minimum:
the objectives are smooth and unimodal in the regimes of interest and
span decades, so log spacing is the natural metric.  Flat objectives
are detected and resolved toward the lowest pump power.
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
    check_duty,
    eta_bandwidth_duty,
    transduction,
)

# objectives equal within this relative spread count as flat
_FLAT_SPREAD = 1e-12

# the search stops when every grid step on the log axes is this narrow
_REL_TOL = 1e-6
# log-spaced points per axis of each grid the search evaluates
_GRID_POINTS = 60


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and what to hold fixed.

    ``gamma_e`` and ``gamma_o`` are each either a (low, high) tuple, an
    axis to sweep, or a fixed rate (rad/s), positive and finite.  At least
    one must be swept; ``n_samples`` applies per swept axis.
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
                if not (len(axis) == 2 and 0 < axis[0] < axis[1] < math.inf):
                    raise ValueError(f"{name} needs an increasing positive (low, high) range"
                                     f" below inf, got {axis!r}")
            elif not (isinstance(axis, (int, float)) and 0 < axis < math.inf):
                raise ValueError(f"{name} needs a fixed positive rate below inf, got {axis!r}")
        if not (isinstance(self.gamma_e, tuple) or isinstance(self.gamma_o, tuple)):
            raise ValueError("nothing to sweep: give gamma_e or gamma_o a (low, high) range")
        check_duty(self.duty)

    def axes(self) -> tuple:
        """The gamma_e and gamma_o axes (rad/s) of the grid :func:`sweep` runs.

        A swept axis has ``n_samples`` log-spaced points, a fixed rate one.
        """
        return tuple(np.geomspace(*axis, self.n_samples) if isinstance(axis, tuple)
                     else np.array([axis], dtype=float) for axis in (self.gamma_e, self.gamma_o))


def _evaluate(model: str, params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """(total, terms, rejected) of ``model`` over arrays of rates.

    ``rejected`` marks the points :func:`noise.evaluate` rejects: every
    point of a device the model rejects, a nonfinite term or a negative
    n_bar_e.
    """
    try:
        terms = noise.terms(model, params, env, gamma_e, gamma_o)
    except (ValueError, ArithmeticError):  # a device the model rejects
        terms = (math.nan,) * 3
    motional, electromagnetic, correlation = terms
    finite = np.isfinite(motional) & np.isfinite(electromagnetic) & np.isfinite(correlation)
    rejected = ~finite | (noise.n_bar_e(env, gamma_e) < 0.0)
    return motional + electromagnetic - correlation, terms, rejected


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
    throughput_hz = eta_bandwidth_duty(*transduction(params, gamma_e, gamma_o)[1:], spec.duty)
    columns = {"gamma_e": gamma_e, "gamma_o": gamma_o, "throughput_hz": throughput_hz}
    total, terms, rejected = _evaluate(spec.model, params, env, gamma_e, gamma_o)
    names = ("total", "motional", "electromagnetic", "correlation")
    for name, value in zip(names, (total, *terms)):
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


def _optimum(model: str, params: DeviceParams, env: NoiseEnvironment, duty: float,
             brackets: dict, rates) -> OptimumResult:
    """Grid-and-zoom minimum of ``model``'s total on one log axis per bracket.

    ``brackets`` maps each axis's name to its (low, high) range, outer axis
    first; ``rates`` turns axis values into (gamma_e, gamma_o).  On the
    first grid, each axis's profile (its minimum over the inner axes, on
    the row the outer axes chose) holds the axis at its low end if flat,
    or at the end where it is least (at_boundary).  Each zoom re-grids the
    other axes one step either side of the argmin, clipped to the bracket,
    until every step is below ``_REL_TOL``.  At a grid point that
    :func:`noise.evaluate` rejects, the first in C order, it raises.
    """
    for name, bracket in brackets.items():
        lo, hi = bracket
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"{name} must be finite, positive and increasing, got {bracket!r}")

    def point(*values) -> OperatingPoint:
        gamma_e, gamma_o = rates(*map(float, values))
        return OperatingPoint(gamma_e=gamma_e, gamma_o=gamma_o, duty=duty)

    def grid_total(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        with np.errstate(all="ignore"):  # a rejected point raises below
            total, _, rejected = _evaluate(model, params, env, *rates(*mesh))
        if rejected.any():
            first = np.unravel_index(np.argmax(rejected), rejected.shape)
            noise.evaluate(model, params, point(*(m[first] for m in mesh)), env)
        return total

    point(*(lo for lo, _ in brackets.values()))  # the duty and fixed rate, before the search
    axes = [np.geomspace(lo, hi, _GRID_POINTS) for lo, hi in brackets.values()]
    total = grid_total(axes)
    flats, at_boundary, row = [], False, total
    for d, axis in enumerate(axes):
        profile = row.min(axis=tuple(range(1, row.ndim)))
        top = float(profile.max())
        flat = top - float(profile.min()) <= _FLAT_SPREAD * max(abs(top), 1e-300)
        k = 0 if flat else int(np.argmin(profile))  # flat: lowest pump power wins
        if flat or k in (0, len(axis) - 1):  # the axis is held at axis[k]
            at_boundary |= not flat
            axes[d], total = axis[k:k + 1], np.take(total, [k], axis=d)
        flats.append(flat)
        row = row[k]
    while True:
        best = [axis[i] for axis, i in zip(axes, np.unravel_index(np.argmin(total), total.shape))]
        steps = [math.log(axis[-1] / axis[0]) / max(len(axis) - 1, 1) for axis in axes]
        if max(steps) <= _REL_TOL:
            break
        axes = [axis if len(axis) == 1 else np.geomspace(
            max(lo, x / math.exp(step)), min(hi, x * math.exp(step)), _GRID_POINTS)
            for axis, x, step, (lo, hi) in zip(axes, best, steps, brackets.values())]
        total = grid_total(axes)
    op = point(*best)
    return OptimumResult(op, noise.evaluate(model, params, op, env), at_boundary, all(flats))


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
    return _optimum(model, params, env, duty, {"bracket": bracket},
                    lambda gamma_e: (gamma_e, gamma_o_fixed))


def optimize_down(
    params: DeviceParams,
    env: NoiseEnvironment,
    gamma_o_bracket=(2.0 * math.pi * 10.0, 2.0 * math.pi * 1e7),
    ratio_bracket=(1e-3, 1e3),
    model: str = noise.MODEL_LOSSY_DOWN,
    duty: float = 1.0,
) -> OptimumResult:
    """Minimise downconversion added noise over (gamma_o, gamma_e/gamma_o).

    One grid-and-zoom search over both log axes, gamma_o outer and the
    rate ratio inner.  Boundary optima on either axis are flagged.
    """
    return _optimum(model, params, env, duty,
                    {"gamma_o_bracket": gamma_o_bracket, "ratio_bracket": ratio_bracket},
                    lambda gamma_o, ratio: (ratio * gamma_o, gamma_o))
