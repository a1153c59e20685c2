"""Operating-point sweeps and noise-optimal pump settings.

Sweeps sample pump rates logarithmically and evaluate the selected noise
model at each point, pairing the resulting added noise with the
throughput there; these are the raw data behind throughput/noise
tradeoff curves.  The optimizers run golden-section search on
log-transformed rates: the objectives are smooth and unimodal in the
regimes of interest and span decades, so log spacing is the natural
metric.  Flat objectives are detected and resolved toward the lowest
pump power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise
from .core import (
    DeviceParams,
    NoiseBudget,
    NoiseEnvironment,
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
)

SWEEP_GAMMA_E = "gamma_e"
SWEEP_GAMMA_O = "gamma_o"
SWEEP_BOTH = "both"

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# objectives equal within this relative spread count as flat
_FLAT_SPREAD = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and what to hold fixed.

    ``gamma_e`` and ``gamma_o`` are either a fixed rate (rad/s) or a
    (low, high) range for the swept axis; which must be which follows
    from ``variable``.  ``n_samples`` applies per swept axis.
    """

    variable: str
    gamma_e: float | tuple
    gamma_o: float | tuple
    n_samples: int
    model: str = noise.MODEL_LOSSY_UP
    duty: float = 1.0

    def __post_init__(self):
        if self.variable not in (SWEEP_GAMMA_E, SWEEP_GAMMA_O, SWEEP_BOTH):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        for name, swept in (
            (SWEEP_GAMMA_E, self.gamma_e),
            (SWEEP_GAMMA_O, self.gamma_o),
        ):
            if self.variable in (name, SWEEP_BOTH):
                if not (isinstance(swept, tuple) and len(swept) == 2 and 0 < swept[0] < swept[1]):
                    raise ValueError(f"{name} needs an increasing positive (low, high) range")
            elif not (isinstance(swept, (int, float)) and swept > 0):
                raise ValueError(f"{name} needs a fixed positive rate")


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep sample: operating point, throughput, and its noise budget.

    ``error`` carries the evaluation failure message when the model could
    not be evaluated at this point; the sweep keeps going.
    """

    op: OperatingPoint
    throughput_hz: float
    n_add_total: float
    budget: NoiseBudget | None
    error: str | None = None


def _log_space(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, n)


def sweep(spec: SweepSpec, params: DeviceParams, env: NoiseEnvironment) -> list:
    """Evaluate the selected model over log-spaced operating points."""
    if spec.variable == SWEEP_BOTH:
        ge_values = _log_space(*spec.gamma_e, spec.n_samples)
        go_values = _log_space(*spec.gamma_o, spec.n_samples)
        pairs = [(ge, go) for ge in ge_values for go in go_values]
    elif spec.variable == SWEEP_GAMMA_E:
        pairs = [(ge, spec.gamma_o) for ge in _log_space(*spec.gamma_e, spec.n_samples)]
    else:
        pairs = [(spec.gamma_e, go) for go in _log_space(*spec.gamma_o, spec.n_samples)]

    points = []
    for ge, go in pairs:
        op = OperatingPoint(gamma_e=ge, gamma_o=go, duty=spec.duty)
        # apparent efficiency can exceed 1 slightly when the sideband gain
        # does, so the product is formed directly rather than through the
        # range-checked core.throughput
        eta = apparent_efficiency(params, op)
        theta = eta * bandwidth_hz(params, op) * spec.duty
        try:
            budget = noise.evaluate(spec.model, params, op, env)
        except (ValueError, ArithmeticError) as exc:
            points.append(TradeoffPoint(op, theta, math.nan, None, error=str(exc)))
            continue
        points.append(TradeoffPoint(op, theta, budget.total, budget))
    return points


@dataclass(frozen=True)
class OptimumResult:
    """Optimizer output: the operating point, its budget, and whether the
    search ended on a bracket boundary or a flat objective."""

    op: OperatingPoint
    budget: NoiseBudget
    at_boundary: bool = False
    flat_objective: bool = False


def _golden_min(fn, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section minimum of fn over [lo, hi] on a log axis."""
    a, b = math.log(lo), math.log(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(math.exp(c)), fn(math.exp(d))
    while (b - a) > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(math.exp(d))
    return math.exp(0.5 * (a + b))


def _coarse_scan(fn, lo: float, hi: float, n: int = 60):
    xs = np.geomspace(lo, hi, n)
    ys = np.array([fn(x) for x in xs])
    return xs, ys


def _minimize_log_axis(fn, bracket, rel_tol=1e-6):
    """Coarse scan then golden section; flags boundary and flat outcomes."""
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must be positive and increasing")
    xs, ys = _coarse_scan(fn, lo, hi)
    spread = float(ys.max() - ys.min())
    if spread <= _FLAT_SPREAD * max(abs(float(ys.max())), 1e-300):
        return lo, True, False  # flat: lowest pump power wins
    k = int(np.argmin(ys))
    if k == 0:
        return float(xs[0]), False, True
    if k == len(xs) - 1:
        return float(xs[-1]), False, True
    x_best = _golden_min(fn, float(xs[k - 1]), float(xs[k + 1]), rel_tol)
    return x_best, False, False


def optimize_up(
    params: DeviceParams,
    env: NoiseEnvironment,
    gamma_o_fixed: float,
    bracket=(2.0 * math.pi * 10.0, 2.0 * math.pi * 1e7),
    model: str = noise.MODEL_LOSSY_UP,
    duty: float = 1.0,
    rel_tol: float = 1e-6,
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

    best, flat, boundary = _minimize_log_axis(objective, bracket, rel_tol)
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
    rel_tol: float = 1e-6,
) -> OptimumResult:
    """Minimise downconversion added noise over (gamma_o, gamma_e/gamma_o).

    Nested golden-section search: the outer loop walks gamma_o, the
    inner loop finds the best rate ratio at that gamma_o.  Boundary
    optima on either axis are flagged.
    """
    inner_state = {}

    def best_ratio(gamma_o: float):
        def inner(ratio: float) -> float:
            op = OperatingPoint(gamma_e=ratio * gamma_o, gamma_o=gamma_o, duty=duty)
            return noise.evaluate(model, params, op, env).total

        ratio, flat, boundary = _minimize_log_axis(inner, ratio_bracket, rel_tol)
        inner_state[gamma_o] = (flat, boundary)
        return ratio, inner(ratio)

    def outer(gamma_o: float) -> float:
        return best_ratio(gamma_o)[1]

    gamma_o_best, outer_flat, outer_boundary = _minimize_log_axis(
        outer, gamma_o_bracket, rel_tol
    )
    ratio_best, _ = best_ratio(gamma_o_best)
    inner_flat, inner_boundary = inner_state[gamma_o_best]
    op = OperatingPoint(
        gamma_e=ratio_best * gamma_o_best, gamma_o=gamma_o_best, duty=duty
    )
    return OptimumResult(
        op=op,
        budget=noise.evaluate(model, params, op, env),
        at_boundary=outer_boundary or inner_boundary,
        flat_objective=outer_flat and inner_flat,
    )
