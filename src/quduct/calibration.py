"""Circuit-occupancy fits and the microwave readout-efficiency product.

The microwave circuit occupancy is modelled as linear in the
electromechanical rate, n_bar_e = a_e * gamma_e + b_e, and fitted by
weighted linear least squares with the full 2x2 parameter covariance.
Uncertainties on the records are mandatory; an unweighted fit must be
requested explicitly and just sets every sigma to one.

The microwave readout efficiency is a pure product of seven calibration
factors; the noise-ratio input is the detected-spectrum ratio at the
reference stiff-mode frequency (a measured input here, never modelled).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import AngularRate, TWO_PI

METHOD_MICROWAVE = "microwave"
METHOD_OPTOMECHANICAL = "optomechanical"

OCCUPANCY_CSV_HEADER = ["gamma_e_hz", "n_bar_e", "sigma", "method"]


@dataclass(frozen=True)
class OccupancyRecord:
    """One measured circuit occupancy at a known electromechanical rate."""

    gamma_e: AngularRate
    n_bar_e: float
    sigma: float
    method: str = METHOD_MICROWAVE

    def __post_init__(self):
        if self.n_bar_e < 0:
            raise ValueError("occupancy must be nonnegative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.method not in (METHOD_MICROWAVE, METHOD_OPTOMECHANICAL):
            raise ValueError(f"unknown readout method {self.method!r}")


@dataclass(frozen=True)
class OccupancyFit:
    """Slope/intercept of the occupancy model with parameter covariance.

    ``a_e`` is in seconds (occupancy per rad/s); ``a_e_per_hz`` restates
    it per Hz of electromechanical rate, the form fits are usually
    quoted in.
    """

    a_e: float
    b_e: float
    covariance: np.ndarray  # 2x2, order (a_e, b_e)

    @property
    def a_e_per_hz(self) -> float:
        return self.a_e * TWO_PI

    @property
    def sigma_a_e(self) -> float:
        return math.sqrt(float(self.covariance[0, 0]))

    @property
    def sigma_b_e(self) -> float:
        return math.sqrt(float(self.covariance[1, 1]))


def fit_occupancy(records, unweighted: bool = False) -> OccupancyFit:
    """Weighted linear least squares of occupancy against rate.

    Weights are 1/sigma^2; the covariance is (X^T W X)^-1, exact for
    known per-point uncertainties.  Needs at least two records with
    distinct rates (two points give the interpolating line).
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit a line")
    gamma = np.array([r.gamma_e for r in records], dtype=float)
    y = np.array([r.n_bar_e for r in records], dtype=float)
    sigma = (
        np.ones_like(y)
        if unweighted
        else np.array([r.sigma for r in records], dtype=float)
    )
    if np.ptp(gamma) == 0.0:
        raise ValueError("all rates are equal; the slope is undetermined")

    design = np.column_stack([gamma, np.ones_like(gamma)])
    w_sqrt = 1.0 / sigma
    xw = design * w_sqrt[:, None]
    yw = y * w_sqrt
    beta, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    covariance = np.linalg.inv(xw.T @ xw)
    return OccupancyFit(a_e=float(beta[0]), b_e=float(beta[1]), covariance=covariance)


def load_occupancy_records(path) -> list:
    """Read occupancy records from CSV with the documented header."""
    records = []
    problems = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != OCCUPANCY_CSV_HEADER:
            raise ValueError(
                f"expected header {','.join(OCCUPANCY_CSV_HEADER)}, "
                f"got {reader.fieldnames}"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                records.append(
                    OccupancyRecord(
                        gamma_e=TWO_PI * float(row["gamma_e_hz"]),
                        n_bar_e=float(row["n_bar_e"]),
                        sigma=float(row["sigma"]),
                        method=row["method"].strip(),
                    )
                )
            except (TypeError, ValueError) as exc:
                problems.append(f"line {line_no}: {exc}")
    if problems:
        raise ValueError("bad occupancy records: " + "; ".join(problems))
    return records


def intracavity_photons(
    gamma_e: AngularRate, g_e: AngularRate, kappa_e: AngularRate
) -> float:
    """Microwave intracavity photon number sustaining ``gamma_e``.

    Inverts gamma_e = 4 g_e^2 n_circ / kappa_e.
    """
    if g_e <= 0:
        raise ValueError("single-photon coupling must be positive")
    if kappa_e <= 0:
        raise ValueError("kappa_e must be positive")
    return gamma_e * kappa_e / (4.0 * g_e**2)


# The seven factors of the readout-efficiency product, in product order.
READOUT_FACTORS = (
    "xi_o",
    "eps_cl",
    "ratio_det",
    "kappa_e_over_ext",
    "kappa_o_ext_over",
    "gamma_o_over_e",
    "gain_o_over_e",
)


@dataclass(frozen=True)
class ReadoutCalInput:
    """Factors entering the microwave readout-efficiency product.

    ``ratio_det`` is the electrical-to-optical detected-noise ratio at
    the reference stiff-mode frequency.
    """

    xi_o: float
    eps_cl: float
    ratio_det: float
    kappa_e_over_ext: float  # kappa_e / kappa_e_ext
    kappa_o_ext_over: float  # kappa_o_ext / kappa_o
    gamma_o_over_e: float    # gamma_o / gamma_e
    gain_o_over_e: float     # A_o / A_e

    def __post_init__(self):
        for name in READOUT_FACTORS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.xi_o <= 1.0:
            raise ValueError("xi_o is an efficiency, must be <= 1")
        if not self.eps_cl <= 1.0:
            raise ValueError("eps_cl is a mode-matching factor, must be <= 1")


def xi_e(cal: ReadoutCalInput) -> float:
    """Microwave readout efficiency: the product of all seven factors."""
    value = math.prod(getattr(cal, name) for name in READOUT_FACTORS)
    if not math.isfinite(value):
        raise ValueError("readout efficiency product is not finite")
    return value
