"""Modeling toolkit for microwave-optical quantum transducers.

Computes itemized added-noise budgets in both conversion directions,
throughput, integrated quantum-capacity bounds over a Lorentzian
efficiency profile, noise-optimal operating points, occupancy-model
calibration fits, and the time-domain behaviour of notched output
filters.  A CLI (``quduct``) exposes the same operations on config
files and CSV data.
"""

from .core import (
    DeviceParams,
    NoiseBudget,
    NoiseEnvironment,
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
    throughput,
    validate_device,
)
from .capacity import (
    ChannelSpec,
    cap_integrated_closed,
    cap_integrated_quadrature,
    cap_small_eta,
    cap_ub_point,
    capacity_contours,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "DeviceParams",
    "NoiseBudget",
    "NoiseEnvironment",
    "OperatingPoint",
    "apparent_efficiency",
    "bandwidth_hz",
    "cap_integrated_closed",
    "cap_integrated_quadrature",
    "cap_small_eta",
    "cap_ub_point",
    "capacity_contours",
    "rate_from_hz",
    "rate_to_hz",
    "throughput",
    "validate_device",
    "__version__",
]
