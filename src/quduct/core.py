"""Domain types and unit conventions shared by every other module.

Unit convention: every rate in this package (resonance frequencies,
linewidths, damping and coupling rates) is stored internally as an
ANGULAR frequency in rad/s.  Conversion to and from ordinary frequency
in Hz happens only at interface boundaries (config files, CLI flags,
CSV output), where keys carry an explicit ``_hz`` suffix.  A single
internal convention prevents factor-of-2pi mistakes between modules.

Occupancy-rate products (environmental occupancy times intrinsic
mechanical loss, and the locking-beam backaction product) are stored as
single composite rates in photons * rad/s, because only the products
are ever calibrated; splitting them would invent unmeasured numbers.

All types here are immutable value objects and safe to share between
concurrent workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

TWO_PI = 2.0 * math.pi

# Rates are plain floats in rad/s; the alias marks intent in signatures.
AngularRate = float

# A validation report is a list of human-readable violation strings,
# empty when everything checks out.
ValidationReport = list


class BudgetAssemblyError(ValueError):
    """A noise-budget term came out nonfinite; names the offending term."""


class InconsistentBudgetWarning(UserWarning):
    """A noise budget summed to a negative total, signalling bad inputs."""


def rate_from_hz(f_hz: float) -> AngularRate:
    """Convert ordinary frequency in Hz to an angular rate in rad/s."""
    return TWO_PI * f_hz


def rate_to_hz(omega: AngularRate) -> float:
    """Convert an angular rate in rad/s to ordinary frequency in Hz."""
    return omega / TWO_PI


def backaction_limit(kappa: AngularRate, omega_m: AngularRate) -> float:
    """Residual backaction occupancy of a red-detuned parametric drive.

    Standard finite-sideband-resolution result (kappa / 4 omega_m)^2,
    used as the default per-port minimum occupancy when no measured
    value is supplied.
    """
    return (kappa / (4.0 * omega_m)) ** 2


def stokes_gain(kappa: AngularRate, omega_m: AngularRate) -> float:
    """Default sideband gain 1 / (1 - (kappa / 4 omega_m)^2) of the drive."""
    x = (kappa / (4.0 * omega_m)) ** 2
    if x >= 1.0:
        raise ValueError(
            "cavity linewidth too large relative to the mechanical frequency "
            "for a red-detuned gain factor"
        )
    return 1.0 / (1.0 - x)


@dataclass(frozen=True)
class DeviceParams:
    """Fixed physical parameters of one transducer.

    ``gain_e``, ``gain_o``, ``n_min_e`` and ``n_min_o`` may be passed as
    None, in which case they default to the sideband-resolution formulas
    in :func:`stokes_gain` and :func:`backaction_limit`.  Measured values
    override the defaults.
    """

    omega_m: AngularRate        # mechanical resonance
    gamma_m: AngularRate        # intrinsic mechanical loss
    kappa_e: AngularRate        # microwave total linewidth
    kappa_e_ext: AngularRate    # microwave external linewidth
    kappa_o: AngularRate        # optical total linewidth
    kappa_o_ext: AngularRate    # optical external linewidth
    eta_m: float = 1.0          # maximum achievable efficiency
    eps_mode: float = 1.0       # optical mode matching in the lossy noise model
    eps_pl: float = 1.0         # pump / local-oscillator mode matching
    eps_cl: float = 1.0         # cavity / local-oscillator mode matching
    eps_e: float = 1.0          # microwave-side extraction factor (see noise module)
    gain_e: float | None = None  # sideband gain, electromechanical
    gain_o: float | None = None  # sideband gain, optomechanical
    n_min_e: float | None = None  # backaction limit, microwave port
    n_min_o: float | None = None  # backaction limit, optical port

    def __post_init__(self):
        if self.gain_e is None:
            object.__setattr__(self, "gain_e", stokes_gain(self.kappa_e, self.omega_m))
        if self.gain_o is None:
            object.__setattr__(self, "gain_o", stokes_gain(self.kappa_o, self.omega_m))
        if self.n_min_e is None:
            object.__setattr__(self, "n_min_e", backaction_limit(self.kappa_e, self.omega_m))
        if self.n_min_o is None:
            object.__setattr__(self, "n_min_o", backaction_limit(self.kappa_o, self.omega_m))

    @property
    def gain_total(self) -> float:
        """Composite sideband gain, product of the two per-port gains."""
        return self.gain_e * self.gain_o


@dataclass(frozen=True)
class OperatingPoint:
    """Pump-enhanced coupling rates and duty cycle of one operating point.

    Duty cycle defaults to 1 (continuous operation).  Zero rates are
    allowed at construction so limits can be expressed; operations that
    would divide by a zero rate reject it at call time.
    """

    gamma_e: AngularRate
    gamma_o: AngularRate
    duty: float = 1.0

    def __post_init__(self):
        for name, rate in (("gamma_e", self.gamma_e), ("gamma_o", self.gamma_o)):
            if not 0.0 <= rate < math.inf:  # written so that nan fails
                raise ValueError(f"{name} must be finite and nonnegative, got {rate}")
        check_duty(self.duty)


@dataclass(frozen=True)
class NoiseEnvironment:
    """Bath and technical-noise occupancies.

    ``n_th_gamma_m`` and ``n_lock_gamma_lock`` are composite products in
    photons * rad/s.  ``a_e`` is the slope of the microwave circuit
    occupancy against the electromechanical rate, in seconds (i.e. per
    rad/s); ``b_e`` is the intercept in photons.
    """

    n_th_gamma_m: float
    n_lock_gamma_lock: float = 0.0
    a_e: float = 0.0
    b_e: float = 0.0
    n_bar_o: float = 0.0

    def __post_init__(self):
        for name in ("n_th_gamma_m", "n_lock_gamma_lock", "b_e", "n_bar_o"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not math.isfinite(self.a_e):
            raise ValueError("a_e must be finite")


@dataclass(frozen=True)
class NoiseBudget:
    """Itemized on-resonance added noise, in photons (photons/s/Hz).

    ``correlation`` is stored as a positive magnitude; the interference
    it represents is destructive, so it enters ``total`` with a minus
    sign: total = motional + electromagnetic - correlation.
    """

    motional: float
    electromagnetic: float
    correlation: float
    total: float
    direction: str  # "up" or "down"


def assemble_budget(
    motional: float, electromagnetic: float, correlation: float, direction: str
) -> NoiseBudget:
    """Build a :class:`NoiseBudget`, checking terms and summing the total.

    Raises :class:`BudgetAssemblyError` naming the first nonfinite term.
    A negative total is returned as-is with an
    :class:`InconsistentBudgetWarning`, never silently clamped.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    for name, value in (
        ("motional", motional),
        ("electromagnetic", electromagnetic),
        ("correlation", correlation),
    ):
        if not math.isfinite(value):
            raise BudgetAssemblyError(f"{name} term is not finite ({value!r})")
    total = motional + electromagnetic - correlation
    if total < 0:
        warnings.warn(
            "noise budget total is negative; inputs are inconsistent",
            InconsistentBudgetWarning,
            stacklevel=2,
        )
    return NoiseBudget(motional, electromagnetic, correlation, total, direction)


def validate_device(params: DeviceParams) -> ValidationReport:
    """Return the list of violated invariants of ``params`` (empty if valid)."""
    report = []
    fields = asdict(params)
    for name, value in fields.items():
        if not math.isfinite(value):
            report.append(f"{name} is not finite")
    if params.omega_m <= 0:
        report.append("mechanical resonance must be positive")
    for name in ("gamma_m", "kappa_e", "kappa_e_ext", "kappa_o", "kappa_o_ext"):
        if fields[name] < 0:
            report.append(f"{name} must be nonnegative")
    for side in ("e", "o"):
        if fields[f"kappa_{side}_ext"] > fields[f"kappa_{side}"]:
            report.append(f"external exceeds total linewidth on the {side} port")
        if fields[f"gain_{side}"] < 1.0:
            report.append(f"gain below unity on the {side} port")
        if fields[f"n_min_{side}"] < 0:
            report.append(f"n_min_{side} must be nonnegative")
    for name in ("eta_m", "eps_mode", "eps_pl", "eps_cl", "eps_e"):
        if not 0.0 <= fields[name] <= 1.0:
            report.append(f"{name} must lie in [0, 1]")
    return report


def check_duty(duty: float) -> None:
    """Reject a duty cycle outside (0, 1]; nan fails."""
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty cycle must be in (0, 1], got {duty}")


def transduction(params: DeviceParams, gamma_e, gamma_o) -> tuple:
    """(Gamma_T, apparent efficiency, bandwidth in Hz) at rates that are floats or equal-shape
    arrays; every total damping Gamma_T = gamma_e + gamma_o + gamma_m must be positive."""
    gamma_t = gamma_e + gamma_o + params.gamma_m
    if not (gamma_t.min() if hasattr(gamma_t, "min") else gamma_t) > 0.0:
        raise ValueError("total damping must be positive")
    matching = 4.0 * (gamma_e / gamma_t) * (gamma_o / gamma_t)  # finite at any rate
    return gamma_t, params.gain_total * params.eta_m * matching, rate_to_hz(gamma_t)


def eta_bandwidth_duty(eta, bandwidth_hz, duty):
    return eta * bandwidth_hz * duty


def bandwidth_hz(params: DeviceParams, op: OperatingPoint) -> float:
    """Transduction bandwidth in Hz at ``op``, of :func:`transduction`."""
    return transduction(params, op.gamma_e, op.gamma_o)[2]


def throughput(eta: float, bandwidth_hz: float, duty: float = 1.0) -> float:
    """Efficiency-bandwidth-duty-cycle product, in Hz; the one check of ``bandwidth_hz``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if not 0.0 < bandwidth_hz < math.inf:  # written so that nan fails
        raise ValueError(f"bandwidth_hz must be positive and finite, got {bandwidth_hz}")
    check_duty(duty)
    return eta_bandwidth_duty(eta, bandwidth_hz, duty)


def apparent_efficiency(params: DeviceParams, op: OperatingPoint) -> float:
    """Apparent efficiency at ``op``, of :func:`transduction`.  It includes the sideband gain,
    so it may exceed 1; only ``compare``'s live points are capped at 1, because a registry
    record holds a published efficiency in (0, 1]."""
    return transduction(params, op.gamma_e, op.gamma_o)[1]
