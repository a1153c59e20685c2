"""Reading device/noise/operating-point definitions from an INI file.

Three kinds of sections are recognised:

    [device]                  -> DeviceParams
    [noise]                   -> NoiseEnvironment
    [operating_point.NAME]    -> OperatingPoint, one section per name

Every rate-valued key is given in Hz and carries the suffix ``_hz``;
values are converted to angular rates on load.  The microwave occupancy
slope is given as ``a_e_per_hz`` (occupancy increase per Hz of
electromechanical rate, the convention such fits are usually quoted in)
and converted to seconds internally.

Unknown keys are rejected rather than ignored, since a silently dropped
``_hz`` suffix is exactly the kind of mistake this layer exists to stop.
No key can hold nan or inf, so a non-finite value is rejected on load,
and so is a device that :func:`validate_device` rejects.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .core import (
    DeviceParams, NoiseEnvironment, OperatingPoint, TWO_PI, rate_from_hz, validate_device,
)

_DEVICE_REQUIRED = (
    "omega_m_hz",
    "gamma_m_hz",
    "kappa_e_hz",
    "kappa_e_ext_hz",
    "kappa_o_hz",
    "kappa_o_ext_hz",
)
_DEVICE_OPTIONAL = (
    "eta_m",
    "eps_mode",
    "eps_pl",
    "eps_cl",
    "eps_e",
    "gain_e",
    "gain_o",
    "n_min_e",
    "n_min_o",
)
_NOISE_REQUIRED = ("n_th_gamma_m_hz",)
_NOISE_OPTIONAL = ("n_lock_gamma_lock_hz", "a_e_per_hz", "b_e", "n_bar_o")
_OP_REQUIRED = ("gamma_e_hz", "gamma_o_hz")
_OP_OPTIONAL = ("duty",)

OP_SECTION_PREFIX = "operating_point."


class ConfigError(ValueError):
    """Malformed or incomplete configuration file."""


@dataclass(frozen=True)
class Config:
    device: DeviceParams
    environment: NoiseEnvironment
    operating_points: dict  # name -> OperatingPoint


def _check_keys(section: str, present, required, optional):
    missing = [k for k in required if k not in present]
    unknown = [k for k in present if k not in required and k not in optional]
    if missing:
        raise ConfigError(f"[{section}] missing required keys: {', '.join(missing)}")
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {', '.join(unknown)}")


def _get(parser, section, key, default=None):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
        return value
    return default


def load_config(path) -> Config:
    """Parse ``path`` into device, environment and operating points, refusing an invalid device."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")

    if not parser.has_section("device"):
        raise ConfigError("missing [device] section")
    if not parser.has_section("noise"):
        raise ConfigError("missing [noise] section")

    _check_keys("device", parser.options("device"), _DEVICE_REQUIRED, _DEVICE_OPTIONAL)
    # each required key is a rate named after its field plus "_hz"; an
    # optional key that is absent takes the field's DeviceParams default
    device = DeviceParams(
        **{key[: -len("_hz")]: rate_from_hz(_get(parser, "device", key))
           for key in _DEVICE_REQUIRED},
        **{key: _get(parser, "device", key)
           for key in _DEVICE_OPTIONAL if parser.has_option("device", key)},
    )

    _check_keys("noise", parser.options("noise"), _NOISE_REQUIRED, _NOISE_OPTIONAL)
    environment = NoiseEnvironment(
        n_th_gamma_m=rate_from_hz(_get(parser, "noise", "n_th_gamma_m_hz")),
        n_lock_gamma_lock=rate_from_hz(_get(parser, "noise", "n_lock_gamma_lock_hz", 0.0)),
        a_e=_get(parser, "noise", "a_e_per_hz", 0.0) / TWO_PI,
        b_e=_get(parser, "noise", "b_e", 0.0),
        n_bar_o=_get(parser, "noise", "n_bar_o", 0.0),
    )

    operating_points = {}
    for section in parser.sections():
        if not section.startswith(OP_SECTION_PREFIX):
            continue
        name = section[len(OP_SECTION_PREFIX):]
        if not name:
            raise ConfigError("operating point section needs a name after the dot")
        _check_keys(section, parser.options(section), _OP_REQUIRED, _OP_OPTIONAL)
        operating_points[name] = OperatingPoint(
            gamma_e=rate_from_hz(_get(parser, section, "gamma_e_hz")),
            gamma_o=rate_from_hz(_get(parser, section, "gamma_o_hz")),
            duty=_get(parser, section, "duty", 1.0),
        )
    if not operating_points:
        raise ConfigError("config defines no [operating_point.NAME] section")
    if report := validate_device(device):
        raise ConfigError(f"{path} fails validation: {'; '.join(report)}")

    return Config(device=device, environment=environment, operating_points=operating_points)
