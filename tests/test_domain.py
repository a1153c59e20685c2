"""Properties over the whole domain the validators accept, and past its edges.

Each property draws its inputs with hypothesis under the profile that
``conftest.py`` loads (derandomized, no example database), so every run
draws the same examples.  A RuntimeWarning anywhere fails the suite.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quduct import optimize
from quduct.capacity import ChannelSpec
from quduct.config import load_config
from quduct.core import (
    TWO_PI,
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    throughput,
)
from quduct.registry import DeviceRecord, bundled_registry_path

# nan, both infinities, both zeros, the smallest subnormal and the largest float
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.0, 1.7976931348623157e308)
# any float, an edge, or one inside the unit interval, where eta and duty are valid
FIELD_VALUES = st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(0.0, 1.0))


def test_the_loaded_profile_is_derandomized_without_a_database():
    assert settings.default.derandomize
    assert settings.default.database is None


def _first_bad(*checks):
    """Name of the first field whose check fails, or None."""
    return next((name for name, ok in checks if not ok), None)


def _finite_or_names(compute, field):
    """``compute()`` is a finite, nonnegative float if ``field`` is None; else it
    raises a ValueError whose message starts with ``field``."""
    if field is None:
        value = compute()
        assert math.isfinite(value) and value >= 0.0
    else:
        with pytest.raises(ValueError) as excinfo:
            compute()
        assert str(excinfo.value).startswith(field), (field, str(excinfo.value))


@settings(max_examples=200)
@given(eta=FIELD_VALUES, bandwidth=FIELD_VALUES, duty=FIELD_VALUES)
def test_throughput_is_finite_or_names_the_field(eta, bandwidth, duty):
    field = _first_bad(("eta", 0.0 <= eta <= 1.0), ("bandwidth_hz", 0.0 < bandwidth < math.inf),
                       ("duty", 0.0 < duty <= 1.0))
    _finite_or_names(lambda: throughput(eta, bandwidth, duty), field)


@settings(max_examples=200)
@given(eta=FIELD_VALUES, n_add=FIELD_VALUES, bandwidth=FIELD_VALUES, duty=FIELD_VALUES)
def test_channel_spec_throughput_is_finite_or_names_the_field(eta, n_add, bandwidth, duty):
    field = _first_bad(("eta", 0.0 <= eta < 1.0), ("n_add", n_add >= 0.0),
                       ("bandwidth_hz", 0.0 < bandwidth < math.inf), ("duty", 0.0 < duty <= 1.0))
    _finite_or_names(lambda: ChannelSpec(eta, n_add, bandwidth, duty).throughput_hz, field)


@settings(max_examples=200)
@given(eta=FIELD_VALUES, n_add=FIELD_VALUES, bandwidth=FIELD_VALUES, duty=FIELD_VALUES)
def test_device_record_throughput_is_finite_or_names_the_field(eta, n_add, bandwidth, duty):
    field = _first_bad(("n_add", n_add >= 0.0), ("eta", 0.0 < eta <= 1.0),
                       ("bandwidth_hz", 0.0 < bandwidth < math.inf), ("duty", 0.0 < duty <= 1.0))
    _finite_or_names(lambda: DeviceRecord("x", "up", n_add, eta, bandwidth, duty).throughput_hz,
                     field)


CFG = load_config(bundled_registry_path().parent / "example_device.cfg")
# no occupancy slope, so that the lossy-up noise terms stay finite at 1e300 Hz too
QUIET_ENV = dataclasses.replace(CFG.environment, a_e=0.0)
# a rate in Hz, log-uniform from 1 Hz to 1e300 Hz
LOG_HZ = st.floats(0.0, 300.0)


@st.composite
def _sweep_specs(draw):
    """A SweepSpec over rates from 1 Hz to 1e300 Hz: gamma_e swept, gamma_o swept or fixed."""
    def axis(swept):
        if not swept:
            return rate_from_hz(10.0 ** draw(LOG_HZ))
        lo = draw(st.floats(0.0, 299.0))
        return rate_from_hz(10.0 ** lo), rate_from_hz(10.0 ** draw(st.floats(lo + 0.01, 300.0)))

    return optimize.SweepSpec(gamma_e=axis(True), gamma_o=axis(draw(st.booleans())),
                              n_samples=draw(st.integers(1, 6)),
                              duty=draw(st.floats(0.0, 1.0, exclude_min=True)))


@settings(max_examples=200)
@given(spec=_sweep_specs())
def test_sweep_throughput_is_the_per_point_product_at_any_rate(spec):
    columns = optimize.sweep(spec, CFG.device, QUIET_ENV)
    for gamma_e, gamma_o, theta in zip(*(columns[name].tolist()
                                         for name in ("gamma_e", "gamma_o", "throughput_hz"))):
        assert math.isfinite(theta) and theta >= 0.0, (gamma_e, gamma_o, theta)
        # the same product by another route: 4 G eta_m gamma_e (gamma_o / Gamma_T) duty / 2pi
        gamma_t = gamma_e + gamma_o + CFG.device.gamma_m
        other = (4.0 * CFG.device.gain_total * CFG.device.eta_m * gamma_e * (gamma_o / gamma_t)
                 * spec.duty / TWO_PI)
        assert theta == pytest.approx(other, rel=1e-14), (gamma_e, gamma_o)
        op = OperatingPoint(gamma_e, gamma_o, spec.duty)
        expected = apparent_efficiency(CFG.device, op) * bandwidth_hz(CFG.device, op) * op.duty
        assert theta.hex() == expected.hex(), (gamma_e, gamma_o)
