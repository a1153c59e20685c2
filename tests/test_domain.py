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
from quduct.filters import FilterSpec, analyze_filter
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


# x = Gamma_T t_rep, log-uniform over the whole accepted domain
REPETITION_MULTIPLES = st.floats(-6.0, 308.0).map(lambda u: 10.0**u)


@settings(max_examples=200)
@given(linewidth=st.floats(1.0, 1e9), x=REPETITION_MULTIPLES)
def test_unnotched_filter_report_is_the_exponential(linewidth, x):
    spec = FilterSpec(linewidth_hz=linewidth)
    t_rep = x / spec.gamma_t
    x = spec.gamma_t * t_rep  # as the report sees it
    report = analyze_filter(spec, t_rep)
    assert report.eta_notch == 1.0
    assert report.eta_temporal == pytest.approx(-math.expm1(-x), rel=4e-16, abs=0.0)
    assert report.tail_noise_photons == pytest.approx(math.exp(-x), rel=4e-16, abs=0.0)
    assert report.tail_first_window_photons == pytest.approx(
        math.exp(-x) * -math.expm1(-x), rel=4e-16, abs=0.0)
    assert report.pre_window_energy == 0.0


@st.composite
def _notched_filters(draw):
    """A filter with one to three notches, each 5e-3 to 300 linewidths wide,
    log-uniform, inside the 300 linewidths around its center that
    filter-analysis checks them against by default (at 2**20 points a notch
    needs 4.6e-3 linewidths for its 16 samples)."""
    linewidth = draw(st.floats(1e2, 1e7))
    center = draw(st.floats(-1e7, 1e7))
    notches = []
    for _ in range(draw(st.integers(1, 3))):
        width = 10.0 ** draw(st.floats(math.log10(5e-3), math.log10(300.0)))
        low = draw(st.floats(-150.0, 150.0 - width))
        notches.append((center + low * linewidth, center + (low + width) * linewidth))
    return FilterSpec(linewidth_hz=linewidth, center_hz=center, notches=notches)


@settings(max_examples=200)
@given(spec=_notched_filters(), x=REPETITION_MULTIPLES, ratio=st.floats(1.0, 1e3))
def test_notched_filter_report_stays_in_its_bounds(spec, x, ratio):
    reports = [analyze_filter(spec, x / spec.gamma_t), analyze_filter(spec, ratio * x / spec.gamma_t)]
    for report in reports:
        for field in ("eta_total", "tail_noise_photons", "tail_first_window_photons",
                      "pre_window_energy"):
            assert 0.0 <= getattr(report, field) <= report.eta_notch, field
        assert 0.0 <= report.eta_temporal <= 1.0
        closure = report.eta_total + report.tail_noise_photons + report.pre_window_energy
        assert closure == pytest.approx(report.eta_notch, rel=0.0, abs=4e-16)
    # within the report's quadrature error
    assert reports[1].eta_temporal >= reports[0].eta_temporal - 1e-14
