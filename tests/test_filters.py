import math

import numpy as np
import pytest

from quduct import filters
from quduct.filters import (
    FilterSpec,
    PRESET_LINEWIDTH_HZ,
    _notch_bins,
    analyze_filter,
    filter_report,
    impulse_response,
    scaled_preset_spec,
    tuned_preset,
)

LINEWIDTH = 21.7e3
GAMMA_T = 2 * math.pi * LINEWIDTH


def test_unnotched_energy_is_exponential():
    # cumulative energy tracks 1 - exp(-Gamma_T t); the pointwise density
    # carries spectral-truncation ripple that integrates away
    spec = FilterSpec(linewidth_hz=LINEWIDTH)
    resp = impulse_response(spec, n_points=2**18, span_hz=400 * LINEWIDTH)
    pos = resp.times_s >= 0
    e = resp.energy[pos]
    cumulative = np.cumsum(e)
    # bin k covers [k dt, (k+1) dt): compare at exact bin edges
    for x in (0.5, 1.0, 2.0, 3.0, 5.0):
        idx = int(round(x / GAMMA_T / resp.dt_s))
        edge = idx * resp.dt_s
        assert cumulative[idx - 1] == pytest.approx(
            1.0 - math.exp(-GAMMA_T * edge), abs=2e-3
        ), x


def test_unnotched_total_energy_normalised():
    spec = FilterSpec(linewidth_hz=LINEWIDTH)
    resp = impulse_response(spec)
    assert resp.total() == pytest.approx(1.0, rel=1e-12)


def test_parseval_between_domains():
    # time-domain total equals the frequency-domain energy of the same
    # discretised transfer function (fractionally weighted notch edges)
    spec = FilterSpec(
        linewidth_hz=LINEWIDTH, notches=((4e3, 6e3),)
    )
    n = 2**18
    span = 400.0 * LINEWIDTH
    resp = impulse_response(spec, span_hz=span, n_points=n)
    df = span / n
    f = (np.arange(n) - n // 2) * df
    h0 = 1.0 / (1.0 + 1j * f / (LINEWIDTH / 2.0))
    covered = (np.minimum(f + 0.5 * df, 6e3) - np.maximum(f - 0.5 * df, 4e3)) / df
    h = h0 * np.sqrt(1.0 - np.clip(covered, 0.0, 1.0))
    freq_ratio = np.sum(np.abs(h) ** 2) / np.sum(np.abs(h0) ** 2)
    assert resp.total() == pytest.approx(freq_ratio, rel=1e-8)


def test_cumulative_capture_at_three_lifetimes():
    report = analyze_filter(FilterSpec(linewidth_hz=LINEWIDTH))
    assert report.t_rep_s == pytest.approx(3.0 / GAMMA_T)
    assert report.eta_notch == pytest.approx(1.0, rel=1e-12)
    assert report.eta_temporal == pytest.approx(1.0 - math.exp(-3.0), abs=5e-3)
    assert report.tail_noise_photons == pytest.approx(math.exp(-3.0), abs=5e-3)


@pytest.mark.parametrize("x", [1.0, 2.0, 3.0, 5.0])
def test_unnotched_capture_matches_exponential(x):
    report = analyze_filter(FilterSpec(linewidth_hz=LINEWIDTH), t_rep_s=x / GAMMA_T)
    assert report.eta_temporal == pytest.approx(1.0 - math.exp(-x), rel=5e-3)


def test_unnotched_tail_is_geometric_sum():
    # exponential tails from all previous pulses sum to exp(-3)
    report = analyze_filter(FilterSpec(linewidth_hz=LINEWIDTH))
    total_tail = sum(
        math.exp(-3.0 * k) * (1.0 - math.exp(-3.0)) for k in range(1, 40)
    )
    assert report.tail_noise_photons == pytest.approx(total_tail, abs=5e-3)
    assert report.tail_first_window_photons == pytest.approx(
        math.exp(-3.0) * (1.0 - math.exp(-3.0)), abs=5e-3
    )


def test_full_band_notch_kills_response():
    # only the half-covered bins at the extreme span edges survive, and
    # the response there is already ~1e-6 of the peak
    spec = FilterSpec(
        linewidth_hz=1e3, notches=((-5e5, 5e5),)
    )
    report = analyze_filter(spec, span_hz=1e6, n_points=2**17)
    assert report.eta_notch < 1e-8
    assert report.eta_total < 1e-8


def test_widening_notch_strictly_decreases_transmission():
    etas = []
    for scale in (0.5, 1.0, 2.0, 4.0):
        report = analyze_filter(scaled_preset_spec(scale))
        etas.append(report.eta_notch)
    assert all(b < a for a, b in zip(etas, etas[1:]))


def test_energy_bookkeeping_closes():
    spec = scaled_preset_spec(1.0)
    report = analyze_filter(spec)
    total = report.eta_notch
    in_window = report.eta_temporal * total
    closure = in_window + report.tail_noise_photons + report.pre_window_energy
    assert closure == pytest.approx(total, abs=1e-6 * total)


def test_eta_total_is_product():
    report = analyze_filter(scaled_preset_spec(1.3))
    assert report.eta_total == report.eta_notch * report.eta_temporal


def test_grid_refinement_stability():
    spec = scaled_preset_spec(1.0)
    a = analyze_filter(spec, n_points=2**19)
    b = analyze_filter(spec, n_points=2**20)
    for name in ("eta_notch", "eta_temporal", "eta_total", "tail_noise_photons"):
        va, vb = getattr(a, name), getattr(b, name)
        assert va == pytest.approx(vb, rel=1e-3), name


def test_span_and_resolution_guards():
    spec = FilterSpec(linewidth_hz=1e3)
    with pytest.raises(ValueError, match="linewidths"):
        impulse_response(spec, span_hz=10e3)
    with pytest.raises(ValueError, match="power of two"):
        impulse_response(spec, n_points=2**14 + 1)
    narrow = FilterSpec(linewidth_hz=1e3, notches=((99.9, 100.2),))
    with pytest.raises(ValueError, match="grid points"):
        impulse_response(narrow, span_hz=1e6, n_points=2**14)
    outside = FilterSpec(linewidth_hz=1e3, notches=((1e9, 2e9),))
    with pytest.raises(ValueError, match="outside the span"):
        impulse_response(outside, span_hz=1e6, n_points=2**16)


def test_preset_tuning_hits_target_transmission():
    spec = tuned_preset()
    report = analyze_filter(spec)
    assert report.eta_notch == pytest.approx(0.940, abs=1e-3)
    assert spec.linewidth_hz == PRESET_LINEWIDTH_HZ


def test_preset_report_in_published_ranges():
    spec = tuned_preset()
    report = analyze_filter(spec)
    assert 0.89 <= report.eta_temporal <= 0.93
    assert 0.84 <= report.eta_total <= 0.88
    assert 0.06 <= report.tail_noise_photons <= 0.12


def test_tuner_steps_match_the_fft_route(monkeypatch):
    # each bisection step reads eta_notch from the spectrum; by Parseval's
    # theorem it is the value a full FFT analysis of the same spec gives
    steps = []
    spectral = filters._spectral_eta_notch

    def recorded(spec, span, power):
        steps.append((spec, spectral(spec, span, power)))
        return steps[-1][1]

    monkeypatch.setattr(filters, "_spectral_eta_notch", recorded)
    tuned = tuned_preset()
    assert len(steps) == 9
    assert tuned is steps[-1][0]
    for spec, eta_notch in steps:
        assert abs(eta_notch - analyze_filter(spec).eta_notch) <= 1e-12, spec.notches


def test_tuned_preset_notches():
    assert tuned_preset().notches == (
        (-9556.3671875, -8443.6328125),
        (4165.44921875, 5834.55078125),
    )


def test_tuned_preset_checks_every_candidate():
    with pytest.raises(ValueError, match="fewer than 16 grid points"):
        tuned_preset(n_points=2**14)
    with pytest.raises(ValueError, match="linewidths"):
        tuned_preset(span_hz=10 * PRESET_LINEWIDTH_HZ)


@pytest.mark.parametrize(
    "notch",
    [(4e3, 6e3), (4000.3, 5010.7), (-5e3, -3.9e3), (-2e6, -1.98e6), (1.99e6, 2e6)],
)
def test_notch_runs_match_the_full_grid_formula(notch):
    # the run of touched bins must hold every bin the full-grid formula
    # attenuates, the span edges included
    span, n = 4e6, 2**16
    spec = FilterSpec(linewidth_hz=LINEWIDTH, notches=(notch,))
    df = span / n
    f = (np.arange(n) - n // 2) * df
    lo, hi = notch
    full = np.clip((np.minimum(f + 0.5 * df, hi) - np.maximum(f - 0.5 * df, lo)) / df, 0, 1)
    ((first, covered),) = _notch_bins(spec, span, n)
    run = np.zeros(n)
    run[first:first + covered.size] = covered
    assert run.tolist() == full.tolist()


def test_report_of_a_response_matches_analyze_filter():
    spec = scaled_preset_spec(1.0)
    response = impulse_response(spec, n_points=2**18)
    t_rep = 2.0 / spec.gamma_t
    assert filter_report(response, t_rep) == analyze_filter(spec, t_rep, n_points=2**18)
    with pytest.raises(ValueError, match="repetition time"):
        filter_report(response, 0.0)


def test_tuned_preset_on_a_given_span():
    spec = tuned_preset(span_hz=1.2e6)
    assert spec.notches == (
        (-9552.48046875, -8447.51953125),
        (4171.279296875, 5828.720703125),
    )
    report = analyze_filter(spec, span_hz=1.2e6)
    assert abs(report.eta_notch - filters.PRESET_ETA_NOTCH) <= filters.PRESET_TOLERANCE


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"linewidth_hz": math.nan}, "linewidth_hz"),
        ({"linewidth_hz": math.inf}, "linewidth_hz"),
        ({"linewidth_hz": 0.0}, "linewidth_hz"),
        ({"linewidth_hz": 1e3, "center_hz": math.nan}, "center_hz"),
        ({"linewidth_hz": 1e3, "center_hz": -math.inf}, "center_hz"),
    ],
)
def test_filter_spec_rejects_bad_fields_by_name(fields, name):
    with pytest.raises(ValueError, match=name):
        FilterSpec(**fields)


@pytest.mark.parametrize("t_rep_s", [math.nan, math.inf, -1e-6])
def test_report_rejects_bad_repetition_time_by_name(t_rep_s):
    response = impulse_response(FilterSpec(linewidth_hz=LINEWIDTH), n_points=2**14)
    with pytest.raises(ValueError, match="t_rep_s"):
        filter_report(response, t_rep_s)


def test_report_at_a_huge_repetition_time_keeps_everything():
    # windows past the end of the grid hold all the positive-time energy
    response = impulse_response(FilterSpec(linewidth_hz=LINEWIDTH), n_points=2**14)
    report = filter_report(response, 1e308)  # 2 * t_rep_s overflows to inf
    assert report.tail_noise_photons == 0.0
    assert report.tail_first_window_photons == 0.0
    assert report.eta_temporal + report.pre_window_energy / report.eta_notch == pytest.approx(1.0)
