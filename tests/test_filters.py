import math
import tracemalloc

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
    assert resp.energy.sum() == pytest.approx(1.0, rel=1e-12)


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
    assert resp.energy.sum() == pytest.approx(freq_ratio, rel=1e-8)


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


def _grid_sum_bisection(span_hz, n_points):
    """The preset width bisection with each step's eta_notch summed over the
    bins of the impulse_response grid, 1 - sum |H|^2 covered / sum |H|^2,
    which by Parseval's theorem is what an FFT analysis of the step gives.

    Returns the (spec, eta_notch) of every step, the tuned spec last.
    """
    span = 300.0 * PRESET_LINEWIDTH_HZ if span_hz is None else span_hz
    f = (np.arange(n_points) - n_points // 2) * (span / n_points)
    power = np.abs(1.0 / (1.0 + 1j * f / (PRESET_LINEWIDTH_HZ / 2.0))) ** 2
    power /= power.sum()
    steps, lo, hi = [], 0.05, 10.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        spec = scaled_preset_spec(mid)
        eta_notch = 1.0 - sum(float(power[first:first + covered.size] @ covered)
                              for first, covered in _notch_bins(spec, span, n_points))
        steps.append((spec, eta_notch))
        if abs(eta_notch - filters.PRESET_ETA_NOTCH) <= filters.PRESET_TOLERANCE:
            return steps
        if eta_notch > filters.PRESET_ETA_NOTCH:
            lo = mid
        else:
            hi = mid
    raise AssertionError("the reference bisection did not converge")


def _closed_form_eta_notch(spec, span):
    """Share of the one-pole Lorentzian, truncated to ``span``, left by the notches."""
    gamma = spec.linewidth_hz
    notched = sum(math.atan(2 * (b - spec.center_hz) / gamma)
                  - math.atan(2 * (a - spec.center_hz) / gamma) for a, b in spec.notches)
    return 1.0 - notched / (2 * math.atan(span / gamma))


def _band_side(eta_notch):
    """-1 below the preset tolerance band, 0 inside it, 1 above it."""
    offset = eta_notch - filters.PRESET_ETA_NOTCH
    return 0 if abs(offset) <= filters.PRESET_TOLERANCE else int(math.copysign(1, offset))


# the default grid, then spans of 50 to 2300 linewidths at 2**16 to 2**20 points
TUNING_GRIDS = [(None, 2**20)] + [
    (k * PRESET_LINEWIDTH_HZ, n) for k in (50, 120, 300, 800, 2300) for n in (2**16, 2**18, 2**20)
]


def test_tuner_matches_the_grid_sum_bisection():
    accepted = 0
    for span_hz, n_points in TUNING_GRIDS:
        try:
            steps = _grid_sum_bisection(span_hz, n_points)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                tuned_preset(span_hz, n_points)
            assert str(raised.value) == str(error), (span_hz, n_points)
            continue
        accepted += 1
        assert tuned_preset(span_hz, n_points) == steps[-1][0], (span_hz, n_points)
        span = 300.0 * PRESET_LINEWIDTH_HZ if span_hz is None else span_hz
        for spec, eta_notch in steps:
            closed = _closed_form_eta_notch(spec, span)
            assert abs(closed - eta_notch) <= 1e-6, (span_hz, n_points, spec.notches)
            assert _band_side(closed) == _band_side(eta_notch), (span_hz, n_points, spec.notches)
    assert accepted == 11


def test_tuner_steps_fall_on_the_fft_side_of_the_band(monkeypatch):
    # every candidate the tuner tries at the default grid is judged by its
    # closed-form eta_notch as a full FFT analysis of it would be judged
    steps = []
    scaled = filters.scaled_preset_spec

    def recorded(width_scale):
        steps.append(scaled(width_scale))
        return steps[-1]

    monkeypatch.setattr(filters, "scaled_preset_spec", recorded)
    tuned = tuned_preset()
    assert len(steps) == 9
    assert tuned is steps[-1]
    for spec in steps:
        closed = _closed_form_eta_notch(spec, 300.0 * PRESET_LINEWIDTH_HZ)
        assert _band_side(closed) == _band_side(analyze_filter(spec).eta_notch), spec.notches


def test_tuning_the_preset_allocates_no_grid():
    tracemalloc.start()
    try:
        tuned_preset(n_points=2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


def _textbook_response(spec, span, n):
    """Sorted times and energies of the one-FFT formulation, written out:
    natural-order spectrum, the norm by Parseval's theorem, full-grid notch
    factors, ifftshift, argsort."""
    df = span / n
    f = (np.arange(n) - n // 2) * df
    h = 1.0 / (1.0 + 1j * f / (spec.linewidth_hz / 2.0))
    phase = np.exp(1j * np.pi * f / span)
    spectrum = h * phase  # named: numpy may multiply into a temporary, which can round otherwise
    dft_order = np.fft.ifftshift(spectrum)
    norm = np.vdot(dft_order, dft_order).real / n
    for low, high in spec.notches:
        lo, hi = low - spec.center_hz, high - spec.center_hz
        covered = np.clip((np.minimum(f + 0.5 * df, hi) - np.maximum(f - 0.5 * df, lo)) / df, 0, 1)
        spectrum *= np.sqrt(1.0 - covered)
    energy = np.abs(np.fft.ifft(np.fft.ifftshift(spectrum))) ** 2 / norm
    k = np.arange(n)
    times = (np.where(k < n // 2, k, k - n) + 0.5) * (1.0 / span)
    order = np.argsort(times, kind="stable")
    return times[order], energy[order]


@pytest.mark.parametrize("center_hz", [0.0, 1234.5])
def test_impulse_response_matches_the_textbook_formulation_bit_for_bit(center_hz):
    # one notch across the filter center, one ending on the upper span edge,
    # and two a fraction of a bin apart that share a bin
    span, n = 4e6, 2**16
    df = span / n
    spec = FilterSpec(linewidth_hz=LINEWIDTH, center_hz=center_hz, notches=(
        (center_hz - 3.1e3, center_hz + 2.2e3),
        (center_hz + 2e6 - 1.5e4, center_hz + 2e6),
        (center_hz + 3e4, center_hz + 3e4 + 20.3 * df),
        (center_hz + 3e4 + 20.6 * df, center_hz + 3e4 + 40 * df),
    ))
    assert len(spec.notches) == 4
    response = impulse_response(spec, span_hz=span, n_points=n)
    times, energy = _textbook_response(spec, span, n)
    assert response.times_s.tobytes() == times.tobytes()
    assert response.energy.tobytes() == energy.tobytes()
    assert response.dt_s == 1.0 / span


def test_wrap_around_check_rejects_an_undecayed_response():
    # at 1e5 linewidths a 2**14-point window spans about one decay time
    spec = FilterSpec(linewidth_hz=LINEWIDTH)
    with pytest.raises(ValueError, match="response has not decayed within the DFT window"):
        impulse_response(spec, span_hz=1e5 * LINEWIDTH, n_points=2**14)
    # 2000 linewidths still fit the same window: the check passes
    response = impulse_response(spec, span_hz=2000 * LINEWIDTH, n_points=2**14)
    assert float(response.energy.sum()) == pytest.approx(1.0)


def _fft_reference(spec, span, n):
    """Ascending times and un-notched energies |ifft(h * phase)|^2 of an
    inverse DFT, the computation the norm and the wrap-around check once
    took: the norm was the energies' sum, the residue their share at
    |t| > 0.49 n / span."""
    f = (np.arange(n) - n // 2) * (span / n)
    h = 1.0 / (1.0 + 1j * f / (spec.linewidth_hz / 2.0))
    phase = np.exp(1j * np.pi * f / span)
    energy = np.abs(np.fft.ifft(np.fft.ifftshift(h * phase))) ** 2
    return (np.arange(n) - n // 2 + 0.5) / span, np.fft.fftshift(energy)


@pytest.mark.parametrize("n_points", [2**14, 2**16, 2**18, 2**20])
def test_parseval_norm_matches_the_fft_reference(n_points):
    # times the reference's sum, the un-notched energies are the reference's
    # own, off by the ratio of the two norms, which shows at the peak
    spec = FilterSpec(linewidth_hz=LINEWIDTH)
    _, reference = _fft_reference(spec, 300.0 * LINEWIDTH, n_points)
    response = impulse_response(spec, n_points=n_points)
    scaled = response.energy * float(reference.sum())
    assert np.max(np.abs(scaled - reference)) <= 1e-13 * reference.max()


def test_wrap_around_residue_decides_as_the_fft_reference():
    spec = FilterSpec(linewidth_hz=LINEWIDTH)
    decisions = []
    for n in (2**14, 2**16, 2**18):
        for span in np.geomspace(50, 2e5, 60) * LINEWIDTH:
            times, reference = _fft_reference(spec, span, n)
            measured = float(reference[np.abs(times) > 0.49 * n / span].sum() / reference.sum())
            a_t = spec.gamma_t * n / span
            closed = (math.exp(-0.49 * a_t) - math.exp(-0.51 * a_t)) / -math.expm1(-a_t)
            if measured >= 1e-9:
                assert closed == pytest.approx(measured, rel=1e-2), (n, span)
            try:
                impulse_response(spec, span_hz=span, n_points=n)
                rejected = False
            except ValueError as error:
                assert "response has not decayed within the DFT window" in str(error)
                rejected = True
            assert rejected == (measured > 1e-6), (n, span, measured, closed)
            decisions.append(rejected)
    assert len(decisions) == 180
    assert 0 < sum(decisions) < 180


def test_impulse_response_runs_one_inverse_fft(monkeypatch):
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    impulse_response(FilterSpec(linewidth_hz=LINEWIDTH), n_points=2**16)
    impulse_response(scaled_preset_spec(1.0), n_points=2**18)
    assert calls == [2**16, 2**18]


UNDER_SAMPLED = FilterSpec(linewidth_hz=LINEWIDTH, notches=((100.0, 150.0),))


@pytest.mark.parametrize(
    "spec, span_hz, n_points, message",
    [
        (FilterSpec(linewidth_hz=LINEWIDTH), 1e5 * LINEWIDTH, 2**14, "has not decayed"),
        (FilterSpec(linewidth_hz=LINEWIDTH), 1e7 * LINEWIDTH, 2**20, "has not decayed"),
        (UNDER_SAMPLED, None, 2**20, "fewer than 16 grid points"),
        # a spec failing both checks gets the notch error
        (UNDER_SAMPLED, 1e7 * LINEWIDTH, 2**20, "fewer than 16 grid points"),
    ],
    ids=["undecayed-2^14", "undecayed-2^20", "under-sampled", "both"],
)
def test_a_rejected_spec_allocates_no_grid(spec, span_hz, n_points, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            impulse_response(spec, span_hz=span_hz, n_points=n_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
