import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from quduct import filters, notched
from quduct.filters import (
    FilterSpec,
    PRESET_LINEWIDTH_HZ,
    _notch_bins,
    analyze_filter,
    check_trace_grid,
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


# a notch 1000 linewidths across leaves only the Lorentzian's far wings;
# the 300-linewidth span of the default trace grid could not hold it
FULL_BAND = FilterSpec(linewidth_hz=1e3, notches=((-5e5, 5e5),))


@pytest.mark.parametrize("mult", [3.0, 80.0])
def test_full_band_notch_kills_response(mult):
    report = analyze_filter(FULL_BAND, mult / FULL_BAND.gamma_t)
    assert report.eta_notch == pytest.approx(1 - 2 * math.atan(1000) / math.pi, rel=1e-12)
    assert report.eta_total < report.eta_notch
    for field in ("eta_total", "tail_noise_photons", "tail_first_window_photons",
                  "pre_window_energy"):
        assert 0.0 <= getattr(report, field) <= report.eta_notch, field
    closure = report.eta_total + report.tail_noise_photons + report.pre_window_energy
    assert closure == pytest.approx(report.eta_notch, rel=1e-15)


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


@pytest.mark.parametrize("mult", [0.1, 3.0, 60.0, 100.0])
def test_grid_refinement_stability(monkeypatch, mult):
    # halving every quadrature panel, and moving the far-field switch and the
    # by-parts threshold, moves no field beyond rounding
    spec = scaled_preset_spec(1.0)
    t_rep = mult / spec.gamma_t
    a = analyze_filter(spec, t_rep)
    monkeypatch.setattr(notched, "PANEL_PHASE", notched.PANEL_PHASE / 2)
    monkeypatch.setattr(notched, "FAR_TAU", 50.0)
    monkeypatch.setattr(notched, "BY_PARTS", 2 * notched.BY_PARTS)
    b = analyze_filter(spec, t_rep)
    for name in ("eta_notch", "eta_temporal", "eta_total", "tail_noise_photons",
                 "tail_first_window_photons", "pre_window_energy"):
        va, vb = getattr(a, name), getattr(b, name)
        assert va == pytest.approx(vb, rel=1e-13, abs=1e-17), name


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


def _band_side(eta_notch):
    """-1 below the preset tolerance band, 0 inside it, 1 above it."""
    offset = eta_notch - filters.PRESET_ETA_NOTCH
    return 0 if abs(offset) <= filters.PRESET_TOLERANCE else int(math.copysign(1, offset))


def test_tuner_steps_fall_on_the_oracle_side_of_the_band(monkeypatch):
    # every candidate the tuner tries is judged as the 30-digit eta_notch
    # judges it, and as analyze_filter reports it
    steps = []
    scaled = filters.scaled_preset_spec

    def recorded(width_scale):
        steps.append(scaled(width_scale))
        return steps[-1]

    monkeypatch.setattr(filters, "scaled_preset_spec", recorded)
    tuned = tuned_preset()
    assert len(steps) == 10
    assert tuned is steps[-1]
    for spec in steps:
        exact = float(oracles.filter_eta_notch(spec))
        reported = analyze_filter(spec).eta_notch
        assert reported == pytest.approx(exact, rel=1e-15), spec.notches
        assert _band_side(reported) == _band_side(exact), spec.notches


def test_tuning_the_preset_allocates_no_grid():
    tracemalloc.start()
    try:
        tuned_preset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_analyzing_the_preset_allocates_no_grid():
    spec = tuned_preset()
    tracemalloc.start()
    try:
        analyze_filter(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_tuned_preset_notches():
    assert tuned_preset().notches == (
        (-9560.25390625, -8439.74609375),
        (4159.619140625, 5840.380859375),
    )


def test_trace_grid_checks_the_tuned_preset():
    spec = tuned_preset()
    with pytest.raises(ValueError, match="fewer than 16 grid points"):
        check_trace_grid(spec, n_points=2**14)
    with pytest.raises(ValueError, match="linewidths"):
        check_trace_grid(spec, span_hz=10 * PRESET_LINEWIDTH_HZ)
    assert check_trace_grid(spec) == 300 * PRESET_LINEWIDTH_HZ


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


def _trace_windows(response, t_rep):
    """The report's fields summed from a trace, the cumulative energy
    interpolated inside the bin that straddles a window edge."""
    e, dt = response.energy, response.dt_s
    split = int(np.searchsorted(response.times_s, 0.0))
    positive = e[split:]
    cumulative = np.concatenate([[0.0], np.cumsum(positive)])

    def until(t):
        j = int(t / dt)
        return float(cumulative[j] + (t / dt - j) * positive[j])

    in_window = until(t_rep)
    return {"eta_notch": float(e.sum()), "eta_total": in_window,
            "tail_noise_photons": float(cumulative[-1]) - in_window,
            "tail_first_window_photons": until(2 * t_rep) - in_window,
            "pre_window_energy": float(e[:split].sum())}


@pytest.mark.parametrize("spec", [FilterSpec(linewidth_hz=LINEWIDTH), tuned_preset(),
                                  FilterSpec(linewidth_hz=LINEWIDTH, notches=((4e3, 6e3),))],
                         ids=["unnotched", "preset", "one-notch"])
def test_the_trace_sums_to_the_report_within_its_grid_error(spec):
    # the error impulse_response documents for its default grid
    report = analyze_filter(spec)
    sums = _trace_windows(impulse_response(spec), report.t_rep_s)
    for field, value in sums.items():
        assert abs(value - getattr(report, field)) <= 2.4e-4, field
    with pytest.raises(ValueError, match="repetition time"):
        analyze_filter(spec, 0.0)


def test_report_rejects_notch_edges_beyond_a_float():
    spec = FilterSpec(linewidth_hz=1e-300, notches=((1e10, 2e10),))
    with pytest.raises(ValueError,
                       match="notch edges must lie a finite number of linewidths from the center"):
        analyze_filter(spec, 1.0)


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
    with pytest.raises(ValueError, match="t_rep_s"):
        analyze_filter(scaled_preset_spec(1.0), t_rep_s)


@pytest.mark.parametrize("spec", [FilterSpec(linewidth_hz=LINEWIDTH), scaled_preset_spec(1.0)],
                         ids=["unnotched", "preset"])
def test_report_at_a_huge_repetition_time_keeps_everything(spec):
    # the window holds all the positive-time energy; 2 * t_rep_s overflows to inf
    report = analyze_filter(spec, 1e308)
    assert report.tail_noise_photons == 0.0
    assert report.tail_first_window_photons == 0.0
    assert report.eta_temporal + report.pre_window_energy / report.eta_notch == pytest.approx(1.0)


# criterion 08's and 09's specs and the three explicit-notch specs the
# filter-preset benchmark draws at seed 1
ORACLE_SPECS = {
    "unnotched": FilterSpec(linewidth_hz=21.7e3),
    "preset": tuned_preset(),
    "seed-1-a": FilterSpec(linewidth_hz=19255.5, notches=((4232.78, 5408.06), (-9341.48, -8679.35))),
    "seed-1-b": FilterSpec(linewidth_hz=20507.7, notches=((4327.44, 5406.09), (-9457.4, -8456.85))),
    "seed-1-c": FilterSpec(linewidth_hz=21803.1, notches=((4246.19, 5692.68), (-9292.48, -8607.81))),
}
# Gauss-Legendre truncation is at rounding on these panels (6e-16 for
# e^(i theta) over 12 radians) and the edge series below 1e-16; each E1 is
# within 4e-15 relative (tested below), an error the window energies
# weight by |N| / pi^2, below 0.1 for these notches.  So rounding sets the
# error: each field sums at most a few thousand terms pairwise, which
# costs log2(n) < 16 roundings of an absolute sum below one.  The largest
# error measured over these specs and the wider ones below is 3.3e-16.
ORACLE_TOLERANCE = 16 * 2.0**-52


def _oracle_errors(spec, mult):
    """Each report field's distance from the oracle at ``mult`` / Gamma_T."""
    t_rep = mult / spec.gamma_t
    report = analyze_filter(spec, t_rep)
    return {field: abs(getattr(report, field) - float(exact))
            for field, exact in oracles.filter_report(spec, t_rep).items()}


@pytest.mark.parametrize("mult", [0.1, 3.0, 100.0])
@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_report_matches_the_oracle(name, mult):
    for field, error in _oracle_errors(ORACLE_SPECS[name], mult).items():
        assert error <= ORACLE_TOLERANCE, field


# a notch from the center out 19 linewidths and the full-band notch, whose
# edges turn e^(i x tau) 40 and 2000 times faster than the preset's, and a
# notch ending at the center, where E1 meets its cut
@pytest.mark.parametrize("spec, mult", [
    (FilterSpec(linewidth_hz=21.7e3, notches=((0.0, 4.2e5),)), 3.0),
    (FilterSpec(linewidth_hz=21.7e3, notches=((0.0, 4.2e5),)), 80.0),
    (FULL_BAND, 3.0),
    (FilterSpec(linewidth_hz=21.7e3, center_hz=1e3, notches=((-3e3, 1e3),)), 3.0),
], ids=["19-linewidths-3", "19-linewidths-80", "full-band-3", "ends-at-center-3"])
def test_report_matches_the_oracle_beyond_the_preset(spec, mult):
    # eta_temporal is the in-window energy over eta_notch, 6.4e-4 for the
    # full band, so it carries the energies' error divided by eta_notch
    eta_notch = analyze_filter(spec).eta_notch
    for field, error in _oracle_errors(spec, mult).items():
        scale = eta_notch if field == "eta_temporal" else 1.0
        assert error * scale <= ORACLE_TOLERANCE, field


def test_edge_integrals_match_the_oracle():
    # every E1 regime and the boundaries between them: the power series
    # (near the origin and the cut), the continued fraction and the
    # asymptotic series, up to tau = 2 FAR_TAU and 1e4 half linewidths out
    rng = np.random.default_rng(7)
    r = 10.0 ** rng.uniform(-7, math.log10(4 * notched.FAR_TAU), 600)  # |z|
    theta = rng.uniform(-1.5707, 1.5707, 600)  # the angle of 1 + ix
    theta[::30] = 0.0
    x, tau = np.tan(theta), r * np.cos(theta)
    keep = tau <= 2 * notched.FAR_TAU
    x, tau = np.append(x[keep], 0.0), np.append(tau[keep], notched.FAR_TAU)
    got = [complex(notched._edge_integrals(np.array([b]), np.array([t]))[0, 0])
           for b, t in zip(x, tau)]
    for b, t, value in zip(x, tau, got):
        exact = complex(oracles.edge_integral(b, t))
        # E1 to a few ulp, and e^(ix tau) from the rounded product x tau
        assert abs(value - exact) <= (4e-15 + abs(b * t) * 2.0**-52) * abs(exact), (b, t)


def test_e1_in_the_right_half_plane_matches_the_oracle():
    # the arguments tau (1 - ix) of the closed-form e^-tau cross term
    rng = np.random.default_rng(8)
    z = 10.0 ** rng.uniform(-7, math.log10(4 * notched.FAR_TAU), 600) * np.exp(
        1j * rng.uniform(-1.5707, 1.5707, 600))
    z = z[np.abs(z) < 2 * notched.FAR_TAU]
    series, value = notched._e1(z, np.angle(z))
    got = np.where(series, value, np.exp(-z) * value)
    for point, value in zip(z, got):
        exact = complex(oracles.e1(point))
        assert abs(value - exact) <= 4e-15 * abs(exact), point


def test_the_report_loads_no_fft_module(child_env):
    # the CLI loads the model only when it reports a filter, and the report
    # loads no more of numpy than the subcommands that never run a filter
    code = ("import sys, quduct.cli\n"
            "watched = ('quduct.notched', 'numpy.fft', 'numpy.polynomial')\n"
            "print(sorted(m for m in watched if m in sys.modules))\n"
            "from quduct import filters\n"
            "filters.analyze_filter(filters.tuned_preset())\n"
            "print(sorted(m for m in watched if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n['quduct.notched']\n"
