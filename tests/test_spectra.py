import numpy as np
import pytest

from quduct.spectra import (
    ExclusionBands,
    FrequencyGrid,
    LorentzComponent,
    LorentzianFit,
    Spectrum,
    averaged_added_noise,
    efficiency_lineshape,
    fit_lorentzian,
    input_refer,
    synth_output_noise,
)

GRID = FrequencyGrid(start_hz=1.2e6, stop_hz=1.34e6, n_points=2001)
CENTER = 1.27e6


def test_grid_basics():
    f = GRID.frequencies()
    assert f[0] == GRID.start_hz and f[-1] == GRID.stop_hz
    assert np.allclose(np.diff(f), GRID.spacing_hz)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 1.0, 10)


def test_lineshape_peak_and_half_width():
    bw = 11e3  # half-width at half-maximum by convention
    spec = efficiency_lineshape(0.4, bw, GRID, CENTER)
    f = GRID.frequencies()
    assert spec.values[np.argmin(np.abs(f - CENTER))] == pytest.approx(0.4, rel=1e-6)
    at_hwhm = 0.4 / (1.0 + ((CENTER + bw - CENTER) / bw) ** 2)
    assert at_hwhm == pytest.approx(0.2)
    idx = np.argmin(np.abs(f - (CENTER + bw)))
    assert spec.values[idx] == pytest.approx(0.2, rel=1e-3)


def test_exclusion_bands_merge_and_query():
    bands = ExclusionBands([(10.0, 20.0), (15.0, 30.0), (50.0, 60.0)])
    assert bands.bands == ((10.0, 30.0), (50.0, 60.0))
    x = np.array([5.0, 15.0, 40.0, 55.0])
    assert list(bands.excluded(x)) == [False, True, False, True]
    with pytest.raises(ValueError):
        ExclusionBands([(2.0, 1.0)])


def test_synth_single_component_area():
    comp = LorentzComponent(center_hz=CENTER, fwhm_hz=4e3, area=2.5)
    spec = synth_output_noise([comp], floor=0.0, grid=GRID)
    f = GRID.frequencies()
    total = np.trapezoid(spec.values, f)
    assert total == pytest.approx(2.5, rel=2e-2)  # finite window clips the tails
    assert spec.values.max() == pytest.approx(2.5 * 2 / (np.pi * 4e3), rel=1e-3)


def test_synth_squashing_dip():
    floor = 1.0
    dip = LorentzComponent(center_hz=CENTER, fwhm_hz=2e3, height=0.4, sign=-1)
    spec = synth_output_noise([dip], floor=floor, grid=GRID)
    f = GRID.frequencies()
    center_idx = np.argmin(np.abs(f - CENTER))
    assert spec.values[center_idx] == pytest.approx(0.6, rel=1e-6)
    # the dip subtracts everywhere, so the spectrum stays below the floor
    # and recovers toward it in the far tails
    assert np.all(spec.values <= floor)
    assert spec.values.max() == pytest.approx(floor, rel=1e-3)
    assert np.argmin(spec.values) == center_idx


def test_synth_is_pointwise_sum():
    a = LorentzComponent(center_hz=CENTER - 3e3, fwhm_hz=2e3, height=1.0)
    b = LorentzComponent(center_hz=CENTER + 3e3, fwhm_hz=5e3, height=0.5)
    combined = synth_output_noise([a, b], floor=0.2, grid=GRID)
    only_a = synth_output_noise([a], floor=0.2, grid=GRID)
    only_b = synth_output_noise([b], floor=0.0, grid=GRID)
    assert np.allclose(combined.values, only_a.values + only_b.values, rtol=1e-13)


def test_synth_clamps_with_warning():
    dip = LorentzComponent(center_hz=CENTER, fwhm_hz=2e3, height=2.0, sign=-1)
    with pytest.warns(UserWarning, match="clamped"):
        spec = synth_output_noise([dip], floor=1.0, grid=GRID)
    assert spec.values.min() == 0.0


def test_input_refer_ratio_identity():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    noise = Spectrum(GRID, eff.values.copy())
    referred = input_refer(noise, eff)
    valid = referred.valid_mask()
    assert valid.sum() > 0
    assert np.allclose(referred.values[valid], 1.0, rtol=1e-12)


def test_input_refer_proportional_lorentzians_are_flat():
    # output noise = 2.6 * efficiency lineshape -> flat 2.6 when referred
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    noise = Spectrum(GRID, 2.6 * eff.values)
    referred = input_refer(noise, eff)
    valid = referred.valid_mask()
    assert np.allclose(referred.values[valid], 2.6, rtol=1e-12)


def test_input_refer_masks_band_edges():
    wide = FrequencyGrid(CENTER - 5e6, CENTER + 5e6, 4001)
    eff = efficiency_lineshape(0.4, 11e3, wide, CENTER)
    noise = Spectrum(wide, np.ones(wide.n_points))
    referred = input_refer(noise, eff)
    masked_count = int((~referred.valid_mask()).sum())
    assert masked_count > 0
    assert np.all(np.isfinite(referred.values[referred.valid_mask()]))


def test_input_refer_grid_mismatch():
    other = FrequencyGrid(0.0, 1.0, 10)
    eff = efficiency_lineshape(0.4, 0.1, other, 0.5)
    noise = Spectrum(GRID, np.ones(GRID.n_points))
    with pytest.raises(ValueError, match="grid"):
        input_refer(noise, eff)


def _noise_spectrum(floor=0.05, height=1.3, center=CENTER, fwhm=9e3, grid=GRID):
    comp = LorentzComponent(center_hz=center, fwhm_hz=fwhm, height=height)
    return synth_output_noise([comp], floor=floor, grid=grid)


def test_fit_recovers_noiseless_parameters():
    spec = _noise_spectrum()
    fit = fit_lorentzian(spec, ExclusionBands())
    assert fit.converged
    assert fit.center_hz == pytest.approx(CENTER, abs=1e-2)
    assert fit.fwhm_hz == pytest.approx(9e3, rel=1e-6)
    assert fit.peak_height == pytest.approx(1.3, rel=1e-6)
    assert fit.floor == pytest.approx(0.05, rel=1e-6)
    assert fit.residual_norm < 1e-8


def test_fit_with_excluded_spike():
    # contamination confined to the excluded band: the unexcluded points
    # are exactly the clean line, so exclusion must recover it exactly
    base = _noise_spectrum(floor=0.05, height=1.3, fwhm=9e3)
    f = GRID.frequencies()
    zone = (f >= CENTER + 4e3) & (f <= CENTER + 6e3)
    values = base.values.copy()
    values[zone] += 30.0 / (1.0 + ((f[zone] - (CENTER + 5e3)) / 150.0) ** 2)
    spec = Spectrum(GRID, values)
    exclude = ExclusionBands([(CENTER + 4e3, CENTER + 6e3)])
    fit = fit_lorentzian(spec, exclude)
    assert fit.fwhm_hz == pytest.approx(9e3, rel=1e-6)
    assert fit.peak_height == pytest.approx(1.3, rel=1e-6)
    assert fit.floor == pytest.approx(0.05, rel=1e-6)

    unexcluded = fit_lorentzian(spec, ExclusionBands())
    assert unexcluded.residual_norm > fit.residual_norm


def test_fit_round_trip_idempotent():
    spec = _noise_spectrum()
    fit1 = fit_lorentzian(spec, ExclusionBands())
    resynth = Spectrum(GRID, fit1.evaluate(GRID.frequencies()))
    fit2 = fit_lorentzian(resynth, ExclusionBands())
    assert fit2.center_hz == pytest.approx(fit1.center_hz, abs=1.0)
    assert fit2.fwhm_hz == pytest.approx(fit1.fwhm_hz, rel=1e-6)
    assert fit2.peak_height == pytest.approx(fit1.peak_height, rel=1e-6)


def test_fit_needs_enough_points():
    grid = FrequencyGrid(0.0, 1.0, 12)
    spec = Spectrum(grid, np.ones(12))
    with pytest.raises(ValueError, match="at least 8"):
        fit_lorentzian(spec, ExclusionBands([(0.0, 0.9)]))


def test_fit_accepts_initial_guess():
    spec = _noise_spectrum()
    init = LorentzianFit(center_hz=CENTER + 2e3, fwhm_hz=5e3, peak_height=1.0, floor=0.0)
    fit = fit_lorentzian(spec, init=init)
    assert fit.fwhm_hz == pytest.approx(9e3, rel=1e-6)


def test_averaged_constant_noise():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    flat = Spectrum(GRID, np.full(GRID.n_points, 2.6))
    assert averaged_added_noise(flat, eff) == pytest.approx(2.6, rel=1e-12)


def test_averaged_excludes_spike():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    values = np.full(GRID.n_points, 2.6)
    f = GRID.frequencies()
    spike_zone = (f > CENTER + 4e3) & (f < CENTER + 6e3)
    values[spike_zone] += 50.0
    spec = Spectrum(GRID, values)
    exclude = ExclusionBands([(CENTER + 4e3, CENTER + 6e3)])
    assert averaged_added_noise(spec, eff, exclude) == pytest.approx(2.6, rel=1e-12)
    assert averaged_added_noise(spec, eff) > 2.6


def test_averaged_symmetric_half_exclusion():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    f = GRID.frequencies()
    symmetric = Spectrum(GRID, 1.0 + ((f - CENTER) / 50e3) ** 2)
    full = averaged_added_noise(symmetric, eff)
    half = averaged_added_noise(
        symmetric, eff, ExclusionBands([(CENTER, GRID.stop_hz + 1.0)])
    )
    assert half == pytest.approx(full, rel=1e-3)


def test_averaged_invariant_under_efficiency_rescale():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    scaled = Spectrum(GRID, 7.3 * eff.values)
    spec = _noise_spectrum()
    assert averaged_added_noise(spec, eff) == pytest.approx(
        averaged_added_noise(spec, scaled), rel=1e-13
    )


def test_averaged_zero_weight_errors():
    eff = efficiency_lineshape(0.4, 11e3, GRID, CENTER)
    spec = _noise_spectrum()
    with pytest.raises(ValueError, match="zero total weight"):
        averaged_added_noise(spec, eff, ExclusionBands([(0.0, 1e9)]))


def test_averaged_trapezoid_second_order_convergence():
    # quadrupling the grid density shrinks the quadrature error by ~16x;
    # the contract only demands a factor of 3.9
    def weighted_mean(n):
        grid = FrequencyGrid(CENTER - 30e3, CENTER + 30e3, n)
        f = grid.frequencies()
        eff = efficiency_lineshape(0.4, 11e3, grid, CENTER)
        # the phase offset keeps the integrand asymmetric about the peak,
        # so trapezoid errors cannot cancel by symmetry
        smooth = Spectrum(grid, 2.0 + np.sin((f - CENTER) / 2e4 + 0.7))
        return averaged_added_noise(smooth, eff)

    reference = weighted_mean(4 * 4096 + 1)
    err_coarse = abs(weighted_mean(65) - reference)
    err_fine = abs(weighted_mean(257) - reference)  # 4x density (matched endpoints)
    assert err_coarse / err_fine >= 3.9


def test_input_refer_of_scaled_synth_is_constant():
    eff = efficiency_lineshape(0.5, 8e3, GRID, CENTER)
    noise = Spectrum(GRID, eff.values * 3.7)
    referred = input_refer(noise, eff)
    valid = referred.valid_mask()
    assert np.allclose(referred.values[valid], 3.7, rtol=1e-12)


def test_spectrum_csv_round_trip(tmp_path):
    from quduct.spectra import read_spectrum_csv, write_spectrum_csv

    spec = _noise_spectrum()
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path)
    again = read_spectrum_csv(path)
    assert again.grid == spec.grid
    assert np.array_equal(again.values, spec.values)


def test_spectrum_csv_rejects_nonuniform(tmp_path):
    from quduct.spectra import read_spectrum_csv

    path = tmp_path / "bad.csv"
    path.write_text("freq_hz,value\n0.0,1.0\n1.0,1.0\n3.0,1.0\n")
    with pytest.raises(ValueError, match="not uniform"):
        read_spectrum_csv(path)
    path.write_text("value,freq_hz\n0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_spectrum_csv(path)
