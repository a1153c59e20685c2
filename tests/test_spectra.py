import csv

import numpy as np
import pytest

from quduct.spectra import (
    SPECTRUM_CSV_HEADER,
    ExclusionBands,
    FrequencyGrid,
    LorentzianFit,
    Spectrum,
    averaged_added_noise,
    fit_lorentzian,
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


def test_exclusion_bands_merge_and_query():
    bands = ExclusionBands([(10.0, 20.0), (15.0, 30.0), (50.0, 60.0)])
    assert bands.bands == ((10.0, 30.0), (50.0, 60.0))
    x = np.array([5.0, 15.0, 40.0, 55.0])
    assert list(bands.excluded(x)) == [False, True, False, True]
    with pytest.raises(ValueError):
        ExclusionBands([(2.0, 1.0)])


def _noise_spectrum(floor=0.05, height=1.3, center=CENTER, fwhm=9e3, grid=GRID):
    """Floor plus a Lorentzian line of peak ``height`` and full width ``fwhm``."""
    u = (grid.frequencies() - center) / (fwhm / 2.0)
    return Spectrum(grid, floor + height / (1.0 + u * u))


def _efficiency(eta_peak, bandwidth_hz, grid=GRID):
    """Efficiency Lorentzian at CENTER; ``bandwidth_hz`` is the half-width."""
    return Spectrum(grid, eta_peak / (1.0 + ((grid.frequencies() - CENTER) / bandwidth_hz) ** 2))


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
    resynth = _noise_spectrum(fit1.floor, fit1.peak_height, fit1.center_hz, fit1.fwhm_hz)
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
    eff = _efficiency(0.4, 11e3)
    flat = Spectrum(GRID, np.full(GRID.n_points, 2.6))
    assert averaged_added_noise(flat, eff) == pytest.approx(2.6, rel=1e-12)


def test_averaged_excludes_spike():
    eff = _efficiency(0.4, 11e3)
    values = np.full(GRID.n_points, 2.6)
    f = GRID.frequencies()
    spike_zone = (f > CENTER + 4e3) & (f < CENTER + 6e3)
    values[spike_zone] += 50.0
    spec = Spectrum(GRID, values)
    exclude = ExclusionBands([(CENTER + 4e3, CENTER + 6e3)])
    assert averaged_added_noise(spec, eff, exclude) == pytest.approx(2.6, rel=1e-12)
    assert averaged_added_noise(spec, eff) > 2.6


def test_averaged_symmetric_half_exclusion():
    eff = _efficiency(0.4, 11e3)
    f = GRID.frequencies()
    symmetric = Spectrum(GRID, 1.0 + ((f - CENTER) / 50e3) ** 2)
    full = averaged_added_noise(symmetric, eff)
    half = averaged_added_noise(
        symmetric, eff, ExclusionBands([(CENTER, GRID.stop_hz + 1.0)])
    )
    assert half == pytest.approx(full, rel=1e-3)


def test_averaged_invariant_under_efficiency_rescale():
    eff = _efficiency(0.4, 11e3)
    scaled = Spectrum(GRID, 7.3 * eff.values)
    spec = _noise_spectrum()
    assert averaged_added_noise(spec, eff) == pytest.approx(
        averaged_added_noise(spec, scaled), rel=1e-13
    )


def test_averaged_matches_trapezoid_per_unexcluded_run():
    # four bands leave runs of several points and one single kept point,
    # which spans no interval and so carries no weight
    eff = _efficiency(0.4, 11e3)
    spec = _noise_spectrum()
    f = GRID.frequencies()
    h = GRID.spacing_hz
    bands = [(f[0] - 1.0, f[3] + 1.0), (f[100] - 1.0, f[100] + 1.0),
             (f[102] - 1.0, f[500] + 1.0), (f[1500] - 1.0, f[1800] + 1.0)]
    keep = ~ExclusionBands(bands).excluded(f)
    assert keep[101] and not keep[100] and not keep[102]
    numerator = denominator = 0.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], keep.astype(int), [0]))))
    for start, stop in zip(edges[::2], edges[1::2]):
        w = eff.values[start:stop]
        numerator += np.trapezoid(spec.values[start:stop] * w, dx=h)
        denominator += np.trapezoid(w, dx=h)
    # both sums add the same positive terms in another order, so each
    # differs by less than n eps relative
    assert averaged_added_noise(spec, eff, ExclusionBands(bands)) == pytest.approx(
        numerator / denominator, rel=2 * GRID.n_points * np.finfo(float).eps
    )


def test_averaged_zero_weight_errors():
    eff = _efficiency(0.4, 11e3)
    spec = _noise_spectrum()
    with pytest.raises(ValueError, match="zero total weight"):
        averaged_added_noise(spec, eff, ExclusionBands([(0.0, 1e9)]))


def test_averaged_trapezoid_second_order_convergence():
    # quadrupling the grid density shrinks the quadrature error by ~16x;
    # the contract only demands a factor of 3.9
    def weighted_mean(n):
        grid = FrequencyGrid(CENTER - 30e3, CENTER + 30e3, n)
        f = grid.frequencies()
        eff = _efficiency(0.4, 11e3, grid)
        # the phase offset keeps the integrand asymmetric about the peak,
        # so trapezoid errors cannot cancel by symmetry
        smooth = Spectrum(grid, 2.0 + np.sin((f - CENTER) / 2e4 + 0.7))
        return averaged_added_noise(smooth, eff)

    reference = weighted_mean(4 * 4096 + 1)
    err_coarse = abs(weighted_mean(65) - reference)
    err_fine = abs(weighted_mean(257) - reference)  # 4x density (matched endpoints)
    assert err_coarse / err_fine >= 3.9


def test_spectrum_csv_round_trip(tmp_path):
    from quduct.spectra import read_spectrum_csv

    spec = _noise_spectrum()
    path = tmp_path / "spectrum.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPECTRUM_CSV_HEADER)
        writer.writerows(zip(spec.grid.frequencies().tolist(), spec.values.tolist()))
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


@pytest.mark.parametrize("rows, message", [
    (["0.0,1.0", "1.0,1.0", "3.0,1.0"], "frequency grid is not uniform"),
    (["0.0,1.0", "1.0,1.0", "1.0,2.0"], "frequencies must be strictly increasing"),
    (["0.0,1.0", ""], "spectrum needs at least 2 rows"),
])
def test_spectrum_csv_names_the_file_of_a_bad_grid(tmp_path, rows, message):
    from quduct.spectra import read_spectrum_csv

    path = tmp_path / "spectrum.csv"
    path.write_text("\n".join(["freq_hz,value", *rows]) + "\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("row", ["4.0,nan", "4.0,inf", "nan,1.0"])
def test_spectrum_csv_names_the_line_of_a_nonfinite_value(tmp_path, row):
    from quduct.spectra import read_spectrum_csv

    path = tmp_path / "spectrum.csv"
    rows = [f"{f!r},1.0" for f in range(50)]
    rows[4] = row  # file line 6, after the header
    path.write_text("freq_hz,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}: line 6: {row} is not finite"
