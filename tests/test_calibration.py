import math
import re

import numpy as np
import pytest

from quduct.calibration import (
    OccupancyRecord,
    ReadoutCalInput,
    fit_occupancy,
    load_occupancy_records,
    xi_e,
)
from quduct.core import TWO_PI, rate_from_hz


def synth_records(a_per_hz, b, gammas_hz, sigma=0.05, noise=None, rng=None):
    records = []
    for f in gammas_hz:
        value = a_per_hz * f + b
        if noise is not None:
            value += rng.normal(0.0, noise)
        records.append(
            OccupancyRecord(
                gamma_e=rate_from_hz(f), n_bar_e=max(value, 0.0), sigma=sigma
            )
        )
    return records


def test_fit_round_trips_noiseless():
    gammas = np.linspace(1e3, 30e3, 12)
    records = synth_records(1.3e-5, 0.7, gammas)
    fit = fit_occupancy(records)
    assert fit.a_e_per_hz == pytest.approx(1.3e-5, rel=1e-10)
    assert fit.b_e == pytest.approx(0.7, rel=1e-10)


def test_two_point_fit_interpolates():
    records = synth_records(2e-5, 0.1, [5e3, 25e3])
    fit = fit_occupancy(records)
    assert fit.a_e_per_hz == pytest.approx(2e-5, rel=1e-10)
    assert fit.b_e == pytest.approx(0.1, rel=1e-10)


def test_fit_requires_two_distinct_rates():
    with pytest.raises(ValueError, match="at least 2"):
        fit_occupancy(synth_records(1e-5, 0.1, [5e3]))
    with pytest.raises(ValueError, match="slope is undetermined"):
        fit_occupancy(synth_records(1e-5, 0.1, [5e3, 5e3, 5e3]))


def test_slope_ratio_between_devices():
    gammas = np.linspace(2e3, 40e3, 9)
    current = fit_occupancy(synth_records(1.05e-5, 0.17, gammas))
    prior = fit_occupancy(synth_records(9.44e-4, 0.093, gammas))
    ratio = prior.a_e_per_hz / current.a_e_per_hz
    assert ratio == pytest.approx(9.44e-4 / 1.05e-5, rel=1e-9)
    assert ratio == pytest.approx(89.9, rel=0.01)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(5)
    gammas = np.linspace(1e3, 30e3, 25)
    records = synth_records(1.3e-5, 0.7, gammas, sigma=0.1, noise=0.1, rng=rng)
    fit = fit_occupancy(records)
    g = np.array([r.gamma_e for r in records])
    y = np.array([r.n_bar_e for r in records])
    w = 1.0 / np.array([r.sigma for r in records]) ** 2
    resid = y - (fit.a_e * g + fit.b_e)
    scale = float(np.sqrt(np.sum(w * y**2)))
    assert abs(np.sum(w * resid)) <= 1e-8 * scale
    assert abs(np.sum(w * resid * g)) <= 1e-8 * scale * np.max(g)


def test_covariance_coverage_on_synthetic_noise():
    # with known per-point sigma the reported 2-sigma intervals must cover
    # the truth in at least 90% of trials
    rng = np.random.default_rng(1234)
    a_true_per_hz, b_true = 1.3e-5, 0.7
    gammas = np.linspace(1e3, 30e3, 10)
    sigma = 0.05
    hits = 0
    trials = 1000
    for _ in range(trials):
        records = synth_records(
            a_true_per_hz, b_true, gammas, sigma=sigma, noise=sigma, rng=rng
        )
        fit = fit_occupancy(records)
        ok_a = abs(fit.a_e - a_true_per_hz / TWO_PI) <= 2.0 * fit.sigma_a_e
        ok_b = abs(fit.b_e - b_true) <= 2.0 * fit.sigma_b_e
        hits += ok_a and ok_b
    assert hits / trials >= 0.90


def test_unweighted_flag_overrides_sigmas():
    gammas = [1e3, 5e3, 9e3, 20e3]
    records = [
        OccupancyRecord(gamma_e=rate_from_hz(f), n_bar_e=1e-5 * f + 0.2, sigma=s)
        for f, s in zip(gammas, [0.01, 5.0, 0.01, 5.0])
    ]
    weighted = fit_occupancy(records)
    unweighted = fit_occupancy(records, unweighted=True)
    # noiseless data: same line either way, different covariance scale
    assert weighted.a_e == pytest.approx(unweighted.a_e, rel=1e-9)
    assert weighted.sigma_a_e != pytest.approx(unweighted.sigma_a_e, rel=1e-3)


def test_load_occupancy_csv(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "gamma_e_hz,n_bar_e,sigma,method\n"
        "1000.0,0.21,0.05,microwave\n"
        "5000.0,0.25,0.05,optomechanical\n"
    )
    records = load_occupancy_records(path)
    assert len(records) == 2
    assert records[0].gamma_e == pytest.approx(rate_from_hz(1000.0))
    assert records[1].method == "optomechanical"


def test_load_occupancy_reports_bad_lines(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "gamma_e_hz,n_bar_e,sigma,method\n"
        "1000.0,0.21,0.05,microwave\n"
        "oops,0.25,0.05,microwave\n"
        "2000.0,0.3,-1.0,microwave\n"
    )
    with pytest.raises(ValueError, match="line 3.*line 4"):
        load_occupancy_records(path)


@pytest.mark.parametrize("row, message", [
    ("2000,nan,0.05,microwave", "n_bar_e must be finite, got nan"),
    ("nan,0.3,0.05,microwave", "gamma_e must be finite, got nan"),
    ("inf,0.3,0.05,microwave", "gamma_e must be finite, got inf"),
    ("2000,inf,0.05,microwave", "n_bar_e must be finite, got inf"),
    ("2000,0.3,inf,microwave", "sigma must be finite, got inf"),
    ("2000,0.3,nan,microwave", "sigma must be finite, got nan"),
    ("-1000,0.3,0.05,microwave", f"gamma_e must be nonnegative, got {rate_from_hz(-1000.0)}"),
])
def test_load_occupancy_rejects_a_nonfinite_or_negative_field_by_line(tmp_path, row, message):
    path = tmp_path / "records.csv"
    path.write_text("gamma_e_hz,n_bar_e,sigma,method\n1000.0,0.21,0.05,microwave\n" + row + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 3: {message}')}$"):
        load_occupancy_records(path)


def test_occupancy_record_accepts_a_zero_rate():
    assert OccupancyRecord(gamma_e=0.0, n_bar_e=0.7, sigma=0.05).gamma_e == 0.0
    assert OccupancyRecord(gamma_e=-0.0, n_bar_e=0.7, sigma=0.05).gamma_e == 0.0


def test_xi_e_degenerate_product():
    cal = ReadoutCalInput(
        xi_o=0.4, eps_cl=1.0, ratio_det=1.0,
        kappa_e_over_ext=1.0, kappa_o_ext_over=1.0,
        gamma_o_over_e=1.0, gain_o_over_e=1.0,
    )
    assert xi_e(cal) == pytest.approx(0.4, rel=1e-15)


def test_xi_e_consistent_factor_set_hits_published_value():
    # individual factors are not all published; this set is constructed to
    # be mutually consistent and multiply to the published 0.010
    partial = 0.4 * 0.95 * 1.25 * 0.75 * 1.375 * 0.999
    cal = ReadoutCalInput(
        xi_o=0.4,
        eps_cl=0.95,
        ratio_det=0.010 / partial,
        kappa_e_over_ext=1.25,
        kappa_o_ext_over=0.75,
        gamma_o_over_e=1.375,
        gain_o_over_e=0.999,
    )
    assert xi_e(cal) == pytest.approx(0.010, rel=1e-12)


def test_xi_e_linear_in_each_factor():
    base = ReadoutCalInput(
        xi_o=0.4, eps_cl=0.9, ratio_det=0.02,
        kappa_e_over_ext=1.2, kappa_o_ext_over=0.8,
        gamma_o_over_e=1.4, gain_o_over_e=1.01,
    )
    scaled = ReadoutCalInput(
        xi_o=0.4, eps_cl=0.9, ratio_det=0.02 * 3.0,
        kappa_e_over_ext=1.2, kappa_o_ext_over=0.8,
        gamma_o_over_e=1.4, gain_o_over_e=1.01,
    )
    assert xi_e(scaled) == pytest.approx(3.0 * xi_e(base), rel=1e-12)


def test_readout_input_validation():
    with pytest.raises(ValueError, match="xi_o"):
        ReadoutCalInput(
            xi_o=1.4, eps_cl=0.9, ratio_det=0.02,
            kappa_e_over_ext=1.2, kappa_o_ext_over=0.8,
            gamma_o_over_e=1.4, gain_o_over_e=1.01,
        )
    with pytest.raises(ValueError, match="ratio_det"):
        ReadoutCalInput(
            xi_o=0.4, eps_cl=0.9, ratio_det=0.0,
            kappa_e_over_ext=1.2, kappa_o_ext_over=0.8,
            gamma_o_over_e=1.4, gain_o_over_e=1.01,
        )
