import numpy as np
import pytest

from quduct import filters
from quduct.capacity import (
    ChannelSpec,
    cap_integrated_closed,
    cap_small_eta,
    cap_ub_point,
    capacity_contours,
)
from quduct.cli import cli_dispatch
from quduct.filters import filter_report, impulse_response
from quduct.registry import bundled_registry_path, contour_csv, csv_text

EXAMPLE_CFG = str(bundled_registry_path().parent / "example_device.cfg")

BAD_CFG = """
[device]
omega_m_hz = 1.27e6
gamma_m_hz = 15
kappa_e_hz = 1.0e6
kappa_e_ext_hz = 2.0e6
kappa_o_hz = 1.2e6
kappa_o_ext_hz = 0.9e6

[noise]
n_th_gamma_m_hz = 4150

[operating_point.up]
gamma_e_hz = 11000
gamma_o_hz = 11000
"""


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--config", EXAMPLE_CFG)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_failure_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BAD_CFG)
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 1
    assert "external exceeds total" in out


def test_noise_row(capsys):
    code, out, _ = run(
        capsys, "noise", "--config", EXAMPLE_CFG, "--direction", "up",
        "--gamma-e-hz", "11000", "--gamma-o-hz", "11000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("direction,model,")
    fields = lines[1].split(",")
    assert fields[0] == "up"
    assert float(fields[-1]) > 0


def test_noise_needs_an_operating_point(capsys):
    code, _, err = run(
        capsys, "noise", "--config", EXAMPLE_CFG, "--direction", "up",
        "--gamma-e-hz", "11000",
    )
    assert code == 1
    assert "gamma-o-hz" in err


def test_capacity_point_cross_checks_library(capsys):
    code, out, _ = run(
        capsys, "capacity", "--eta", "0.5", "--n-add", "0",
        "--bandwidth-hz", "1", "--duty", "1",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    c_ub, integrated = float(row[5]), float(row[6])
    assert c_ub == pytest.approx(1.0, rel=1e-12)
    expected = cap_integrated_closed(ChannelSpec(0.5, 0.0, 1.0))
    assert integrated == pytest.approx(expected, rel=1e-12)


def _csv_lines(header, rows):
    """CSV text as the CLI writes it, floats rendered one value at a time."""
    return "".join(
        ",".join(f if isinstance(f, str) else repr(float(f)) for f in row) + "\r\n"
        for row in [header, *rows]
    )


def test_capacity_grid(capsys):
    # rows start at eta = 0 and n_add = 0 and cross n_add = 1, where the
    # bound turns to zero; any ulp of drift in a cell changes the bytes
    code, out, _ = run(
        capsys, "capacity", "--grid-eta", "0:0.95:30", "--grid-n-add", "0:1.2:25",
    )
    assert code == 0
    expected = _csv_lines(
        ["eta", "n_add", "c_ub"],
        [(eta, n_add, cap_ub_point(eta, n_add))
         for eta in np.linspace(0.0, 0.95, 30) for n_add in np.linspace(0.0, 1.2, 25)],
    )
    assert out == expected


def test_capacity_grid_out_of_range_writes_nothing(capsys):
    code, out, err = run(
        capsys, "capacity", "--grid-eta", "0.5:1:3", "--grid-n-add", "0:0.9:4",
    )
    assert code == 1
    assert out == ""
    assert "eta" in err


def test_capacity_throughput_grid(capsys):
    # 60 n_add values, enough that a slope taken with np.log instead of
    # the scalar math.log of cap_small_eta differs in some cell
    code, out, _ = run(
        capsys, "capacity", "--grid-throughput-hz", "0.5:2e5:10",
        "--grid-n-add", "0:1.2:60",
    )
    assert code == 0
    expected = _csv_lines(
        ["throughput_hz", "n_add", "cap_qubits_per_s", "form"],
        [(theta, n_add, cap_small_eta(n_add, theta), "small-eta")
         for theta in np.geomspace(0.5, 2e5, 10) for n_add in np.linspace(0.0, 1.2, 60)],
    )
    assert out == expected


def test_contours_csv(capsys):
    code, out, _ = run(
        capsys, "contours", "--levels", "10,1000",
        "--throughput-range-hz", "1:100000", "--n", "33",
    )
    assert code == 0
    assert out.splitlines()[0] == "level,x_throughput_hz,y_n_add"
    lines = capacity_contours([10.0, 1000.0], (1.0, 100000.0), (0.001, 0.999), 33)
    expected = _csv_lines(
        ["level", "x_throughput_hz", "y_n_add"],
        [(line.level, theta, n_add)
         for line in lines for theta, n_add in zip(line.throughput_hz, line.n_add)],
    )
    assert out == expected
    assert out == contour_csv([10.0, 1000.0], (1.0, 100000.0), (0.001, 0.999), 33)
    assert len(out.splitlines()) > 10


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--eta", "0.4", "--n-add", "0.5", "--bandwidth-hz", "22000"),
        ("sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--range-hz", "1000:2000",
         "--gamma-o-hz", "11000", "--n", "3"),
        ("optimize", "--config", EXAMPLE_CFG, "--direction", "up", "--gamma-o-hz", "11000"),
    ],
    ids=["capacity", "sweep", "optimize"],
)
def test_zero_duty_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--duty", "0")
    assert code == 1
    assert out == ""
    assert "duty" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--eta", "0.4", "--n-add", "nan"),
        ("capacity", "--grid-throughput-hz", "1:10:2", "--grid-n-add=-1:1.5:3"),
    ],
    ids=["point-nan", "throughput-grid-negative"],
)
def test_capacity_bad_n_add_writes_nothing(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "n_add" in err


def test_capacity_throughput_grid_zero_above_unit_noise(capsys):
    code, out, _ = run(
        capsys, "capacity", "--grid-throughput-hz", "1:10:2", "--grid-n-add", "0:1.5:3",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows if row[1] == "1.5"] == ["0.0", "0.0"]


def test_filter_analysis_preset(capsys):
    code, out, _ = run(capsys, "filter-analysis", "--preset", "paper")
    assert code == 0
    values = dict(
        line.split("=") for line in out.strip().splitlines() if "=" in line
    )
    assert float(values["eta_notch"]) == pytest.approx(0.94, abs=1e-3)
    assert 0.84 <= float(values["eta_total"]) <= 0.88


def test_filter_analysis_explicit_notch(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "filter-analysis", "--linewidth-hz", "21700",
        "--notch", "4000:6000", "--trace", str(trace),
    )
    assert code == 0
    assert trace.exists()
    header = trace.read_text().splitlines()[0]
    assert header == "t_s,energy_density"


def test_filter_analysis_preset_needs_sixteen_points_per_notch(capsys):
    code, out, err = run(capsys, "filter-analysis", "--preset", "paper", "--n-points", "16384")
    assert code == 1
    assert out == ""
    assert "fewer than 16 grid points" in err


def test_filter_analysis_preset_tunes_on_the_given_span(capsys):
    code, out, _ = run(capsys, "filter-analysis", "--preset", "paper", "--span-hz", "1.2e6")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines() if "=" in line)
    notches = "-9552.48046875:-8447.51953125;4171.279296875:5828.720703125"
    assert values["notches"] == notches
    assert abs(float(values["eta_notch"]) - filters.PRESET_ETA_NOTCH) <= filters.PRESET_TOLERANCE


@pytest.mark.parametrize(
    "flag, value", [("--linewidth-hz", "20000"), ("--notch", "4000:6000"), ("--center-hz", "0")]
)
def test_filter_analysis_preset_rejects_filter_flags(capsys, flag, value):
    code, out, err = run(capsys, "filter-analysis", "--preset", "paper", flag, value)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, name",
    [
        (("--linewidth-hz", "21700", "--t-rep-s", "inf"), "t_rep_s"),
        (("--linewidth-hz", "21700", "--t-rep-s", "nan"), "t_rep_s"),
        (("--linewidth-hz", "21700", "--t-rep-mult", "nan"), "t_rep_s"),
        (("--linewidth-hz", "nan"), "linewidth_hz"),
        (("--linewidth-hz", "inf"), "linewidth_hz"),
        (("--linewidth-hz", "21700", "--center-hz", "nan"), "center_hz"),
    ],
)
def test_filter_analysis_nonfinite_input_writes_nothing(capsys, argv, name):
    code, out, err = run(capsys, "filter-analysis", "--n-points", "65536", *argv)
    assert code == 1
    assert out == ""
    assert name in err


def test_filter_analysis_trace_reuses_the_response(tmp_path, capsys, monkeypatch):
    responses = []

    def counted(*args, **kwargs):
        responses.append(impulse_response(*args, **kwargs))
        return responses[-1]

    monkeypatch.setattr(filters, "impulse_response", counted)
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "filter-analysis", "--linewidth-hz", "21700", "--notch", "4000:6000",
        "--n-points", "65536", "--trace", str(trace),
    )
    assert code == 0
    assert len(responses) == 1
    (response,) = responses
    report = filter_report(response, 3.0 / (2 * np.pi * 21700))
    assert f"eta_total={report.eta_total!r}" in out.splitlines()
    with open(trace, newline="") as fh:
        assert fh.read() == csv_text(
            ["t_s", "energy_density"], zip(response.times_s, response.energy_density)
        )


def test_fit_occupancy_cli(tmp_path, capsys):
    path = tmp_path / "records.csv"
    rows = ["gamma_e_hz,n_bar_e,sigma,method"]
    for f in (1000.0, 4000.0, 9000.0, 16000.0):
        rows.append(f"{f},{1.3e-5 * f + 0.7},0.05,optomechanical")
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        capsys, "fit-occupancy", "--records", str(path), "--method", "optomechanical",
    )
    assert code == 0
    values = dict(
        line.split("=") for line in out.strip().splitlines() if "=" in line
    )
    assert float(values["a_e_per_hz"]) == pytest.approx(1.3e-5, rel=1e-9)
    assert float(values["b_e"]) == pytest.approx(0.7, rel=1e-9)


def test_xi_e_cli(capsys):
    code, out, _ = run(
        capsys, "xi-e", "--xi-o", "0.4", "--eps-cl", "1", "--ratio-det", "1",
        "--kappa-e-over-ext", "1", "--kappa-o-ext-over", "1",
        "--gamma-o-over-e", "1", "--gain-o-over-e", "1",
    )
    assert code == 0
    assert out.strip() == "xi_e=0.4"


def test_sweep_csv_header(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "up",
        "--variable", "gamma-e", "--range-hz", "1000:100000", "--n", "7",
        "--gamma-o-hz", "11000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "gamma_e_hz,gamma_o_hz,throughput_hz,n_add_total,"
        "n_add_motional,n_add_em,n_add_corr"
    )
    assert len(lines) == 8


def test_optimize_cli(capsys):
    code, out, _ = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "up",
        "--gamma-o-hz", "11000",
    )
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert values["at_boundary"] == "False"
    assert float(values["gamma_e_hz"]) > 0


def test_compare_bundle(tmp_path, capsys):
    code, out, _ = run(
        capsys, "compare", "--direction", "down", "--levels", "100,1000",
        "--out-dir", str(tmp_path), "--config", EXAMPLE_CFG,
    )
    assert code == 0
    scatter = (tmp_path / "scatter_down.csv").read_text()
    assert "Sahu 2022" in scatter
    assert "Meesala 2024" in scatter
    assert "config:down" in scatter
    assert (tmp_path / "contours_down.csv").exists()


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    args = [
        "capacity", "--grid-eta", "0.05:0.95:7", "--grid-n-add", "0:0.99:6",
    ]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_fit_spectrum_cli(tmp_path, capsys):
    import numpy as np
    from quduct.spectra import (
        FrequencyGrid,
        LorentzComponent,
        synth_output_noise,
        write_spectrum_csv,
    )

    grid = FrequencyGrid(1.2e6, 1.34e6, 1401)
    comp = LorentzComponent(center_hz=1.27e6, fwhm_hz=9e3, height=1.3)
    spectrum = synth_output_noise([comp], floor=0.05, grid=grid)
    values = spectrum.values.copy()
    f = grid.frequencies()
    zone = (f >= 1.275e6) & (f <= 1.277e6)
    values[zone] += 20.0
    contaminated = synth_output_noise([comp], floor=0.05, grid=grid)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(
        type(contaminated)(grid, values), path
    )
    code, out, _ = run(
        capsys, "fit-spectrum", "--spectrum", str(path),
        "--exclude", "1.275e6:1.277e6",
    )
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert float(fields["fwhm_hz"]) == pytest.approx(9e3, rel=1e-6)
    assert float(fields["peak_height"]) == pytest.approx(1.3, rel=1e-6)
