import numpy as np
import pytest

from quduct import filters, noise
from quduct.capacity import (
    ChannelSpec,
    cap_integrated_closed,
    cap_small_eta,
    cap_ub_point,
    capacity_contours,
)
from quduct.cli import cli_dispatch
from quduct.config import load_config
from quduct.core import (
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
)
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


def _levels_argv(command, out_dir):
    """A ``contours`` or ``compare`` invocation, less its ``--levels``."""
    if command == "contours":
        return ["contours", "--n", "33"]
    return ["compare", "--direction", "up", "--out-dir", str(out_dir)]


@pytest.mark.parametrize("command", ["contours", "compare"])
def test_levels_skip_empty_items(tmp_path, capsys, command):
    results = []
    for levels in ("100", "100,"):
        code, out, _ = run(capsys, *_levels_argv(command, tmp_path), "--levels", levels)
        assert code == 0
        results.append((out, sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())))
    assert results[0] == results[1]


@pytest.mark.parametrize("command", ["contours", "compare"])
def test_levels_reject_a_non_number_by_flag(tmp_path, capsys, command):
    code, out, err = run(capsys, *_levels_argv(command, tmp_path), "--levels", "100,x")
    assert code == 1
    assert out == ""
    assert "--levels" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--grid-throughput-hz", "1:10:2"),
         "--grid-throughput-hz"),
        (("--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--eta", "0.4"), "--eta"),
        (("--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--n-add", "0.5"), "--n-add"),
        (("--grid-throughput-hz", "1:10:2", "--grid-n-add", "0:0.9:3", "--bandwidth-hz", "22000"),
         "--bandwidth-hz"),
        (("--eta", "0.4", "--n-add", "0.5", "--grid-n-add", "0:0.9:3"), "--grid-n-add"),
        (("--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--duty", "0.5"), "--duty"),
        (("--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--form", "closed"), "--form"),
        (("--grid-throughput-hz", "1:10:2", "--grid-n-add", "0:0.9:3", "--duty", "1"), "--duty"),
        (("--grid-throughput-hz", "1:10:2", "--grid-n-add", "0:0.9:3", "--form", "small-eta"),
         "--form"),
    ],
    ids=["both-grids", "grid-eta", "grid-n-add", "grid-bandwidth", "point-grid-n-add",
         "eta-grid-duty", "eta-grid-form", "throughput-grid-duty", "throughput-grid-form"],
)
def test_capacity_rejects_flags_its_mode_ignores(capsys, argv, flag):
    code, out, err = run(capsys, "capacity", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ")


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


@pytest.mark.parametrize(
    "argv",
    [("--t-rep-s", "nan"), ("--t-rep-s", "inf"), ("--t-rep-s", "-1"), ("--t-rep-mult", "nan")],
)
def test_filter_analysis_checks_repetition_time_before_the_fft(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("impulse_response ran for a bad repetition time")

    monkeypatch.setattr(filters, "impulse_response", never)
    code, out, err = run(capsys, "filter-analysis", "--linewidth-hz", "21700", *argv)
    assert code == 1
    assert out == ""
    assert "t_rep_s" in err


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
    assert out.splitlines()[0] == (
        "gamma_e_hz,gamma_o_hz,throughput_hz,n_add_total,"
        "n_add_motional,n_add_em,n_add_corr"
    )
    cfg = load_config(EXAMPLE_CFG)
    rows = []
    for gamma_e in np.geomspace(rate_from_hz(1000.0), rate_from_hz(100000.0), 7):
        op = OperatingPoint(gamma_e, rate_from_hz(11000.0))
        b = noise.evaluate(noise.MODEL_LOSSY_UP, cfg.device, op, cfg.environment)
        theta = apparent_efficiency(cfg.device, op) * bandwidth_hz(cfg.device, op) * op.duty
        rows.append((rate_to_hz(op.gamma_e), rate_to_hz(op.gamma_o), theta,
                     b.total, b.motional, b.electromagnetic, b.correlation))
    assert out == _csv_lines(out.splitlines()[0].split(","), rows)


# what each --variable mode needs besides --range-hz
SWEEP_MODE_ARGS = {
    "gamma-e": ("--gamma-o-hz", "11000"),
    "gamma-o": ("--gamma-e-hz", "11000"),
    "both": ("--range2-hz", "1000:2000"),
}


@pytest.mark.parametrize(
    "variable, flag",
    [
        ("gamma-e", "--gamma-e-hz"),
        ("gamma-e", "--range2-hz"),
        ("gamma-o", "--gamma-o-hz"),
        ("gamma-o", "--range2-hz"),
        ("both", "--gamma-e-hz"),
        ("both", "--gamma-o-hz"),
    ],
)
def test_sweep_rejects_flags_its_variable_ignores(capsys, variable, flag):
    value = "1:2" if flag == "--range2-hz" else "5"
    code, out, err = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--variable", variable,
        "--range-hz", "1000:100000", "--n", "2", *SWEEP_MODE_ARGS[variable], flag, value,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_optimize_cli(capsys):
    code, out, _ = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "up",
        "--gamma-o-hz", "11000",
    )
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert values["at_boundary"] == "False"
    assert float(values["gamma_e_hz"]) > 0


def test_optimize_down_rejects_gamma_o(capsys):
    code, out, err = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "down",
        "--gamma-o-hz", "5",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --gamma-o-hz is not used with --direction down\n"


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
    from quduct.spectra import SPECTRUM_CSV_HEADER, FrequencyGrid

    f = FrequencyGrid(1.2e6, 1.34e6, 1401).frequencies()
    values = 0.05 + 1.3 / (1.0 + ((f - 1.27e6) / 4.5e3) ** 2)
    values[(f >= 1.275e6) & (f <= 1.277e6)] += 20.0
    path = tmp_path / "spectrum.csv"
    path.write_text(csv_text(SPECTRUM_CSV_HEADER, zip(f, values)))
    code, out, _ = run(
        capsys, "fit-spectrum", "--spectrum", str(path),
        "--exclude", "1.275e6:1.277e6",
    )
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert float(fields["fwhm_hz"]) == pytest.approx(9e3, rel=1e-6)
    assert float(fields["peak_height"]) == pytest.approx(1.3, rel=1e-6)
