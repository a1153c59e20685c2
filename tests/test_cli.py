import argparse
import csv
import io
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quduct import cli, filters, noise, optimize, spectra
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
    InconsistentBudgetWarning,
    OperatingPoint,
    apparent_efficiency,
    bandwidth_hz,
    rate_from_hz,
    rate_to_hz,
    validate_device,
)
from quduct.filters import filter_report, impulse_response
from quduct.registry import bundled_registry_path, contour_csv

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


def _csv_text(header, rows) -> str:
    """What :func:`csv.writer` writes for ``header`` and then ``rows``."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


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
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"error: {cfg} fails validation: external exceeds total linewidth on the e port\n"


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


# 1e308 Hz is finite, but not in rad/s
@pytest.mark.parametrize("value", ["inf", "nan", "-5", "1e308"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("noise", "--direction", "up", "--gamma-e-hz", "{}", "--gamma-o-hz", "1000"),
         "--gamma-e-hz"),
        (("noise", "--direction", "down", "--gamma-e-hz", "1000", "--gamma-o-hz", "{}"),
         "--gamma-o-hz"),
        (("optimize", "--direction", "up", "--gamma-o-hz", "{}"), "--gamma-o-hz"),
    ],
    ids=["noise-gamma-e", "noise-gamma-o", "optimize-gamma-o"],
)
def test_a_bad_rate_flag_is_rejected_by_name(capsys, argv, flag, value):
    argv = [arg.format(value) for arg in argv]
    code, out, err = run(capsys, *argv, "--config", EXAMPLE_CFG)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be finite and nonnegative, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ("noise", "--direction", "up", "--model", "lossy", "--op", "up", "--gamma-o-hz", "0"),
    ("optimize", "--direction", "up", "--gamma-o-hz", "0"),
], ids=["noise", "optimize"])
def test_a_zero_rate_flag_is_accepted(capsys, argv):
    code, out, err = run(capsys, *argv, "--config", EXAMPLE_CFG)
    assert code == 0
    assert out != ""
    assert err == ""


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


def test_capacity_grid_empty_eta_axis_checks_n_add(capsys):
    code, out, err = run(capsys, "capacity", "--grid-eta", "0:0.5:0", "--grid-n-add=-1:1:3")
    assert code == 1
    assert out == ""
    assert "n_add" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--grid-eta", "0:1:4", "--grid-n-add", "0:0.9:4"),
        ("--grid-eta", "0:0.5:3", "--grid-n-add", "0:nan:4"),
        ("--grid-throughput-hz", "1:10:2", "--grid-n-add=-1:1.5:3"),
    ],
    ids=["eta-grid-last-row", "eta-grid-nan-n-add", "throughput-grid"],
)
def test_failing_grid_writes_no_byte_and_no_out_file(tmp_path, capsys, argv):
    out_path = tmp_path / "grid.csv"
    for extra in ((), ("--out", str(out_path))):
        code, out, err = run(capsys, "capacity", *argv, *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
    assert not out_path.exists()


def test_capacity_throughput_grid(capsys):
    # the CLI takes the whole grid in one array call; rows start at n_add = 0
    # and cross n_add = 1, where the slope turns to zero, and any ulp of
    # drift from the scalar call in a cell changes the bytes
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
    "argv, message",
    [
        (("--levels", "nan"), "contour levels must be positive and finite, got nan"),
        (("--levels", "inf"), "contour levels must be positive and finite, got inf"),
        (("--levels", "10", "--throughput-range-hz", "nan:1e5"),
         "throughput range must be positive and increasing"),
        (("--levels", "10", "--throughput-range-hz", "1:nan"),
         "throughput range must be positive and increasing"),
        (("--levels", "1e308", "--throughput-range-hz", "1:inf"),
         "throughput range must be finite"),
    ],
    ids=["nan-level", "inf-level", "nan-low", "nan-high", "inf-high"],
)
def test_contours_reject_nan_and_infinite_input(capsys, argv, message):
    code, out, err = run(capsys, "contours", "--n", "5", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_contour_level_past_the_range_prints_no_warning(tmp_path, capsys):
    code, out, err = run(capsys, "contours", "--levels", "1e308",
                         "--throughput-range-hz", "1:1e5")
    assert (code, out, err) == (0, "level,x_throughput_hz,y_n_add\r\n", "")
    code, out, err = run(capsys, "compare", "--direction", "up", "--levels", "1e308",
                         "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert (tmp_path / "contours_up.csv").read_text() == "level,x_throughput_hz,y_n_add\n"


def test_compare_writes_no_contour_file_for_a_nan_range(tmp_path, capsys):
    # the contours fail after the scatter is computed: no file, not even the directory
    out_dir = tmp_path / "cmp3"
    code, out, err = run(capsys, "compare", "--direction", "up", "--levels", "100",
                         "--out-dir", str(out_dir), "--throughput-range-hz", "1:nan")
    assert code == 1
    assert out == ""
    assert err == "error: throughput range must be positive and increasing\n"
    assert not out_dir.exists()


def test_compare_rejects_a_nonfinite_registry_row_by_line_and_field(tmp_path, capsys):
    registry_path = tmp_path / "reg.csv"
    registry_path.write_text("label,direction,n_add,eta,bandwidth_hz,duty,source,notes\n"
                             "Bad,up,nan,0.5,inf,1.0,x,\n")
    out_dir = tmp_path / "d"
    code, out, err = run(capsys, "compare", "--direction", "up", "--levels", "100",
                         "--registry", str(registry_path), "--out-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert err == f"error: {registry_path}: line 2: n_add must be nonnegative, got nan\n"
    assert not out_dir.exists()


# a file of each kind whose line 3 is one field short, and the argv that reads it
SHORT_ROW_FILES = {
    "registry": ("label,direction,n_add,eta,bandwidth_hz,duty,source,notes\n"
                 "A,up,0.5,0.5,1000,1,src,\nB,up,0.5,0.5,1000,1,src\n", 8,
                 ("compare", "--direction", "up", "--levels", "100", "--out-dir", "d",
                  "--registry")),
    "occupancy": ("gamma_e_hz,n_bar_e,sigma,method\n1000.0,0.21,0.05,microwave\n"
                  "2000,0.8,0.05\n", 4, ("fit-occupancy", "--records")),
    "spectrum": ("freq_hz,value\n0.0,1.0\n1.0\n", 2, ("fit-spectrum", "--spectrum")),
}


@pytest.mark.parametrize("kind", list(SHORT_ROW_FILES))
def test_a_short_csv_row_fails_naming_the_file_and_line(tmp_path, capsys, monkeypatch, kind):
    text, n_fields, argv = SHORT_ROW_FILES[kind]
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: line 3: expected {n_fields} fields, got {n_fields - 1}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--range-hz", "1:x",
          "--gamma-o-hz", "5"), "--range-hz expects LOW:HIGH, got '1:x'"),
        (("contours", "--levels", "10", "--n-add-range", "0.1:x"),
         "--n-add-range expects LOW:HIGH, got '0.1:x'"),
        (("capacity", "--grid-eta", "0:0.5:1.5", "--grid-n-add", "0:1:2"),
         "--grid-eta expects LOW:HIGH:N, got '0:0.5:1.5'"),
        (("capacity", "--grid-eta", "0:0.5:3", "--grid-n-add", "0:y:2"),
         "--grid-n-add expects LOW:HIGH:N, got '0:y:2'"),
        # a grid flag that is given selects grid mode, even when it is empty
        (("capacity", "--grid-eta", "", "--grid-n-add", "0:1:2"),
         "--grid-eta expects LOW:HIGH:N, got ''"),
        (("capacity", "--grid-throughput-hz", "", "--grid-n-add", "0:1:2"),
         "--grid-throughput-hz expects LOW:HIGH:N, got ''"),
    ],
    ids=["range-hz", "n-add-range", "grid-eta", "grid-n-add", "grid-eta-empty",
         "grid-throughput-hz-empty"],
)
def test_unparsable_range_fails_naming_its_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("bandwidth", ["inf", "nan", "0"])
def test_capacity_rejects_a_bandwidth_that_is_not_positive_and_finite(capsys, bandwidth):
    code, out, err = run(capsys, "capacity", "--eta", "0.5", "--n-add", "0.1",
                         "--bandwidth-hz", bandwidth)
    assert code == 1
    assert out == ""
    assert err == f"error: bandwidth_hz must be positive and finite, got {float(bandwidth)}\n"


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
        (("--eta", "0.4", "--n-add", "0.5", "--duty", "0.5"), "--duty"),
        (("--eta", "0.4", "--n-add", "0.5", "--form", "quadrature"), "--form"),
        (("--grid-eta", "", "--eta", "0.5", "--n-add", "0.5"), "--eta"),
    ],
    ids=["both-grids", "grid-eta", "grid-n-add", "grid-bandwidth", "point-grid-n-add",
         "eta-grid-duty", "eta-grid-form", "throughput-grid-duty", "throughput-grid-form",
         "point-no-bandwidth-duty", "point-no-bandwidth-form", "empty-grid-eta"],
)
def test_capacity_rejects_flags_its_mode_ignores(capsys, argv, flag):
    code, out, err = run(capsys, "capacity", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--grid-throughput-hz", "nan:10:3"),
         "--grid-throughput-hz bounds must be finite, got 'nan:10:3'"),
        (("--grid-throughput-hz", "1:inf:3"),
         "--grid-throughput-hz bounds must be finite, got '1:inf:3'"),
        (("--grid-throughput-hz", "0:10:3"),
         "--grid-throughput-hz bounds must be positive, got '0:10:3'"),
        (("--grid-eta", "0:1:3", "--grid-n-add", "0:1:-3"),
         "--grid-n-add N must be nonnegative, got '0:1:-3'"),
    ],
    ids=["nan-bound", "inf-bound", "zero-throughput", "negative-n"],
)
def test_capacity_grid_axis_fails_naming_its_flag(tmp_path, capsys, argv, message):
    out_path = tmp_path / "grid.csv"
    if "--grid-n-add" not in argv:
        argv += ("--grid-n-add", "0:1:2")
    code, out, err = run(capsys, "capacity", *argv, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_capacity_point_without_bandwidth(capsys):
    code, out, _ = run(capsys, "capacity", "--eta", "0.4", "--n-add", "0.5")
    assert code == 0
    assert out == _csv_lines(["eta", "n_add", "c_ub"], [(0.4, 0.5, cap_ub_point(0.4, 0.5))])


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
        (("--linewidth-hz", "21700", "--span-hz", "inf"), "span_hz"),
        (("--linewidth-hz", "21700", "--span-hz", "nan"), "span_hz"),
        (("--preset", "paper", "--span-hz", "inf"), "span_hz"),
        (("--preset", "paper", "--span-hz", "nan"), "span_hz"),
    ],
)
def test_filter_analysis_nonfinite_input_writes_nothing(capsys, argv, name):
    code, out, err = run(capsys, "filter-analysis", "--n-points", "65536", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert name in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("preset", [(), ("--preset", "paper")], ids=["explicit", "preset"])
def test_filter_analysis_rejects_t_rep_mult_with_t_rep_s(capsys, monkeypatch, preset):
    def not_reached(*args, **kwargs):
        raise AssertionError("the filter was built before the flags were checked")

    monkeypatch.setattr(filters, "tuned_preset", not_reached)
    monkeypatch.setattr(filters, "impulse_response", not_reached)
    filter_flags = preset or ("--linewidth-hz", "21700")
    code, out, err = run(capsys, "filter-analysis", *filter_flags, "--t-rep-s", "1e-3",
                         "--t-rep-mult", "99", "--n-points", "65536")
    assert code == 1
    assert out == ""
    assert err == "error: --t-rep-mult is not used with --t-rep-s\n"


@pytest.mark.parametrize("mult, argv", [(3.0, ()), (99.0, ("--t-rep-mult", "99"))],
                         ids=["default", "given"])
def test_filter_analysis_t_rep_mult(capsys, mult, argv):
    code, out, _ = run(capsys, "filter-analysis", "--linewidth-hz", "21700",
                       "--n-points", "65536", *argv)
    assert code == 0
    t_rep = mult / filters.FilterSpec(linewidth_hz=21700.0).gamma_t
    assert f"t_rep_s={t_rep!r}" in out.splitlines()


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
        assert fh.read() == _csv_text(
            ["t_s", "energy_density"],
            zip(response.times_s.tolist(), response.energy_density.tolist()),
        )


def test_filter_analysis_with_an_unwritable_trace_prints_nothing(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.csv"
    code, out, err = run(
        capsys, "filter-analysis", "--linewidth-hz", "21700", "--n-points", "65536",
        "--trace", str(trace),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trace.parent.exists()


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


SWEEP_HEADER = ["gamma_e_hz", "gamma_o_hz", "throughput_hz", "n_add_total",
                "n_add_motional", "n_add_em", "n_add_corr"]


def _sweep_text(model, gamma_e_values, gamma_o_values, duty=1.0):
    """Sweep stdout rendered point by point from the library, gamma_e outer."""
    cfg = load_config(EXAMPLE_CFG)
    rows = []
    for gamma_e in gamma_e_values:
        for gamma_o in gamma_o_values:
            op = OperatingPoint(gamma_e, gamma_o, duty)
            b = noise.evaluate(model, cfg.device, op, cfg.environment)
            theta = apparent_efficiency(cfg.device, op) * bandwidth_hz(cfg.device, op) * op.duty
            rows.append((rate_to_hz(op.gamma_e), rate_to_hz(op.gamma_o), theta,
                         b.total, b.motional, b.electromagnetic, b.correlation))
    return _csv_lines(SWEEP_HEADER, rows)


def _rates(lo_hz, hi_hz, n):
    return np.geomspace(rate_from_hz(lo_hz), rate_from_hz(hi_hz), n)


def test_sweep_csv_header(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "up",
        "--variable", "gamma-e", "--range-hz", "1000:100000", "--n", "7",
        "--gamma-o-hz", "11000",
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(SWEEP_HEADER)
    expected = _sweep_text(noise.MODEL_LOSSY_UP, _rates(1000.0, 100000.0, 7),
                           [rate_from_hz(11000.0)])
    assert out == expected


def test_sweep_gamma_o(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "up",
        "--variable", "gamma-o", "--range-hz", "1000:100000", "--n", "9",
        "--gamma-e-hz", "8000", "--duty", "0.3",
    )
    assert code == 0
    expected = _sweep_text(noise.MODEL_LOSSY_UP, [rate_from_hz(8000.0)],
                           _rates(1000.0, 100000.0, 9), duty=0.3)
    assert out == expected


def test_sweep_both(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "down", "--model", "combined",
        "--variable", "both", "--range-hz", "1000:100000", "--range2-hz", "500:50000",
        "--n", "6",
    )
    assert code == 0
    expected = _sweep_text(noise.MODEL_IDEAL_DOWN_COMBINED, _rates(1000.0, 100000.0, 6),
                           _rates(500.0, 50000.0, 6))
    assert out == expected


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


def _optimum_text(direction, model, result):
    """``optimize`` stdout rendered from an :class:`OptimumResult`."""
    budget = result.budget
    values = {
        "gamma_e_hz": rate_to_hz(result.op.gamma_e),
        "gamma_o_hz": rate_to_hz(result.op.gamma_o),
        "n_add_total": budget.total,
        "n_add_motional": budget.motional,
        "n_add_em": budget.electromagnetic,
        "n_add_corr": budget.correlation,
    }
    return "".join([
        f"direction={direction}\n",
        f"model={model}\n",
        *(f"{key}={float(value)!r}\n" for key, value in values.items()),
        f"at_boundary={result.at_boundary}\n",
        f"flat_objective={result.flat_objective}\n",
    ])


def test_optimize_down_cli(capsys):
    code, out, _ = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "down",
        "--duty", "0.5", "--ratio-bracket", "0.01:100",
    )
    assert code == 0
    cfg = load_config(EXAMPLE_CFG)
    result = optimize.optimize_down(
        cfg.device, cfg.environment,
        gamma_o_bracket=(rate_from_hz(10.0), rate_from_hz(1e7)), ratio_bracket=(0.01, 100.0),
        model=noise.MODEL_LOSSY_DOWN, duty=0.5,
    )
    assert out == _optimum_text("down", noise.MODEL_LOSSY_DOWN, result)


def _write_config(path, **values):
    """The example config with ``values`` set; a key it lacks goes to [device]."""
    lines = []
    for line in Path(EXAMPLE_CFG).read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {values.pop(key)!r}" if key in values else line)
    device = lines.index("[device]") + 1
    lines[device:device] = [f"{key} = {value!r}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_optimize_warns_on_one_stderr_line(tmp_path, child_env):
    # a tiny microwave extraction ratio and no thermal, locking or slope
    # terms make the budget total negative at every point the search visits
    cfg = _write_config(
        tmp_path / "negative.cfg", kappa_e_ext_hz=1.0e3, b_e=5.0,
        n_th_gamma_m_hz=0.0, n_lock_gamma_lock_hz=0.0, a_e_per_hz=0.0,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "quduct.cli", "optimize", "--config", cfg, "--direction", "down"],
        capture_output=True, text=True, env=child_env, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: noise budget total is negative; inputs are inconsistent\n"
    loaded = load_config(cfg)
    with pytest.warns(InconsistentBudgetWarning):
        result = optimize.optimize_down(
            loaded.device, loaded.environment,
            gamma_o_bracket=(rate_from_hz(10.0), rate_from_hz(1e7)),
        )
    assert result.budget.total < 0
    assert proc.stdout == _optimum_text("down", noise.MODEL_LOSSY_DOWN, result)


@pytest.mark.parametrize(
    "argv",
    [
        ("noise", "--direction", "down", "--op", "down"),
        ("sweep", "--direction", "down", "--range-hz", "10:100", "--gamma-o-hz", "100",
         "--n", "2"),
        ("optimize", "--direction", "down"),
        ("compare", "--direction", "down", "--out-dir", "bundle"),
        ("validate",),
    ],
    ids=["noise", "sweep", "optimize", "compare", "validate"],
)
def test_device_that_fails_validation_is_not_evaluated(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path / "bad.cfg", kappa_e_ext_hz=2.0e6, gain_e=-1.0)
    # the same device built from the example's, as loading the bad file fails
    device = replace(load_config(EXAMPLE_CFG).device, kappa_e_ext=rate_from_hz(2.0e6), gain_e=-1.0)
    report = validate_device(device)
    assert len(report) == 2
    code, out, err = run(capsys, *argv, "--config", cfg)
    assert code == 1
    assert out == ""
    assert err == f"error: {cfg} fails validation: {'; '.join(report)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_optimize_up_rejects_ratio_bracket(capsys):
    code, out, err = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "up",
        "--gamma-o-hz", "1e5", "--ratio-bracket", "5:6",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --ratio-bracket is not used with --direction up\n"


def test_optimize_down_default_ratio_bracket(capsys):
    code, out, _ = run(capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "down")
    assert code == 0
    cfg = load_config(EXAMPLE_CFG)
    result = optimize.optimize_down(
        cfg.device, cfg.environment,
        gamma_o_bracket=(rate_from_hz(10.0), rate_from_hz(1e7)), ratio_bracket=(1e-3, 1e3),
        model=noise.MODEL_LOSSY_DOWN,
    )
    assert out == _optimum_text("down", noise.MODEL_LOSSY_DOWN, result)


def test_optimize_down_rejects_gamma_o(capsys):
    code, out, err = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "down",
        "--gamma-o-hz", "5",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --gamma-o-hz is not used with --direction down\n"


BAD_BOUNDS = {"nan": "nan:{hi}", "inf": "{lo}:inf", "reversed": "{hi}:{lo}", "zero": "0:{hi}"}
# a finite bound whose rad/s value overflows is bad only in a bracket of rates in Hz
RATE_BOUNDS = {**BAD_BOUNDS, "overflow": "{lo}:1e308"}
BRACKET_MODES = [
    ("up", ("up", "--gamma-o-hz", "11000"), "--bracket-hz", 10.0, 1e7, RATE_BOUNDS),
    ("down-gamma-o", ("down",), "--bracket-hz", 10.0, 1e7, RATE_BOUNDS),
    ("down-ratio", ("down",), "--ratio-bracket", 1e-3, 1e3, BAD_BOUNDS),
]


@pytest.mark.parametrize("mode, flag, text", [
    pytest.param(mode, flag, bound.format(lo=lo, hi=hi), id=f"{name}-{case}")
    for name, mode, flag, lo, hi, bounds in BRACKET_MODES for case, bound in bounds.items()
])
def test_optimize_rejects_a_bad_bracket_by_name(capsys, monkeypatch, mode, flag, text):
    def not_reached(*args, **kwargs):
        raise AssertionError("the noise model ran before the bracket was checked")

    monkeypatch.setattr(noise, "terms", not_reached)
    monkeypatch.setattr(noise, "evaluate", not_reached)
    code, out, err = run(
        capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", *mode, flag, text,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be finite, positive and increasing, got {text!r}\n"


@pytest.mark.parametrize("argv, ratio, gamma_o_hz", [
    (("--ratio-bracket", "1e-3:1e308"), 1e308, 1e7),
    (("--bracket-hz", "10:1e300", "--ratio-bracket", "1e-3:1e10"), 1e10, 1e300),
], ids=["ratio", "bracket"])
def test_optimize_rejects_an_overflowing_ratio_bracket_by_name(capsys, monkeypatch, argv,
                                                               ratio, gamma_o_hz):
    # each bound is finite, but gamma_e = ratio * gamma_o at the two high ends is not
    def not_reached(*args, **kwargs):
        raise AssertionError("the noise model ran before the ratio bracket was checked")

    monkeypatch.setattr(noise, "terms", not_reached)
    monkeypatch.setattr(noise, "evaluate", not_reached)
    code, out, err = run(capsys, "optimize", "--config", EXAMPLE_CFG, "--direction", "down", *argv)
    assert code == 1
    assert out == ""
    assert err == (f"error: --ratio-bracket high end {ratio!r} times the --bracket-hz "
                   f"high end {rate_from_hz(gamma_o_hz)!r} rad/s is not finite\n")


@pytest.mark.parametrize(
    "rates, message",
    [
        (("--range-hz", "10:inf", "--gamma-o-hz", "1000"),
         "--range-hz must be finite, positive and increasing, got '10:inf'"),
        (("--range-hz", "10:100", "--gamma-o-hz", "inf"),
         "--gamma-o-hz must be finite and positive, got 'inf'"),
        (("--variable", "gamma-o", "--range-hz", "10:100", "--gamma-e-hz", "inf"),
         "--gamma-e-hz must be finite and positive, got 'inf'"),
        (("--range-hz", "10:100", "--gamma-o-hz", "-5"),
         "--gamma-o-hz must be finite and positive, got '-5'"),
        (("--variable", "gamma-o", "--range-hz", "10:100", "--gamma-e-hz", "x"),
         "--gamma-e-hz must be finite and positive, got 'x'"),
        (("--variable", "both", "--range-hz", "10:100", "--range2-hz", "nan:100"),
         "--range2-hz must be finite, positive and increasing, got 'nan:100'"),
        (("--range-hz", "10:1e308", "--gamma-o-hz", "1000"),
         "--range-hz must be finite, positive and increasing, got '10:1e308'"),
        (("--range-hz", "10:100", "--gamma-o-hz", "1e308"),
         "--gamma-o-hz must be finite and positive, got '1e308'"),
    ],
    ids=["range-hz", "gamma-o-hz", "gamma-e-hz", "gamma-o-hz-negative", "gamma-e-hz-text",
         "range2-hz", "range-hz-overflow", "gamma-o-hz-overflow"],
)
def test_sweep_rejects_an_infinite_rate_by_name(capsys, rates, message):
    code, out, err = run(
        capsys, "sweep", "--config", EXAMPLE_CFG, "--direction", "down", "--n", "3", *rates,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "mode, message",
    [
        (("up", "--gamma-o-hz", "11000"), "n_bar_e = -0.03182 at gamma_e = 4.598e+05 rad/s"),
        (("down",), "n_bar_e = -0.1227 at gamma_e = 5.169e+05 rad/s"),
    ],
    ids=["up", "down"],
)
def test_optimize_names_the_first_rejected_grid_point(tmp_path, capsys, mode, message):
    # the occupancy turns negative above gamma_e = 0.7 / 1e-5 Hz, inside the
    # searched grid; the error names the first such point in scan order
    cfg = _write_config(tmp_path / "negative_slope.cfg", a_e_per_hz=-1e-5)
    code, out, err = run(capsys, "optimize", "--config", cfg, "--direction", *mode)
    assert code == 1
    assert out == ""
    assert err == (f"error: occupancy model gives negative {message}; "
                   "coefficients are invalid there\n")


# Each mode rejection: the argv up to the rejected flag, then the flag with
# its own default value where it has one, so that "given" is shown to mean
# on the command line and not different from the default.
MODE_REJECTIONS = [
    (("sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--range-hz", "1:2",
      "--gamma-o-hz", "5", "--gamma-e-hz", "5"),
     "--gamma-e-hz is not used with --variable gamma-e"),
    (("sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--variable", "gamma-o",
      "--range-hz", "1:2", "--gamma-e-hz", "5", "--range2-hz", "1:2"),
     "--range2-hz is not used with --variable gamma-o"),
    (("sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--variable", "both",
      "--range-hz", "1:2", "--range2-hz", "1:2", "--gamma-o-hz", "5"),
     "--gamma-o-hz is not used with --variable both"),
    (("optimize", "--config", EXAMPLE_CFG, "--direction", "up", "--gamma-o-hz", "1e5",
      "--ratio-bracket", "1e-3:1e3"),
     "--ratio-bracket is not used with --direction up"),
    (("optimize", "--config", EXAMPLE_CFG, "--direction", "down", "--gamma-o-hz", "5"),
     "--gamma-o-hz is not used with --direction down"),
    (("capacity", "--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3", "--form", "closed"),
     "--form is not used in grid mode"),
    (("capacity", "--grid-eta", "0:0.9:3", "--grid-n-add", "0:0.9:3",
      "--grid-throughput-hz", "1:10:2"),
     "--grid-throughput-hz cannot be combined with --grid-eta"),
    (("capacity", "--eta", "0.4", "--n-add", "0.5", "--grid-n-add", "0:0.9:3"),
     "--grid-n-add is not used in point mode"),
    (("capacity", "--eta", "0.4", "--n-add", "0.5", "--duty", "1.0"),
     "--duty is not used without --bandwidth-hz"),
    (("filter-analysis", "--linewidth-hz", "21700", "--t-rep-s", "1e-3", "--t-rep-mult", "3"),
     "--t-rep-mult is not used with --t-rep-s"),
    (("filter-analysis", "--preset", "paper", "--center-hz", "0"),
     "--center-hz cannot be combined with --preset paper, which fixes it"),
]


@pytest.mark.parametrize(
    "argv, message", MODE_REJECTIONS,
    ids=["sweep-gamma-e", "sweep-gamma-o", "sweep-both", "optimize-up", "optimize-down",
         "capacity-grid", "capacity-grid-eta", "capacity-point", "capacity-no-bandwidth",
         "filter-t-rep-s", "filter-preset"],
)
def test_every_mode_rejection(capsys, monkeypatch, argv, message):
    def not_reached(*args, **kwargs):
        raise AssertionError("the handler ran before the flags were checked")

    monkeypatch.setitem(cli.COMMANDS, argv[0], (not_reached, *cli.COMMANDS[argv[0]][1:]))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_flags_a_mode_leaves_unread_have_no_parser_default():
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    unread, checked = set(), set()
    for name, (_, _, _, modes) in cli.COMMANDS.items():
        unread |= {(name, flag) for _, flags, _ in modes for flag in flags}
        for action in subparsers.choices[name]._actions:
            for flag in action.option_strings:
                if (name, flag) in unread:
                    assert action.default is None, (name, flag)
                    checked.add((name, flag))
    assert checked == unread
    assert len(unread) == 16


def test_the_parser_converts_nothing_and_sets_no_default():
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    for name, parser in subparsers.choices.items():
        for action in parser._actions[1:]:  # after --help
            assert (action.type, action.default) == (None, None), (name, action.dest)


# The least argv the parser accepts for each subcommand with a typed flag,
# and, for a flag that its mode does not read, flags choosing one that does.
LEAST_ARGV = {
    "noise": ("--config", EXAMPLE_CFG, "--direction", "up"),
    "sweep": ("--config", EXAMPLE_CFG, "--direction", "up", "--range-hz", "1:2"),
    "optimize": ("--config", EXAMPLE_CFG, "--direction", "up"),
    "capacity": (),
    "contours": ("--levels", "1"),
    "filter-analysis": (),
    "fit-spectrum": ("--spectrum", "spectrum.csv"),
    "xi-e": tuple(arg for name in cli.calibration.READOUT_FACTORS
                  for arg in ("--" + name.replace("_", "-"), "1")),
    "compare": ("--direction", "up", "--out-dir", "bundle"),
}
READING_MODE = {
    ("sweep", "--gamma-e-hz"): ("--variable", "gamma-o"),
    ("sweep", "--range2-hz"): ("--variable", "both"),
    ("optimize", "--ratio-bracket"): ("--direction", "down"),
    ("capacity", "--duty"): ("--bandwidth-hz", "1"),
    ("capacity", "--grid-n-add"): ("--grid-eta", "0:1:2"),
}
TYPED_FLAGS = [(name, flag) for name, (_, _, flags, _) in cli.COMMANDS.items()
               for flag, keywords in flags.items() if "type" in keywords]


@pytest.mark.parametrize("name, flag", TYPED_FLAGS, ids=[name + flag for name, flag in TYPED_FLAGS])
def test_every_typed_flag_rejects_text_by_name(tmp_path, capsys, monkeypatch, name, flag):
    monkeypatch.chdir(tmp_path)
    # a flag given twice takes its last value, so x replaces a required one
    argv = (name, *LEAST_ARGV[name], *READING_MODE.get((name, flag), ()), flag, "x")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    # the value failed its type, not a mode check
    assert all(err != f"error: {flag} {why}\n" for _, _, why in cli.COMMANDS[name][3])
    assert list(tmp_path.iterdir()) == []


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
    path.write_text(_csv_text(SPECTRUM_CSV_HEADER, zip(f.tolist(), values.tolist())))
    code, out, _ = run(
        capsys, "fit-spectrum", "--spectrum", str(path),
        "--exclude", "1.275e6:1.277e6",
    )
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert float(fields["fwhm_hz"]) == pytest.approx(9e3, rel=1e-6)
    assert float(fields["peak_height"]) == pytest.approx(1.3, rel=1e-6)


def test_fit_spectrum_efficiency_cli(tmp_path, capsys):
    f = spectra.FrequencyGrid(1.2e6, 1.34e6, 1401).frequencies()
    paths = {"spectrum": tmp_path / "spectrum.csv", "efficiency": tmp_path / "efficiency.csv"}
    values = 0.05 + 1.3 / (1.0 + ((f - 1.27e6) / 4.5e3) ** 2)
    values[(f >= 1.275e6) & (f <= 1.277e6)] += 20.0
    paths["spectrum"].write_text(
        _csv_text(spectra.SPECTRUM_CSV_HEADER, zip(f.tolist(), values.tolist())))
    efficiency = 0.4 / (1.0 + ((f - 1.268e6) / 6e3) ** 2)
    paths["efficiency"].write_text(
        _csv_text(spectra.SPECTRUM_CSV_HEADER, zip(f.tolist(), efficiency.tolist())))
    bands = [(1.275e6, 1.277e6), (1.2e6, 1.21e6)]
    code, out, _ = run(
        capsys, "fit-spectrum", "--spectrum", str(paths["spectrum"]),
        *(f"--exclude={lo!r}:{hi!r}" for lo, hi in bands),
        "--efficiency", str(paths["efficiency"]),
    )
    assert code == 0
    spectrum = spectra.read_spectrum_csv(str(paths["spectrum"]))
    exclude = spectra.ExclusionBands(bands)
    fit = spectra.fit_lorentzian(spectrum, exclude)
    averaged = spectra.averaged_added_noise(
        spectrum, spectra.read_spectrum_csv(str(paths["efficiency"])), exclude
    )
    values = {"center_hz": fit.center_hz, "fwhm_hz": fit.fwhm_hz,
              "peak_height": fit.peak_height, "floor": fit.floor,
              "residual_norm": fit.residual_norm}
    assert out == "".join([
        *(f"{key}={float(value)!r}\n" for key, value in values.items()),
        f"converged={fit.converged}\n",
        f"n_iterations={fit.n_iterations}\n",
        f"averaged_value={float(averaged)!r}\n",
    ])
