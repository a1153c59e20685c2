import io

import numpy as np
import pytest

from quduct.capacity import cap_small_eta
from quduct.registry import (
    DeviceRecord,
    RegistryError,
    bundled_registry_path,
    contour_csv,
    emit_comparison,
    external_upconversion_path,
    load_registry,
    scatter_csv,
)

# throughput = eta * B * D, computed by hand from the tabulated values
HAND_THROUGHPUTS = {
    "Kumar 2023": 135.0,
    "Higginbotham 2018": 1645.0,
    "Sahu 2022": 1.35,
    "Xie 2025": 0.8,
    "Meesala 2024": 3.072,
}


def test_bundled_registry_loads():
    records = load_registry()
    labels = {r.label for r in records}
    assert {"Kumar 2023", "Higginbotham 2018", "Sahu 2022", "Xie 2025",
            "Meesala 2024", "This work"} <= labels
    directions = {r.direction for r in records}
    assert directions == {"up", "down"}


def test_bundled_throughput_arithmetic():
    records = {r.label: r for r in load_registry() if r.label != "This work"}
    for label, expected in HAND_THROUGHPUTS.items():
        assert records[label].throughput_hz == pytest.approx(
            expected, rel=5e-4
        ), label


def test_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "label,direction,n_add,eta,bandwidth_hz,duty,source,notes\n"
        "A,up,0.5,0.5,1000,1,src,\n"
        "B,sideways,0.5,0.5,1000,1,src,\n"
        "C,up,not_a_number,0.5,1000,1,src,\n"
    )
    with pytest.raises(RegistryError, match="line 3.*line 4"):
        load_registry(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,n_add\nA,0.5\n")
    with pytest.raises(RegistryError, match="header"):
        load_registry(path)


def test_duplicates_flagged(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "label,direction,n_add,eta,bandwidth_hz,duty,source,notes\n"
        "A,up,0.5,0.5,1000,1,src,\n"
        "A,up,0.6,0.5,1000,1,src,\n"
    )
    with pytest.warns(UserWarning, match="duplicate"):
        records = load_registry(path)
    assert len(records) == 2


def test_external_placeholder_ships_empty():
    path = external_upconversion_path()
    assert path.exists()
    assert load_registry(path) == []


def test_scatter_contains_expected_point():
    records = load_registry()
    text = scatter_csv(records, direction="up")
    lines = text.strip().splitlines()
    assert lines[0] == "throughput_hz,n_add,label,direction"
    higginbotham = [l for l in lines if "Higginbotham" in l]
    assert len(higginbotham) == 1
    throughput = float(higginbotham[0].split(",")[0])
    assert throughput == pytest.approx(1645.0, rel=1e-6)
    assert all(l.endswith(",up") for l in lines[1:])


def test_contour_rows_rederive_from_capacity():
    text = contour_csv([100.0], (1e-2, 1e6), (1e-3, 0.9), n_samples=64)
    rows = text.strip().splitlines()[1:]
    assert rows
    for row in rows[::9]:
        level, theta, n_add = (float(x) for x in row.split(","))
        assert cap_small_eta(n_add, theta) == pytest.approx(level, rel=1e-9)


def test_emit_comparison_bundle(tmp_path):
    records = load_registry()
    live = [
        DeviceRecord(
            label="config:up", direction="up", n_add=1.6, eta=0.4,
            bandwidth_hz=22e3, duty=1.0, source="live",
        )
    ]
    written = emit_comparison(
        records, [1e2, 1e3], tmp_path, direction="up", live_points=live
    )
    scatter = written["scatter"].read_text()
    assert "config:up" in scatter
    assert "Kumar 2023" in scatter
    assert "Meesala" not in scatter  # down-direction record filtered out
    contours = written["contours"].read_text().strip().splitlines()
    levels = {row.split(",")[0] for row in contours[1:]}
    assert levels == {"100.0", "1000.0"}


def test_emit_comparison_scatter_only(tmp_path):
    written = emit_comparison(load_registry(), [], tmp_path, direction="down")
    assert "contours" not in written
    text = written["scatter"].read_text()
    assert "Sahu 2022" in text and "Kumar" not in text


def test_device_record_validation():
    with pytest.raises(ValueError):
        DeviceRecord("X", "up", -0.1, 0.5, 1e3, 1.0)
    with pytest.raises(ValueError):
        DeviceRecord("X", "up", 0.1, 0.0, 1e3, 1.0)
    with pytest.raises(ValueError):
        DeviceRecord("X", "diagonal", 0.1, 0.5, 1e3, 1.0)


def test_bundled_path_is_package_data():
    assert bundled_registry_path().name == "registry.csv"
    assert bundled_registry_path().exists()
