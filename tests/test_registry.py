import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quduct import registry
from quduct.capacity import cap_small_eta, capacity_contours
from quduct.registry import (
    CONTOUR_HEADER,
    DeviceRecord,
    MaskedBlock,
    REGISTRY_HEADER,
    bundled_registry_path,
    contour_csv,
    contour_table,
    emit_comparison,
    float_table,
    format_float,
    load_registry,
    scatter_csv,
)
from quduct.calibration import OCCUPANCY_CSV_HEADER, load_occupancy_records
from quduct.spectra import SPECTRUM_CSV_HEADER, read_spectrum_csv

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
    with pytest.raises(ValueError, match="line 3.*line 4"):
        load_registry(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,n_add\nA,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_registry(path)


def test_duplicates_flagged(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "label,direction,n_add,eta,bandwidth_hz,duty,source,notes\n"
        "A,up,0.5,0.5,1000,1,src,\n"
        "A,up,0.6,0.5,1000,1,src,\n"
    )
    with pytest.warns(UserWarning) as caught:
        records = load_registry(path)
    assert len(records) == 2
    assert [str(w.message) for w in caught] == [f"{path}: duplicate record ('A', 'up')"]


# per reader: its header, three good rows, and a bad row with its message
READERS = {
    "registry": (load_registry, REGISTRY_HEADER,
                 ["A,up,0.5,0.5,1000,1,src,", "B,up,0.6,0.5,1000,1,src,", "C,up,0.7,0.5,1000,1,,"],
                 "D,sideways,0.5,0.5,1000,1,src,",
                 "direction must be 'up' or 'down', got 'sideways'"),
    "occupancy": (load_occupancy_records, OCCUPANCY_CSV_HEADER,
                  ["1000.0,0.21,0.05,microwave", "2000.0,0.3,0.05,optomechanical",
                   "3000.0,0.4,0.05,microwave"],
                  "4000.0,0.3,-1.0,microwave", "sigma must be positive"),
    "spectrum": (read_spectrum_csv, SPECTRUM_CSV_HEADER, ["0.0,1.0", "1.0,2.0", "2.0,1.5"],
                 "3.0,nan", "3.0,nan is not finite"),
}


def _reader_case(case, header, good, bad, message):
    """(lines after the header, the error after ``PATH: ``, or None if the file is read)."""
    n = len(header)
    short, long = good[1].rsplit(",", 1)[0], good[1] + ",x"
    return {
        "short-row": ([good[0], short], f"line 3: expected {n} fields, got {n - 1}"),
        "long-row": ([good[0], long], f"line 3: expected {n} fields, got {n + 1}"),
        "blank-line-before-a-bad-row": ([good[0], "", bad], f"line 4: {message}"),
        "trailing-blank-line": ([good[0], good[1], ""], None),
        "two-bad-rows": ([bad, good[0], "", short, good[2]],
                         f"line 2: {message}; line 5: expected {n} fields, got {n - 1}"),
        # the csv module stops at a field over its size limit
        "unsplittable-line": ([bad, "1" * 200_000, good[2]],
                              f"line 2: {message}; line 3: field larger than field limit (131072)"),
    }[case]


@pytest.mark.parametrize("case", ["short-row", "long-row", "blank-line-before-a-bad-row",
                                  "trailing-blank-line", "two-bad-rows", "unsplittable-line",
                                  "wrong-header"])
@pytest.mark.parametrize("reader", list(READERS))
def test_csv_readers_report_every_bad_line_by_its_physical_number(tmp_path, reader, case):
    load, header, good, bad, message = READERS[reader]
    path = tmp_path / f"{reader}.csv"
    if case == "wrong-header":
        path.write_text(",".join(header[::-1]) + "\n" + good[0] + "\n")
        expected = f"{path}: expected header {','.join(header)}, got {header[::-1]}"
    else:
        lines, problems = _reader_case(case, header, good, bad, message)
        path.write_text("\n".join([",".join(header), *lines]) + "\n")
        if problems is None:
            loaded = load(path)
            assert len(loaded.values if reader == "spectrum" else loaded) == 2
            return
        expected = f"{path}: {problems}"
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == expected


def test_scatter_quotes_a_label_as_csv_writer_does(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(",".join(REGISTRY_HEADER) + '\n"Lab, A ""v2""",up,0.5,0.4,1000,1,,\n')
    (record,) = load_registry(path)
    assert record.label == 'Lab, A "v2"'
    assert scatter_csv([record]) == ('throughput_hz,n_add,label,direction\r\n'
                                     '400.0,0.5,"Lab, A ""v2""",up\r\n')


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


def _writer_text(header, rows):
    """The reference: csv.writer over format_float of every non-str field."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else format_float(v) for v in row] for row in rows)
    return out.getvalue()


def _rows(blocks):
    """The rows a list of float_table blocks stands for, one value per field."""
    rows = []
    for block in blocks:
        block, keep = block if isinstance(block, MaskedBlock) else (block, None)
        lengths = {len(entry) for entry in block
                   if not isinstance(entry, str) and hasattr(entry, "__len__")}
        n_rows = lengths.pop() if lengths else 1
        for i in range(n_rows):
            if keep is None or keep[i]:
                rows.append([entry[i] if not isinstance(entry, str) and hasattr(entry, "__len__")
                             else entry for entry in block])
    return rows


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308 / 3,
                    -1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22, 1e-7])
AXIS = np.linspace(0.0, 1.2, 5)


@pytest.mark.parametrize(
    "blocks",
    [
        [[-0.0, SPECIAL, SPECIAL[::-1]], [np.nan, SPECIAL[:3], SPECIAL[3:6]]],
        [[3, np.float64(0.1), np.arange(4), [1, 2, np.float64(0.3), -7]],
         [np.float32(0.5), -2, np.arange(4.0), (0.25, 1e300, -0.0, 2)]],
        [[eta, AXIS, AXIS * eta] for eta in (0.0, 0.5, 1.5)],
        [[0.1, AXIS, AXIS], [0.2, np.array([]), np.array([])], [0.3, AXIS, -AXIS]],
        [],
        [[theta, AXIS, AXIS / theta, "small-eta"] for theta in (0.5, 2.0)],
        [[1.0, 2.0, "lossy", 3.0]],
    ],
    ids=["nonfinite-subnormal-extreme", "int-and-numpy-scalars", "recurring-axis",
         "zero-row-block", "no-blocks", "text-column", "constants-only"],
)
def test_float_table_matches_csv_writer(blocks):
    header = [f"c{i}" for i in range(len(blocks[0]) if blocks else 3)]
    text = "".join(float_table(header, blocks))
    assert text == _writer_text(header, _rows(blocks))
    if not blocks:
        assert text == "c0,c1,c2\r\n"


def test_float_table_long_block_in_chunks(monkeypatch):
    monkeypatch.setattr(registry, "_CHUNK_ROWS", 3)
    x = np.linspace(0.0, 1.0, 8)
    blocks = [[0.5, x, x * x], [0.25, x, -x]]
    chunks = list(float_table(["a", "b", "c"], blocks))
    assert len(chunks) == 1 + 2 * 3
    assert "".join(chunks) == _writer_text(["a", "b", "c"], _rows(blocks))


def _count_formats(monkeypatch) -> list:
    """The values formatted from now on, counted through ``_format_all``."""
    formatted = []
    format_all = registry._format_all

    def counting(values):
        fields = format_all(values)
        formatted.extend(fields)
        return fields

    monkeypatch.setattr(registry, "_format_all", counting)
    return formatted


def test_float_table_formats_a_recurring_axis_once(monkeypatch):
    calls = _count_formats(monkeypatch)
    axis, rows = AXIS[:4], np.arange(12.0).reshape(3, 4)
    text = "".join(float_table(["eta", "n_add", "c"],
                               ([eta, axis, row] for eta, row in zip((0.1, 0.2, 0.3), rows))))
    # the axis once, then per block its eta and its four fresh values
    assert len(calls) == 4 + 3 * (1 + 4)
    assert text.count("\r\n") == 1 + 12


def test_float_table_rejects_columns_of_different_length():
    with pytest.raises(ValueError, match="differ in length"):
        list(float_table(["a", "b"], [[np.zeros(2), np.zeros(3)]]))


def test_float_table_rejects_a_mask_of_the_wrong_length_or_kind():
    with pytest.raises(ValueError, match="keep must be 3 booleans"):
        list(float_table(["a"], [MaskedBlock([np.zeros(3)], np.ones(2, bool))]))
    with pytest.raises(ValueError, match="keep must be 3 booleans"):
        list(float_table(["a"], [MaskedBlock([np.zeros(3)], np.array([0, 2, 1]))]))


def _contour_reference(levels, throughput_range_hz, n_add_range, n_samples) -> str:
    """The contour table as it was first written: each level's kept points as fresh arrays."""
    lines = capacity_contours(levels, throughput_range_hz, n_add_range, n_samples)
    return "".join(float_table(CONTOUR_HEADER, ([line.level, line.theta[line.keep],
                                                 line.n_grid[line.keep]] for line in lines)))


# the tradeoff-tables workload's contours at seed 1
WORKLOAD_CONTOURS = ([35.7247, 1538.9, 3158.09], (1e-4, 1e12), (1e-3, 0.999), 100_000)


def test_contour_table_matches_the_fresh_array_reference_on_the_workload():
    text = "".join(contour_table(*WORKLOAD_CONTOURS))
    assert text == _contour_reference(*WORKLOAD_CONTOURS)
    assert text.count("\r\n") == 1 + 3 * 100_000


@pytest.mark.parametrize("n_samples", [5, 8, 16, 37])
@pytest.mark.parametrize(
    "levels",
    [[100.0], [100.0, 1e12], [1e12, 100.0, 300.0], [30.0, 100.0, 30.0]],
    ids=["clipped-both-ends", "then-empty", "empty-first", "repeated-level"],
)
def test_contour_table_matches_the_fresh_array_reference_in_small_chunks(
        monkeypatch, levels, n_samples):
    monkeypatch.setattr(registry, "_CHUNK_ROWS", 8)
    args = (levels, (60.0, 1e4), (1e-3, 0.999), n_samples)
    lines = capacity_contours(*args)
    # 100 qubits/s leaves the range at both ends of the n_add grid; 1e12 never enters it
    clipped = lines[levels.index(100.0)].keep
    assert not clipped[0] and not clipped[-1] and clipped.any()
    assert all(not line.keep.any() for line in lines if line.level == 1e12)
    assert "".join(contour_table(*args)) == _contour_reference(*args)


def test_float_table_writes_a_non_contiguous_mask(monkeypatch):
    monkeypatch.setattr(registry, "_CHUNK_ROWS", 4)
    x, y = np.linspace(0.5, 9.5, 11), np.geomspace(1.0, 1e3, 11)
    keep = np.array([1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1], bool)
    blocks = [MaskedBlock([2.0, x, y], keep), MaskedBlock([3.0, -x, y], ~keep)]
    text = "".join(float_table(CONTOUR_HEADER, blocks))
    assert text == "".join(float_table(CONTOUR_HEADER, [[2.0, x[keep], y[keep]],
                                                        [3.0, -x[~keep], y[~keep]]]))
    assert text == _writer_text(CONTOUR_HEADER, _rows(blocks))
    assert text.count("\r\n") == 1 + 11


def test_contour_table_formats_the_shared_grid_once(monkeypatch):
    args = ([100.0, 1e12, 300.0], (60.0, 1e4), (1e-3, 0.999), 64)
    kept = sum(int(line.keep.sum()) for line in capacity_contours(*args))
    calls = _count_formats(monkeypatch)
    text = "".join(contour_table(*args))
    assert text.count("\r\n") == 1 + kept
    # the grid once, each kept throughput and each level; the fresh-array
    # formulation formats 2 * kept + 3
    assert len(calls) == 64 + kept + 3 < 2 * kept + 3


def test_streaming_contour_table_peaks_below_the_fresh_array_formulation():
    tracemalloc.start()
    try:
        rows = sum(chunk.count("\n") for chunk in contour_table(*WORKLOAD_CONTOURS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 1 + 3 * 100_000
    # the masked-copy formulation peaked at 7,303,167 B here (Python 3.11, numpy 2.4)
    assert peak <= 7_303_167


# 1.8e308 reads as inf; the largest finite float is 1.7976931348623157e308
SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1.8e308, -1.8e308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1]
_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
# text that csv.writer quotes more often than not
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters()), max_size=6)


@st.composite
def _table_blocks(draw):
    """Blocks of one row count: a constant float or text, an axis or a fresh
    array, a fresh float64, float32, int array or list, and sometimes a mask."""
    n_rows = draw(st.integers(0, 11))
    dtypes = st.sampled_from(["float64", "float32", "int64"])

    def fresh():
        dtype = draw(dtypes)
        elements = {"float64": _FLOATS, "float32": st.floats(width=32),
                    "int64": st.integers(-2**63, 2**63 - 1)}[dtype]
        values = draw(hnp.arrays(dtype, n_rows, elements=elements))
        return values.tolist() if draw(st.booleans()) and dtype == "float64" else values

    axis = fresh()
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        entries = [draw(st.one_of(_FLOATS, _TEXT)), axis if draw(st.booleans()) else fresh(),
                   fresh()]
        if draw(st.booleans()):
            keep = draw(hnp.arrays(bool, n_rows))
            blocks.append(MaskedBlock(entries, keep))
        else:
            blocks.append(entries)
    return blocks


@settings(max_examples=150)
@given(header=st.lists(_TEXT, min_size=3, max_size=3), blocks=_table_blocks(),
       chunk_rows=st.integers(1, 5))
def test_float_table_matches_csv_writer_on_drawn_tables(header, blocks, chunk_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_CHUNK_ROWS", chunk_rows)
        text = "".join(float_table(header, blocks))
    assert text == _writer_text(header, _rows(blocks))
