"""The BENCH_<pr>.json assembly of benchmarks/bench.py, on made-up run lines."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"

BENCHMARK = {
    "workloads": [{"name": "grid", "why": "formatting dominates"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(wall, rows_per_s, failed=0):
    """What perfbench/run.py prints: a log line, then the facts and the result."""
    facts = {"facts": {"workload": "grid", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "rows_per_s": {"value": rows_per_s, "unit": "1/s"}}}
    return "\n".join(["warm-up done", json.dumps(facts), json.dumps(result)]) + "\n"


def test_parse_pytest_summary(bench):
    output = "....x\n292 passed, 1 xfailed in 35.21s\n"
    assert bench.parse_pytest_summary(output) == {"passed": 292, "xfailed": 1}
    assert bench.parse_pytest_summary("") == {}


def test_assemble_medians_wins_and_verdicts(bench):
    walls = {"parent": [0.70, 0.72, 0.69, 0.75], "change": [0.36, 0.35, 0.80, 0.34]}
    runs = []
    for side, values in walls.items():
        for round_no, wall in enumerate(values):
            facts, result = bench.parse_run(_stdout(wall, 9e4 / wall, failed=side == "change"))
            runs.append({"workload": "grid", "side": side, "round": round_no,
                         "facts": facts, "result": result})
    sides = {"parent": {"commit": "a" * 40}, "change": {"commit": "b" * 40}}
    record = bench.assemble(11, BENCHMARK, {"rounds": 4}, sides, runs[::-1])

    assert record["pr"] == 11
    assert record["machine"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert record["sides"] == sides
    grid = record["workloads"]["grid"]
    assert grid["parent"]["failed"] == 0
    assert grid["change"]["failed"] == 4
    assert grid["change"]["attempted"] == 40
    parent_wall = grid["parent"]["metrics"]["wall_s"]
    assert parent_wall["runs"] == walls["parent"]
    assert parent_wall["median"] == pytest.approx(0.71)
    assert grid["change"]["metrics"]["wall_s"]["median"] == pytest.approx(0.355)
    wall = grid["verdicts"]["wall_s"]
    assert (wall["change_won"], wall["pairs"]) == (3, 4)
    assert wall["gain_shown"] is False  # 3 of 4 is below nine tenths
    assert wall["within_bound"] is True
    assert wall["relative_change"] == pytest.approx(0.355 / 0.71 - 1.0)
    rows = grid["verdicts"]["rows_per_s"]
    assert rows["change_won"] == 3  # higher is better
    json.dumps(record)


def test_assemble_flags_a_regression_past_the_bound(bench):
    runs = [{"workload": "grid", "side": side, "round": round_no,
             "facts": bench.parse_run(_stdout(wall, 1.0))[0],
             "result": bench.parse_run(_stdout(wall, 1.0))[1]}
            for side, wall in (("parent", 1.0), ("change", 1.3)) for round_no in range(10)]
    record = bench.assemble(12, BENCHMARK, {}, {}, runs)
    wall = record["workloads"]["grid"]["verdicts"]["wall_s"]
    assert wall["change_won"] == 0
    assert wall["within_bound"] is False
    assert record["workloads"]["grid"]["verdicts"]["rows_per_s"]["within_bound"] is True


def _runs(bench, walls, failed=None):
    """Run records of the grid workload, one per side and round."""
    failed = failed or {}
    return [{"workload": "grid", "side": side, "round": round_no,
             "facts": bench.parse_run(_stdout(wall, 1.0))[0],
             "result": bench.parse_run(_stdout(wall, 1.0, failed.get(side, 0)))[1]}
            for side, values in walls.items() for round_no, wall in enumerate(values)]


def test_assemble_shows_no_gain_when_more_operations_fail(bench):
    walls = {"parent": [1.0, 1.01, 0.99, 1.0] * 3, "change": [0.5] * 12}
    wall = bench.assemble(13, BENCHMARK, {}, {}, _runs(bench, walls))["workloads"]["grid"]
    assert wall["verdicts"]["wall_s"]["gain_shown"] is True
    record = bench.assemble(13, BENCHMARK, {}, {}, _runs(bench, walls, {"change": 1}))
    grid = record["workloads"]["grid"]
    assert (grid["parent"]["failed"], grid["change"]["failed"]) == (0, 12)
    assert grid["verdicts"]["wall_s"]["change_won"] == 12
    assert grid["verdicts"]["wall_s"]["gain_shown"] is False


def test_assemble_leaves_a_metric_unresolved_when_the_parent_spreads_past_the_bound(bench):
    # parent quartiles 0.725 and 1.275 around a median of 1.0: an IQR of 0.55 > 0.25
    parent = [0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4]
    unresolved = {"parent": parent, "change": [1.05] * 8}
    verdict = bench.assemble(14, BENCHMARK, {}, {}, _runs(bench, unresolved))
    assert verdict["workloads"]["grid"]["verdicts"]["wall_s"]["within_bound"] == "unresolved"
    # every change run beats every parent run: resolved despite the spread
    separated = {"parent": parent, "change": [0.5] * 8}
    verdict = bench.assemble(14, BENCHMARK, {}, {}, _runs(bench, separated))
    assert verdict["workloads"]["grid"]["verdicts"]["wall_s"]["within_bound"] is True
