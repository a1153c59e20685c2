"""End-to-end benchmark of a change against its parent: writes BENCH_<pr>.json.

Usage, from anywhere inside a quduct checkout:

    python3 benchmarks/bench.py --pr N --parent REV [--rounds R]

The change is this checkout's working tree (its tracked files and the
untracked ones git does not ignore); the parent is the committed tree of
REV, exported with ``git archive``.  Each side is copied into a fresh
temporary directory, so both run from the same kind of place, and the run
registers no worktree and leaves the repository untouched.  Each round
runs ``perfbench/run.py --trace 0`` of each side on every workload that
BENCHMARK.json declares, for its ``run_seconds`` and with seed 1,
alternating which side runs first from one round to the next.  Both
sides then run the tier-1 suite once.

BENCH_<N>.json, written to the root of the checkout, holds: the machine
(nproc, python, numpy), each side's commit, its ``src/quduct`` line count
per file and its tier-1 counts, and per workload and side every end-to-end
metric's runs with their median and quartiles.  Per metric it also holds
the number of rounds the change won (ties count for neither), whether a
gain is shown (won at least nine tenths of the rounds, the medians differ
by more than the parent's interquartile range, and no more operations
failed than at the parent) and whether the change's median is within the
bound BENCHMARK.json fixes: "unresolved" when the parent's interquartile
range is wider than that bound and not every change run beats every
parent run.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 1


def parse_run(stdout: str) -> tuple:
    """(facts, result) from the last two stdout lines of perfbench/run.py."""
    facts_line, result_line = stdout.strip().splitlines()[-2:]
    return json.loads(facts_line)["facts"], json.loads(result_line)


def parse_pytest_summary(output: str) -> dict:
    """Counts of the last pytest summary line, such as ``292 passed, 1 xfailed``."""
    last = output.strip().splitlines()[-1] if output.strip() else ""
    return {word: int(count) for count, word in re.findall(r"(\d+) ([a-z]+)", last)}


def _spread(values) -> dict:
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "runs": list(values)}


def assemble(pr: int, benchmark: dict, settings: dict, sides: dict, runs: list) -> dict:
    """The BENCH_<pr>.json record.

    ``runs`` holds one dict per perfbench run: ``workload``, ``side``,
    ``round``, and the ``facts`` and ``result`` that :func:`parse_run` gives.
    ``sides`` maps each side to its commit, line counts and tier-1 counts.
    """
    machine = {}
    workloads = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        by_side = {side: sorted((r for r in runs if r["workload"] == name and r["side"] == side),
                                key=lambda r: r["round"]) for side in SIDES}
        entry = {"why": spec["why"]}
        for side, side_runs in by_side.items():
            for run in side_runs:
                machine = {key: run["facts"][key] for key in ("nproc", "python", "numpy")}
            entry[side] = {
                "attempted": sum(r["result"]["attempted"] for r in side_runs),
                "failed": sum(r["result"]["failed"] for r in side_runs),
                "metrics": {
                    metric["name"]: _spread([r["result"]["metrics"][metric["name"]]["value"]
                                             for r in side_runs])
                    for metric in benchmark["end_to_end"]
                },
            }
        no_more_failed = entry["change"]["failed"] <= entry["parent"]["failed"]
        verdicts = {}
        for metric in benchmark["end_to_end"]:
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent, change = (entry[side]["metrics"][metric["name"]] for side in SIDES)
            pairs = list(zip(parent["runs"], change["runs"]))
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            improvement = sign * (parent["median"] - change["median"])
            parent_iqr = parent["q3"] - parent["q1"]
            bound = metric["bound"] * parent["median"]
            separated = all(sign * (p - c) > 0 for p in parent["runs"] for c in change["runs"])
            verdicts[metric["name"]] = {
                "unit": metric["unit"],
                "change_won": wins,
                "pairs": len(pairs),
                "relative_change": change["median"] / parent["median"] - 1.0,
                "gain_shown": bool(pairs) and wins >= 0.9 * len(pairs)
                and improvement > parent_iqr and no_more_failed,
                "within_bound": "unresolved" if parent_iqr > bound and not separated
                else -improvement <= bound,
            }
        entry["verdicts"] = verdicts
        workloads[name] = entry
    return {"pr": pr, "settings": settings, "machine": machine, "sides": sides,
            "workloads": workloads}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout


def _export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` as plain files under ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(dest, filter="data")


def _copy_working_tree(dest: Path) -> None:
    """The files of this checkout that git tracks or does not ignore, under ``dest``."""
    for name in _git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0"):
        if name and (ROOT / name).is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _line_counts(checkout: Path) -> dict:
    files = {path.name: len(path.read_text().splitlines())
             for path in sorted((checkout / "src" / "quduct").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def _tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True, check=False)
    return parse_pytest_summary(proc.stdout)


def _perfbench(checkout: Path, workload: str, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} in {checkout} failed:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Benchmark a change against its parent.")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        _export(args.parent, checkouts["parent"])
        _copy_working_tree(checkouts["change"])
        sides = {
            "parent": {"commit": _git("rev-parse", args.parent).strip()},
            "change": {"commit": _git("rev-parse", "HEAD").strip(),
                       "uncommitted_changes": bool(_git("status", "--porcelain").strip())},
        }
        runs = []
        for round_no in range(args.rounds):
            order = SIDES if round_no % 2 == 0 else SIDES[::-1]
            for spec in benchmark["workloads"]:
                for side in order:
                    facts, result = _perfbench(checkouts[side], spec["name"],
                                               benchmark["run_seconds"])
                    runs.append({"workload": spec["name"], "side": side, "round": round_no,
                                 "facts": facts, "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"round {round_no} {spec['name']} {side}: wall_s {wall:.3f}",
                          file=sys.stderr)
        for side, checkout in checkouts.items():
            sides[side]["src_quduct_lines"] = _line_counts(checkout)
            sides[side]["tier1"] = _tier1(checkout)

    settings = {"rounds": args.rounds, "seconds": benchmark["run_seconds"], "seed": SEED,
                "parent_rev": args.parent}
    record = assemble(args.pr, benchmark, settings, sides, runs)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
