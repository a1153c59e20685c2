"""Benchmark of the quduct CLI: four seeded workloads, end to end and per layer.

Usage, from the root of a quduct checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): capacity-grid,
filter-preset, tradeoff-tables, design-session.  Each runs as a closed
loop: one client spawns ``python -m quduct.cli ...`` children one after
the other, with an absolute PYTHONPATH to ``src``, so no install is needed.
Passes over the workload repeat until ``--seconds`` would be exceeded;
every child's stdout is compared byte for byte with what the library's
public functions give on the same inputs.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: median wall time of a fresh ``import quduct.cli`` process
* ``wall_s``: median pass time, first spawn to last child reaped
* ``rows_per_s``: data rows written per second of a pass
* ``cmd_p50_s``, ``cmd_p90_s``: latency of one invocation
* ``peak_rss_mb``: largest ``ru_maxrss`` of any child

``--trace 1`` alternates untraced passes with traced ones, in which each
child runs through ``tracer.py``; it reports the per-layer metrics listed
in ``LAYER_UNITS``, the import profile, the capacity-kernel
microbenchmark and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's facts (machine, versions, commit, seed, src line count).  The full
record, with stdout bytes and sha256 of every invocation, is written to
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

import harness
import probes
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
TRACER = HERE / "tracer.py"
SETUP_SPAWNS = 9
WORKLOAD_NAMES = ("capacity-grid", "filter-preset", "tradeoff-tables", "design-session")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "rows_per_s": "1/s",
    "cmd_p50_s": "s", "cmd_p90_s": "s", "peak_rss_mb": "MB",
}
# Each layer metric with the end-to-end metric it should move, and where:
LAYER_UNITS = {
    "import.quduct_cli_ms": "ms",       # setup_s everywhere; cmd_p50_s on design-session
    "import.numpy_ms": "ms",
    "import.quduct_self_ms": "ms",
    "cli.self_s": "s",                  # rows_per_s on tradeoff-tables, capacity-grid
    "cli.rows": "count",
    "cli.bytes": "B",
    "capacity.point_calls": "count",    # rows_per_s on capacity-grid
    "capacity.point_self_s": "s",
    "capacity.small_eta_self_s": "s",   # rows_per_s on tradeoff-tables
    "capacity.contours_s": "s",
    "capacity.quadrature_ms": "ms",     # cmd_p90_s on design-session
    "capacity.closed_us": "us",
    "capacity.kernel_ns_per_point": "ns",  # bound on rows_per_s, capacity-grid
    "capacity.kernel_bytes_per_point_computed": "B",
    "capacity.kernel_ops_per_byte_computed": "1/B",
    "noise.evaluate_calls": "count",    # wall_s on tradeoff-tables, cmd_p90_s on design-session
    "noise.self_s": "s",
    "optimize.self_s": "s",             # cmd_p90_s on design-session, wall_s on tradeoff-tables
    "optimize.evals_down": "count",
    "optimize.evals_up": "count",
    "filters.tuned_preset_s": "s",      # wall_s on filter-preset
    "filters.analyze_filter_calls": "count",
    "filters.impulse_response_s": "s",
    "filters.fft_points": "count",
    "config.load_calls": "count",       # cmd_p50_s, cmd_p90_s on design-session
    "config.load_s": "s",
    "spectra.fit_lorentzian_s": "s",
    "calibration.fit_occupancy_s": "s",
    "registry.emit_comparison_s": "s",
    "trace.overhead_frac": "frac",      # traced wall_s / untraced wall_s - 1
    "failed_frac": "frac",              # failed / attempted invocations
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def facts(workload: str, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = f"{size} shared by cpus {shared}"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_quduct_lines": sum(len(p.read_text().splitlines())
                                for p in sorted((SRC / "quduct").rglob("*.py"))),
        "caches": caches,
    }


def end_to_end(args, invocations, spawner, workdir) -> tuple:
    py = sys.executable
    setup = []
    for _ in range(SETUP_SPAWNS):
        child = spawner.run("setup", (), [py, "-c", "import quduct.cli"])
        if child.returncode != 0:
            raise RuntimeError(f"import quduct.cli failed: {child.error}")
        setup.append(child.seconds)

    passes = []

    def one_pass():
        outcomes = harness.run_pass(spawner, invocations, [py, "-m", "quduct.cli"])
        harness.check_pass(outcomes, invocations, workdir)
        passes.append(outcomes)
        return harness.pass_seconds(outcomes)

    harness.measure(args.seconds, one_pass)
    latencies = [o.seconds for outcomes in passes for o in outcomes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(harness.pass_seconds(p) for p in passes),
        "rows_per_s": statistics.median(sum(o.rows for o in p) / harness.pass_seconds(p)
                                        for p in passes),
        "cmd_p50_s": harness.percentile(latencies, 0.5),
        "cmd_p90_s": harness.percentile(latencies, 0.9),
        "peak_rss_mb": max(o.maxrss_kb for p in passes for o in p) / 1024.0,
    }
    counts = {"passes": len(passes), "cmd_samples": len(latencies), "setup_spawns": len(setup)}
    return metrics, E2E_UNITS, passes, counts


def _read_summary(path: Path) -> dict:
    try:
        summary = json.loads(path.read_text())
    except FileNotFoundError:
        return {"layers": {}, "edges": {}}
    path.unlink()
    return summary


def layer_metrics(summaries, outcomes) -> dict:
    """Per-layer metrics of one traced pass from its children's span
    summaries and checked outcomes."""
    layers, edges = {}, {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            total = layers.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
        for key, value in summary["edges"].items():
            edges[key] = edges.get(key, 0) + value

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    def per_call(layer, key, scale=1.0):
        calls = get(layer, "calls")
        return get(layer, key) / calls * scale if calls else 0.0

    def evals_per_call(layer):
        calls = get(layer, "calls")
        return edges.get(f"{layer}>noise.evaluate", 0) / calls if calls else 0.0

    return {
        "cli.self_s": get(tracer.ROOT, "self_s"),
        "cli.rows": sum(o.rows for o in outcomes),
        "cli.bytes": sum(o.nbytes for o in outcomes),
        "capacity.point_calls": get("capacity.point", "calls"),
        "capacity.point_self_s": get("capacity.point", "self_s"),
        "capacity.small_eta_self_s": get("capacity.small_eta", "self_s"),
        "capacity.contours_s": get("capacity.contours", "total_s"),
        "capacity.quadrature_ms": per_call("capacity.quadrature", "total_s", 1e3),
        "capacity.closed_us": per_call("capacity.closed", "total_s", 1e6),
        "noise.evaluate_calls": get("noise.evaluate", "calls"),
        "noise.self_s": get("noise.evaluate", "self_s"),
        "optimize.self_s": sum(get(f"optimize.{name}", "self_s")
                               for name in ("sweep", "up", "down")),
        "optimize.evals_down": evals_per_call("optimize.down"),
        "optimize.evals_up": evals_per_call("optimize.up"),
        "filters.tuned_preset_s": get("filters.tuned_preset", "total_s"),
        "filters.analyze_filter_calls": get("filters.analyze_filter", "calls"),
        "filters.impulse_response_s": get("filters.impulse_response", "total_s"),
        "filters.fft_points": get("filters.impulse_response", "work"),
        "config.load_calls": get("config.load", "calls"),
        "config.load_s": get("config.load", "total_s"),
        "spectra.fit_lorentzian_s": get("spectra.fit_lorentzian", "total_s"),
        "calibration.fit_occupancy_s": get("calibration.fit_occupancy", "total_s"),
        "registry.emit_comparison_s": get("registry.emit_comparison", "total_s"),
    }


def per_layer(args, invocations, spawner, workdir) -> tuple:
    py = sys.executable
    summary_path = workdir / "spans.json"
    untraced, traced, per_pass = [], [], []

    def one_pair():
        plain = harness.run_pass(spawner, invocations, [py, "-m", "quduct.cli"])
        summaries = []
        spans = harness.run_pass(spawner, invocations, [py, str(TRACER), str(summary_path)],
                                 after_each=lambda _: summaries.append(_read_summary(summary_path)))
        harness.check_pass(plain, invocations, workdir)
        harness.check_pass(spans, invocations, workdir)
        for a, b in zip(plain, spans):
            if b.ok and a.sha256 != b.sha256:
                b.ok, b.error = False, "traced stdout differs from untraced stdout"
        untraced.append(plain)
        traced.append(spans)
        per_pass.append(layer_metrics(summaries, spans))
        return harness.pass_seconds(plain) + harness.pass_seconds(spans)

    harness.measure(args.seconds, one_pair)
    metrics = {name: statistics.mean(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update(probes.import_profile(py, workdir, spawner.env))
    metrics["capacity.kernel_ns_per_point"] = probes.kernel_ns_per_point(args.seed)
    metrics["capacity.kernel_bytes_per_point_computed"] = probes.KERNEL_MIN_BYTES_PER_POINT
    metrics["capacity.kernel_ops_per_byte_computed"] = (
        probes.KERNEL_OPS_PER_POINT / probes.KERNEL_MIN_BYTES_PER_POINT)
    untraced_wall = statistics.median(harness.pass_seconds(p) for p in untraced)
    traced_wall = statistics.median(harness.pass_seconds(p) for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    passes = untraced + traced
    attempted, failed = harness.tally(passes)
    metrics["failed_frac"] = failed / attempted
    counts = {"passes": len(passes), "cmd_samples": attempted}
    return {name: metrics[name] for name in LAYER_UNITS}, LAYER_UNITS, passes, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the quduct CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quduct" / "cli.py").is_file():
        print(f"error: {SRC / 'quduct'} not found; run from the root of a quduct checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        invocations = workloads.WORKLOADS[args.workload](args.seed, workdir)
        with harness.Spawner(workdir, child_env()) as spawner:
            spawner.run("warm-up", (), [sys.executable, "-c", "import quduct.cli"])  # writes .pyc
            run = per_layer if args.trace else end_to_end
            metrics, units, passes, counts = run(args, invocations, spawner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = harness.tally(passes)
    outcomes = [o for p in passes for o in p]
    for o in [o for o in outcomes if not o.ok][:5]:
        print(f"failed: {' '.join(o.argv)}: {o.error}", file=sys.stderr)
    run_facts = facts(args.workload, args.seed) | counts
    run_facts["invocations_per_pass"] = len(invocations)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"facts": run_facts, "result": result,
              "invocations": [o.record() for o in outcomes]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"facts": run_facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
