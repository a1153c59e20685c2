"""Tests of the benchmark itself: seeded inputs, failure counting, and
the traced run leaving stdout untouched.

Run with: python3 -m pytest perfbench/tests
"""

import collections
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _inputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_seed_fixes_inputs_and_never_the_counts(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        dirs = [tmp_path / f"{name}-{k}" for k in range(3)]
        for d in dirs:
            d.mkdir()
        first, again, other = (build(seed, d) for seed, d in zip((3, 3, 4), dirs))
        assert [i.argv for i in first] == [i.argv for i in again]
        assert _inputs(dirs[0]) == _inputs(dirs[1])
        assert [i.argv for i in first] != [i.argv for i in other]
        assert collections.Counter(i.kind for i in first) == collections.Counter(
            i.kind for i in other)
        if name == "capacity-grid":
            assert [i.expect().rows for i in first] == [i.expect().rows for i in other]


class CorruptingSpawner:
    """Stands in for child processes: answers every invocation with the
    expected output, except that one byte of ``corrupt``'s stdout is flipped."""

    def __init__(self, invocations, workdir, corrupt):
        self.by_argv = {inv.argv: inv for inv in invocations}
        self.workdir = workdir
        self.corrupt = corrupt
        self.env = run.child_env()

    def run(self, kind, argv, cmd):
        stdout = b""
        if argv in self.by_argv:
            expected = self.by_argv[argv].expect()
            for path, data in expected.files.items():
                (self.workdir / path).parent.mkdir(exist_ok=True)
                (self.workdir / path).write_bytes(data)
            stdout = bytearray(expected.stdout)
            if argv == self.corrupt:
                stdout[len(stdout) // 2] ^= 0x01
            stdout = bytes(stdout)
        return harness.Outcome(kind, argv, 0.0, 0.01, 0, 1024, stdout, len(stdout), "")


def test_corrupted_stdout_byte_counts_as_failed(tmp_path):
    invocations = workloads.design_session(5, tmp_path)
    corrupt = next(inv.argv for inv in invocations if inv.kind == "noise")
    spawner = CorruptingSpawner(invocations, tmp_path, corrupt)
    args = types.SimpleNamespace(seconds=0.0, seed=5)

    _, _, passes, _ = run.end_to_end(args, invocations, spawner, tmp_path)
    assert harness.tally(passes) == (len(invocations), 1)

    metrics, _, passes, _ = run.per_layer(args, invocations, spawner, tmp_path)
    attempted, failed = harness.tally(passes)
    assert (attempted, failed) == (2 * len(invocations), 2)
    assert metrics["failed_frac"] == failed / attempted


def test_traced_and_untraced_stdout_match(tmp_path):
    one_of_each_kind = {inv.kind: inv for inv in workloads.design_session(7, tmp_path)}
    invocations = list(one_of_each_kind.values())
    with harness.Spawner(tmp_path, run.child_env()) as spawner:
        plain = harness.run_pass(spawner, invocations, [sys.executable, "-m", "quduct.cli"])
        traced = harness.run_pass(spawner, invocations,
                                  [sys.executable, str(run.TRACER), str(tmp_path / "spans.json")])
    harness.check_pass(plain, invocations, tmp_path)
    harness.check_pass(traced, invocations, tmp_path)
    assert all(o.ok for o in plain + traced), [o.error for o in plain + traced if not o.ok]
    assert [o.sha256 for o in plain] == [o.sha256 for o in traced]
