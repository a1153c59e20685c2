"""Spawning CLI children, timing passes and checking what they wrote.

A pass runs every invocation of a workload once, in order, each as its own
child process (one client, closed loop).  A child's time runs from just
before it is spawned to the moment it has been reaped, by which time its
whole stdout is written; its peak resident memory is the ``ru_maxrss``
that ``os.wait4`` returns for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path



class VerifyError(Exception):
    """The library contradicts itself on a workload input."""


@dataclass
class Outcome:
    """One child process as run and, after the pass, as checked."""

    kind: str
    argv: tuple
    start: float
    end: float
    returncode: int
    maxrss_kb: int
    stdout: bytes | None  # dropped once checked
    nbytes: int
    sha256: str
    ok: bool = False
    rows: int = 0
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"kind": self.kind, "argv": list(self.argv), "ok": self.ok,
                "returncode": self.returncode, "seconds": self.seconds,
                "maxrss_kb": self.maxrss_kb, "stdout_bytes": self.nbytes,
                "stdout_sha256": self.sha256, "rows": self.rows, "error": self.error}


class Spawner:
    """Runs commands as children of the ``spawn.py`` launcher, in ``cwd``
    with ``env``; close it (or use it as a context manager) to stop the
    launcher.

    A child's stdout and stderr go to files in ``cwd``; the stderr tail
    becomes the error of a child that exits non-zero.
    """

    def __init__(self, cwd: Path, env: dict):
        self.cwd = cwd
        self.env = env
        self.stdout_path = cwd / "child.stdout"
        self.stderr_path = cwd / "child.stderr"
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=cwd, env=env, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """End the launcher once its current child, if any, has ended."""
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, kind: str, argv: tuple, cmd) -> Outcome:
        request = {"cmd": [str(c) for c in cmd], "stdout": str(self.stdout_path),
                   "stderr": str(self.stderr_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(reply)
        stdout = self.stdout_path.read_bytes()
        outcome = Outcome(kind, argv, reply["start"], reply["end"], reply["returncode"],
                          reply["maxrss_kb"], stdout, len(stdout),
                          hashlib.sha256(stdout).hexdigest())
        if outcome.returncode != 0:
            tail = self.stderr_path.read_text(errors="replace")[-1000:]
            outcome.error = f"exit {outcome.returncode}: {tail}"
        return outcome


def run_pass(spawner: Spawner, invocations, prefix, after_each=None) -> list:
    """Run every invocation once as ``prefix + argv``; ``after_each`` sees
    each finished outcome, outside the timed span of any child."""
    outcomes = []
    for inv in invocations:
        outcomes.append(spawner.run(inv.kind, inv.argv, [*prefix, *inv.argv]))
        if after_each is not None:
            after_each(outcomes[-1])
    return outcomes


def tally(passes) -> tuple:
    """(attempted, failed) invocations over ``passes``."""
    outcomes = [o for p in passes for o in p]
    return len(outcomes), sum(not o.ok for o in outcomes)


def pass_seconds(outcomes) -> float:
    """From the first spawn to the last child reaped."""
    return outcomes[-1].end - outcomes[0].start


def check_pass(outcomes, invocations, workdir: Path) -> None:
    """Mark each outcome ok when it exited 0 and wrote exactly the expected
    bytes to stdout and to every file it is expected to write."""
    for outcome, inv in zip(outcomes, invocations):
        stdout, outcome.stdout = outcome.stdout, None
        if outcome.returncode != 0:
            continue
        try:
            expected = inv.expect()
        except VerifyError as exc:
            outcome.error = str(exc)
            continue
        if stdout != expected.stdout:
            outcome.error = "stdout differs from the library's output"
            continue
        wrong = [path for path, data in expected.files.items()
                 if not (workdir / path).is_file() or (workdir / path).read_bytes() != data]
        if wrong:
            outcome.error = f"files differ from the library's output: {wrong}"
            continue
        outcome.ok = True
        outcome.rows = expected.rows


def measure(seconds: float, one_pass) -> None:
    """Call ``one_pass`` (which returns its duration) until another call
    is expected to end past ``seconds``; always at least once."""
    start = time.perf_counter()
    durations = [one_pass()]
    while time.perf_counter() - start + statistics.median(durations) <= seconds:
        durations.append(one_pass())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    ``q`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]
