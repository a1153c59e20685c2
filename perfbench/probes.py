"""Layer probes that need no workload: the import profile and the
capacity-kernel microbenchmark."""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

KERNEL_POINTS = 1_000_000
KERNEL_REPEATS = 7

# Computed, not measured: cap_ub_grid reads two float64 inputs and writes
# one float64 output per point.  numpy's temporaries move more than this.
KERNEL_MIN_BYTES_PER_POINT = 24
# Computed from the kernel's formula, floating-point operations per point,
# leaving out the comparisons and selects of its branches: 1 - N,
# eta*(1-N), eta*N, ln N, (eta*N)*ln N, 1 - x, -x, min(-x, 0), log1p,
# (1-x)*log1p, t1 - t2, 1 - eta, (1-eta)*ln 2, the division and the floor
# at zero.
KERNEL_OPS_PER_POINT = 15


def import_profile(python: str, cwd, env, repeats: int = 5) -> dict:
    """Median milliseconds from ``python -X importtime -c "import quduct.cli"``:
    the cumulative time of quduct.cli and of numpy, and the summed self
    time of every quduct module."""
    samples = {"import.quduct_cli_ms": [], "import.numpy_ms": [], "import.quduct_self_ms": []}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import quduct.cli"],
                              cwd=cwd, env=env, capture_output=True, text=True, check=True)
        cumulative, quduct_self = {}, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header line
            name = name.strip()
            cumulative[name] = int(cum_us)
            if name == "quduct" or name.startswith("quduct."):
                quduct_self += int(self_us)
        samples["import.quduct_cli_ms"].append(cumulative["quduct.cli"] / 1e3)
        samples["import.numpy_ms"].append(cumulative["numpy"] / 1e3)
        samples["import.quduct_self_ms"].append(quduct_self / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}


def kernel_ns_per_point(seed: int) -> float:
    """Median ns per point of ``cap_ub_grid`` alone on 10^6 points.

    The 24 MB of inputs and output stay cache-resident on a machine with a
    large shared L3, so the figure is compute time, not memory bandwidth.
    """
    from quduct.capacity import cap_ub_grid

    rng = np.random.default_rng([seed, KERNEL_POINTS])
    eta = rng.uniform(0.0, 0.99, KERNEL_POINTS)
    n_add = rng.uniform(0.0, 1.5, KERNEL_POINTS)
    cap_ub_grid(eta, n_add)
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        cap_ub_grid(eta, n_add)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / KERNEL_POINTS * 1e9
