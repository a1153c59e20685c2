"""Run one quduct CLI invocation with a span around every layer call.

Usage: python perfbench/tracer.py SUMMARY_JSON ARG...

Runs ``quduct.cli.cli_dispatch(ARGS)`` in this process, exactly as
``python -m quduct.cli ARG...`` would, after replacing each public
function in ``TARGETS`` by a wrapper that records a span: layer, parent
span, start and end.  The wrapper is installed at the name the caller
resolves, so ``from .capacity import cap_ub_point`` in the CLI is traced
through ``quduct.cli.cap_ub_point``.  Spans are kept in memory; when the
invocation ends their per-layer summary is written to SUMMARY_JSON.
Stdout is the CLI's own, byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (layer, module the caller resolves the name in, attribute)
TARGETS = (
    ("config.load", "quduct.cli", "load_config"),
    ("capacity.point", "quduct.cli", "cap_ub_point"),
    ("capacity.small_eta", "quduct.cli", "cap_small_eta"),
    ("capacity.closed", "quduct.cli", "cap_integrated_closed"),
    ("capacity.quadrature", "quduct.cli", "cap_integrated_quadrature"),
    ("capacity.contours", "quduct.cli", "capacity_contours"),
    ("capacity.contours", "quduct.registry", "capacity_contours"),
    ("noise.evaluate", "quduct.noise", "evaluate"),
    ("optimize.sweep", "quduct.optimize", "sweep"),
    ("optimize.up", "quduct.optimize", "optimize_up"),
    ("optimize.down", "quduct.optimize", "optimize_down"),
    ("filters.tuned_preset", "quduct.filters", "tuned_preset"),
    ("filters.analyze_filter", "quduct.filters", "analyze_filter"),
    ("filters.impulse_response", "quduct.filters", "impulse_response"),
    ("spectra.fit_lorentzian", "quduct.spectra", "fit_lorentzian"),
    ("calibration.fit_occupancy", "quduct.calibration", "fit_occupancy"),
    ("registry.emit_comparison", "quduct.registry", "emit_comparison"),
)
ROOT = "cli.dispatch"


def _fft_points(fn):
    """impulse_response runs two FFTs of n_points each."""
    signature = inspect.signature(fn)

    def count(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return 2 * bound.arguments["n_points"]

    return count


class Spans:
    """Spans of one invocation: [layer, parent index, start, end, work]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, layer, fn, args=(), kwargs=None, work=0):
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, parent, time.perf_counter(), None, work])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._open.pop()

    def wrap(self, layer, fn):
        counter = _fft_points(fn) if layer == "filters.impulse_response" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = counter(args, kwargs) if counter else 0
            return self.call(layer, fn, args, kwargs, work)

        return traced

    def summary(self) -> dict:
        """Per layer: calls, total and self seconds, work; and the number
        of calls each layer made into each other layer."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers, edges = {}, {}
        for (layer, parent, start, end, work), inner in zip(self.spans, child_time):
            entry = layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
            entry["work"] += work
            if parent >= 0:
                key = f"{self.spans[parent][0]}>{layer}"
                edges[key] = edges.get(key, 0) + 1
        return {"layers": layers, "edges": edges}


def install(spans: Spans) -> None:
    """Wrap every target the code has; a name a later version no longer
    resolves there is skipped, and its layer reports no calls."""
    for layer, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attribute, None)
        if fn is not None:
            setattr(module, attribute, spans.wrap(layer, fn))


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    import quduct.cli

    spans = Spans()
    install(spans)
    code = spans.call(ROOT, quduct.cli.cli_dispatch, (cli_args,))
    sys.stdout.flush()
    with open(summary_path, "w") as fh:
        json.dump(spans.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
