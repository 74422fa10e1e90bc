"""Spans around the calls into dampedjc's layers, recorded from outside.

install() replaces module-level names of dampedjc.superop, .oracle,
.analytic, .zassenhaus and .cli with wrappers that record a span (name,
start, end, parent, operation) per call, in memory.  A name is replaced in
the modules that call it, since each module binds its own reference.  Spans
are recorded only while an operation is open, so set-up, warm-up and the
correctness checks leave none.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
import time
from pathlib import Path

# span name, attribute, modules whose binding of it is replaced, size of one
# call (from its arguments and result) or None
LAYERS = (
    ("superop.build_generator", "build_generator", ("cli", "oracle"),
     lambda args, out: out.nbytes),
    # scipy.linalg.expm as called from cli and oracle
    ("oracle.expm", "expm", ("cli", "oracle"), lambda args, out: args[0].shape[0]),
    ("oracle.oracle_propagate", "oracle_propagate", ("cli",), None),
    ("analytic.tau_series", "tau_series", ("zassenhaus",), None),
    # the package re-export is what library callers use
    ("zassenhaus.propagate", "propagate", ("cli", "zassenhaus", "dampedjc"), None),
    # scipy.sparse.linalg.expm_multiply: the split3 commutator factor
    ("zassenhaus.comm_factor", "expm_multiply", ("zassenhaus",), None),
    ("cli.run_trajectory", "run_trajectory", ("cli",), None),
    ("cli.convergence_study", "convergence_study", ("cli",), None),
    ("cli.observables", "observables", ("cli",), None),
    ("cli.render", "render_csv", ("cli",), lambda args, out: len(out.encode())),
)

# per-layer metric: (unit, span name, statistic of that span in one operation)
PER_LAYER = {
    "superop.build_generator.s": ("s", "superop.build_generator", "s"),
    "superop.build_generator.calls": ("count", "superop.build_generator", "calls"),
    "superop.generator_bytes": ("bytes-computed", "superop.build_generator", "size_sum"),
    "oracle.expm.s": ("s", "oracle.expm", "s"),
    "oracle.expm.calls": ("count", "oracle.expm", "calls"),
    "oracle.expm.max_order": ("rows", "oracle.expm", "size_max"),
    "oracle.oracle_propagate.s": ("s", "oracle.oracle_propagate", "s"),
    "oracle.oracle_propagate.calls": ("count", "oracle.oracle_propagate", "calls"),
    "oracle.oracle_propagate.self_s": ("s", "oracle.oracle_propagate", "self_s"),
    "analytic.tau_series.s": ("s", "analytic.tau_series", "s"),
    "analytic.tau_series.calls": ("count", "analytic.tau_series", "calls"),
    "zassenhaus.propagate.s": ("s", "zassenhaus.propagate", "s"),
    "zassenhaus.propagate.calls": ("count", "zassenhaus.propagate", "calls"),
    "zassenhaus.propagate.self_s": ("s", "zassenhaus.propagate", "self_s"),
    "zassenhaus.comm_factor.s": ("s", "zassenhaus.comm_factor", "s"),
    "zassenhaus.comm_factor.calls": ("count", "zassenhaus.comm_factor", "calls"),
    "cli.run_trajectory.self_s": ("s", "cli.run_trajectory", "self_s"),
    "cli.convergence_study.self_s": ("s", "cli.convergence_study", "self_s"),
    "cli.observables.s": ("s", "cli.observables", "s"),
    "cli.observables.calls": ("count", "cli.observables", "calls"),
    "cli.render.s": ("s", "cli.render", "s"),
    "cli.output_bytes": ("bytes", "cli.render", "size_sum"),
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 for a root span
    op: int
    size: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []

    def wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if size is not None:
                span.size = size(args, out)
            return out
        return traced

    def write(self, path: Path):
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]))


def install(tracer: Tracer):
    for name, attr, modules, size in LAYERS:
        mods = [importlib.import_module(m if m == "dampedjc" else f"dampedjc.{m}")
                for m in modules]
        original = getattr(mods[0], attr)
        wrapper = tracer.wrap(name, original, size)
        for mod in mods:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the function traced "
                                   f"as {name}")
            setattr(mod, attr, wrapper)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def op_stats(spans: list[Span]) -> dict:
    """{op: {span name: {s, calls, self_s, size_sum, size_max}}}."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s.op, {}).setdefault(
            s.name, {"s": 0.0, "calls": 0, "self_s": 0.0, "size_sum": 0, "size_max": 0})
        dur = s.end - s.start
        st["s"] += dur
        st["calls"] += 1
        st["self_s"] += dur - _covered(children.get(i, ()))
        st["size_sum"] += s.size
        st["size_max"] = max(st["size_max"], s.size)
    return stats


def per_layer_metrics(spans: list[Span], ops) -> dict:
    """Median over the given operations of each per-layer metric; a layer the
    workload never calls reads 0."""
    stats = op_stats(spans)
    out = {}
    for metric, (unit, name, stat) in PER_LAYER.items():
        values = [stats.get(op, {}).get(name, {}).get(stat, 0) for op in ops]
        out[metric] = {"value": float(statistics.median(values)), "unit": unit}
    return out
