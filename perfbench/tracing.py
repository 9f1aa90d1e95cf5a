"""Spans around the benchmark's calls into rsfilt, and the per-layer metrics.

A span is (name, start, end, parent, status, counters). Op spans are the
timed operations themselves; layer spans are the calls an op makes into a
module's public functions and have the op span as parent. Spans stay in
memory and are written out once, when the run ends. With tracing off,
``Tracer.call`` is a plain call, so the untraced loop pays for nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Layer functions the benchmark calls, named "<module>.<function>".
# "model.build" stands for every build_* call; "cli.<verb>" for one cli.run.
LAYER_FUNCS = (
    "model.build",
    "model.sample_paths",
    "volterra.solve_volterra",
    "volterra.solve_volterra_matrix",
    "volterra.solve_volterra_correlated",
    "filtering.leg_filter",
    "filtering.risk_neutral_filter",
    "filtering.filter_correlated",
    "filtering.optimal_risk",
    "cameron_martin.cm_decompose",
    "sim.estimate_risk",
    "sim.compare_filters",
    "cli.validate",
    "cli.risk",
    "cli.filter",
    "cli.cm",
    "cli.simulate",
    "cli.compare",
    "cli.example-5-2",
)

LADDER = (
    "volterra.solve_volterra.T100_s",
    "volterra.solve_volterra.T200_s",
    "volterra.solve_volterra.T400_s",
    "volterra.solve_volterra.T800_s",
    "filtering.leg_filter.b32768_T25_s",
    "filtering.leg_filter.b32768_T100_s",
    "filtering.leg_filter.b1_T800_s",
)


def solve_flops(sol) -> float:
    """Flops of the scalar column loop, computed from the table's size.

    Column s (0-based) updates T-s entries, each a length-s sum of
    3-flop terms; an infeasible solve stops after column first_violation.
    """
    T = sol.gamma_bar.shape[0]
    cols = T if sol.feasible else sol.first_violation
    return float(sum(3 * s * (T - s) for s in range(cols)))


# Work counts derived from a call's result, per layer function.
COUNTERS = {
    "volterra.solve_volterra": lambda sol: {
        "flops": solve_flops(sol), "infeasible": 0 if sol.feasible else 1,
    },
    "filtering.leg_filter": lambda run: {"path_steps": run.h_bar.size},
    "model.sample_paths": lambda xy: {"paths": xy[0].shape[0]},
    "sim.estimate_risk": lambda est: {"paths": est.n_paths},
    "sim.compare_filters": lambda rep: {"paths": rep.estimate_a.n_paths},
}


class Tracer:
    def __init__(self, enabled: bool, expected=()):
        self.enabled = enabled
        self.expected = tuple(expected)  # exceptions that are not failures
        self.spans = []
        self._parent = None

    def call(self, name, fn, *args, ok=None, **kwargs):
        """Call fn; when enabled, record a span. ``ok`` judges the result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        status, counters = "failed", {}
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            status = "ok" if ok is None or ok(out) else "failed"
            if name in COUNTERS:
                counters = COUNTERS[name](out)
            return out
        except self.expected:
            status = "expected"
            raise
        finally:
            self.spans.append((name, start, time.perf_counter(), self._parent, status, counters))

    @contextmanager
    def span(self, name):
        """Enclosing span (an op or a probe); calls inside get it as parent."""
        if not self.enabled:
            yield
            return
        index, start = len(self.spans), time.perf_counter()
        self.spans.append(None)  # placeholder keeps the parent index stable
        self._parent = index
        status = "failed"
        try:
            yield
            status = "ok"
        finally:
            self._parent = None
            self.spans[index] = (name, start, time.perf_counter(), None, status, {})

    def layer_metrics(self) -> dict:
        """Self time, calls, failures and counts per layer function."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        failed = defaultdict(int)
        counts = defaultdict(float)
        op_self = 0.0
        for i, (name, start, end, parent, status, counters) in enumerate(self.spans):
            self_time = end - start - child_time[i]
            if name.startswith("op."):
                op_self += self_time
                continue
            busy[name] += self_time
            calls[name] += 1
            failed[name] += status == "failed"
            for key, value in counters.items():
                counts[(name, key)] += value

        out = {}
        for name in LAYER_FUNCS:
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.failed"] = (failed[name], "count")

        def rate(name, key):
            return counts[(name, key)] / busy[name] if busy[name] > 0 else 0.0

        out["model.sample_paths.paths_per_s"] = (rate("model.sample_paths", "paths"), "1/s")
        out["volterra.solve_volterra.infeasible"] = (
            counts[("volterra.solve_volterra", "infeasible")], "count")
        out["volterra.solve_volterra.gflops_computed"] = (
            counts[("volterra.solve_volterra", "flops")] / 1e9, "Gflop")
        out["filtering.leg_filter.path_steps_computed"] = (
            counts[("filtering.leg_filter", "path_steps")], "count")
        out["filtering.leg_filter.path_steps_per_s"] = (
            rate("filtering.leg_filter", "path_steps"), "1/s")
        mc_paths = counts[("sim.estimate_risk", "paths")] + counts[("sim.compare_filters", "paths")]
        mc_busy = busy["sim.estimate_risk"] + busy["sim.compare_filters"]
        out["sim.mc_paths_per_s"] = (mc_paths / mc_busy if mc_busy > 0 else 0.0, "1/s")
        out["op.self_s"] = (op_self, "s")
        return out

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "status": st, "counters": c}
            for n, s, e, p, st, c in self.spans
        ]
