"""The traced run: wrapper spans around each layer's public entry points.

Nothing under ``src/`` is edited.  :class:`Probe` replaces the entry points
listed by :func:`_entry_points` with wrappers that record one span per call
(name, start, end, thread, parent) on a per-thread stack, and restores the
originals afterwards.  A span's *self time* is its duration minus the
durations of the child spans nested in it on the same thread; a layer's
self time is the sum over its spans.  Spans are kept in memory and written
out once, as a Chrome ``trace_event`` file (open it in Perfetto), when the
run ends.

The span name's first component is the layer: ``serving``, ``engine``,
``core``, ``joins``, ``geometry``, ``datasets``, ``exec``, ``continuous``,
``moving``, ``indexes``, plus ``bench`` for the benchmark's own window.
Pool workers are forked before the probe is installed, so work inside them
shows up as the parent-side wait (``serving.pool.*``).
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

#: Accounting tolerance: on the main thread, the self times of every span
#: (the ``bench`` window span included) must sum to the window's wall time
#: within this share.
ACCOUNTING_TOLERANCE = 0.02


def _entry_points() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    A span name containing ``{policy}`` is filled from the instance's
    ``name`` attribute (the continuous maintenance policies)."""
    from repro.continuous.policies import MaintenancePolicy
    from repro.continuous.session import ContinuousSession
    from repro.core.uniform_grid import UniformGrid
    from repro.datasets.neuroscience import NeuronDataset
    from repro.engine.session import BatchExecutor, InlineExecutor, QuerySession, ShardedExecutor
    from repro.exec.external_join import SpillPBSMJoin
    from repro.geometry import refine
    from repro.indexes.rtree import RTree
    from repro.joins.session import JoinSession, ShardedJoinExecutor
    from repro.joins.strategies import JoinStrategy
    from repro.moving.tpr import TPRIndex
    from repro.serving.pool import WorkerPool

    points: list[tuple[Any, str, str]] = [
        (WorkerPool, "run_query_shards", "serving.pool.query_shards"),
        (WorkerPool, "run_join_shards", "serving.pool.join_shards"),
        (WorkerPool, "run_tile_runs", "serving.pool.tile_runs"),
        (QuerySession, "submit", "engine.submit"),
        (QuerySession, "flush", "engine.flush"),
        (InlineExecutor, "run", "engine.run.inline"),
        (BatchExecutor, "run", "engine.run.batch"),
        (ShardedExecutor, "run", "engine.run.sharded"),
        (UniformGrid, "bulk_load", "core.bulk_load"),
        (UniformGrid, "batch_range_query", "core.kernel.range"),
        (UniformGrid, "batch_knn", "core.kernel.knn"),
        (UniformGrid, "range_query", "core.scalar.range"),
        (UniformGrid, "knn", "core.scalar.knn"),
        (UniformGrid, "insert", "core.update"),
        (UniformGrid, "delete", "core.update"),
        (UniformGrid, "update", "core.update"),
        (JoinSession, "flush", "joins.flush"),
        (JoinSession, "choose_strategy", "joins.plan"),
        (ShardedJoinExecutor, "self_pairs", "joins.executor"),
        (ShardedJoinExecutor, "distance_pairs", "joins.executor"),
        (refine, "batch_capsule_gaps", "geometry.refine"),
        (NeuronDataset, "items", "datasets.items"),
        (SpillPBSMJoin, "plan_tile_runs", "exec.plan"),
        (SpillPBSMJoin, "join", "exec.spill_join"),
        (ContinuousSession, "tick", "continuous.tick"),
        (ContinuousSession, "subscribe", "continuous.subscribe"),
        (TPRIndex, "advance", "moving.tpr_advance"),
        (TPRIndex, "range_query", "moving.query"),
        (TPRIndex, "knn", "moving.query"),
        (RTree, "insert", "indexes.insert"),
        (RTree, "delete", "indexes.delete"),
        (RTree, "range_query", "indexes.query"),
    ]
    # Every strategy class that defines its own distance filter.
    strategies = [JoinStrategy]
    while strategies:
        cls = strategies.pop()
        strategies.extend(cls.__subclasses__())
        if "distance_candidates" in cls.__dict__:
            points.append((cls, "distance_candidates", "joins.filter"))
    # Every maintenance policy's apply/evaluate, named by the policy.
    policies = [MaintenancePolicy]
    while policies:
        cls = policies.pop()
        policies.extend(cls.__subclasses__())
        for attr in ("apply", "evaluate"):
            if attr in cls.__dict__:
                points.append((cls, attr, f"continuous.{attr}.{{policy}}"))
    return points


class Probe:
    """Installs the wrappers, records spans, and summarizes them."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, self_ns, thread id, parent name, attrs)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, on_enter: Callable | None = None) -> Callable:
        probe = self
        dynamic = "{policy}" in name

        def wrapper(*args, **kwargs):
            stack = probe._stack()
            label = name.format(policy=getattr(args[0], "name", "?")) if dynamic else name
            attrs = on_enter(*args) if on_enter is not None else None
            parent = stack[-1][1] if stack else None
            frame = [0, label]  # child nanoseconds, name
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                probe.spans.append((label, start, end, duration - frame[0], threading.get_ident(), parent, attrs))

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def window(self, name: str = "bench.window"):
        """The root span of a timed window on the calling thread."""
        stack = self._stack()
        frame = [0, name]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((name, start, end, end - start - frame[0], threading.get_ident(), None, None))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from repro.engine.session import QuerySession

        hooks = {("engine.flush", QuerySession): lambda session: {"pending": session.pending}}
        for owner, attr, name in _entry_points():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            on_enter = hooks.get((name, owner))
            if isinstance(original, property):
                replacement: Any = property(self._wrap(original.fget, name), original.fset, original.fdel, original.__doc__)
            else:
                replacement = self._wrap(original, name, on_enter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
            if not isinstance(owner, type):
                # `from module import fn` copies: patch every alias too.
                for module in list(sys.modules.values()):
                    if module is not owner and getattr(module, attr, None) is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries -------------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Total self time (s) of spans whose name starts with ``prefix``."""
        return sum(s[3] for s in self.spans if s[0].startswith(prefix)) / 1e9

    def durations_s(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Self time and call count per layer, per thread role."""
        window_threads = {s[4] for s in self.spans if s[0] == "bench.window"}
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for name, start, end, self_ns, tid, parent, _ in self.spans:
            role = "main" if tid in window_threads else "helper"
            row = table[f"{role}:{name.split('.')[0]}"]
            row["self_s"] += self_ns / 1e9
            row["calls"] += 1
        return dict(sorted(table.items()))

    def accounting(self) -> dict[str, float]:
        """Do the main thread's self times add up to the window's wall?"""
        windows = [s for s in self.spans if s[0] == "bench.window"]
        wall = sum(s[2] - s[1] for s in windows) / 1e9
        tids = {s[4] for s in windows}
        lo = min((s[1] for s in windows), default=0)
        hi = max((s[2] for s in windows), default=0)
        covered = sum(s[3] for s in self.spans if s[4] in tids and lo <= s[1] and s[2] <= hi) / 1e9
        coverage = covered / wall if wall else 0.0
        unattributed = sum(s[3] for s in windows) / 1e9 / wall if wall else 0.0
        return {
            "wall_s": wall,
            "coverage": coverage,
            "unattributed_frac": unattributed,
            "tolerance": ACCOUNTING_TOLERANCE,
            "ok": abs(coverage - 1.0) <= ACCOUNTING_TOLERANCE,
        }

    def export_chrome(self, path: str) -> int:
        """Write the spans as Chrome ``trace_event`` JSON; returns the count."""
        import os

        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"self_us": self_ns / 1e3, **(attrs or {})},
            }
            for name, start, end, self_ns, tid, parent, attrs in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


#: Per-layer metrics every traced run reports, with units.  A layer the
#: workload does not exercise reports 0 (no work done there).
PER_LAYER = {
    "serving.queue_wait_ms.p50": "ms",
    "serving.hop_ms.p50": "ms",
    "serving.requests_per_flush": "count",
    "engine.flush_ms.p50": "ms",
    "engine.overhead_frac": "fraction",
    "engine.groups_per_flush": "count",
    "engine.route.inline": "count",
    "engine.route.batch": "count",
    "engine.route.sharded": "count",
    "core.kernel_ms.p50": "ms",
    "core.cells_probed_per_query": "count",
    "core.elem_tests_per_query": "count",
    "core.hit_ratio": "fraction",
    "joins.strategy.grid": "count",
    "joins.strategy.pbsm": "count",
    "joins.strategy.pbsm_spill": "count",
    "joins.filter_s": "s",
    "core.bulk_load_s": "s",
    "engine.probe_s": "s",
    "joins.self_s": "s",
    "geometry.refine_s": "s",
    "datasets.items_s": "s",
    "joins.candidates": "count",
    "joins.comparisons": "count",
    "joins.refine_tests": "count",
    "joins.precision": "fraction",
    "exec.plan_s": "s",
    "serving.pool.tile_runs_s": "s",
    "exec.spill_bytes_written": "B",
    "exec.spill_bytes_read": "B",
    "exec.tiles_spilled": "count",
    "exec.tile_runs_dispatched": "count",
    "exec.budget_high_water": "B",
    "storage.zero_copy_reads": "count",
    "storage.mapped_bytes": "B",
    "continuous.apply_s.predictive": "s",
    "continuous.apply_s.incremental": "s",
    "continuous.apply_s.recompute": "s",
    "moving.tpr_advance_s": "s",
    "indexes.inserts": "count",
    "indexes.deletes": "count",
    "continuous.evaluate_s.predictive": "s",
    "continuous.evaluate_s.incremental": "s",
    "continuous.evaluate_s.recompute": "s",
    "continuous.route.predictive": "count",
    "continuous.route.incremental": "count",
    "continuous.route.recompute": "count",
    "continuous.safe_region_hit_ratio": "fraction",
    "setup.index_build_s": "s",
    "setup.pool_start_s": "s",
    "setup.subscribe_s": "s",
    "trace.overhead_frac": "fraction",
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(probe: Probe, units: int) -> dict[str, float]:
    """The per-layer metrics read from spans alone.  Seconds and call counts
    are per unit of work (a join iteration, a tick); ``units`` says how many
    the traced window ran."""
    per = lambda value: ratio(value, units)  # noqa: E731
    flush = probe.durations_s("engine.flush")
    groups = sum(1 for span in probe.spans if span[0].startswith("engine.run.") and span[5] == "engine.flush")
    return {
        "engine.flush_ms.p50": p50(flush) * 1e3,
        "engine.overhead_frac": ratio(probe.self_s("engine.flush"), sum(flush)),
        "engine.groups_per_flush": ratio(groups, len(flush)),
        "engine.route.inline": per(probe.count("engine.run.inline")),
        "engine.route.batch": per(probe.count("engine.run.batch")),
        "engine.route.sharded": per(probe.count("serving.pool.query_shards")),
        "core.kernel_ms.p50": p50(probe.durations_s("core.kernel.range") + probe.durations_s("core.kernel.knn")) * 1e3,
        "joins.filter_s": per(probe.self_s("joins.filter")),
        "core.bulk_load_s": per(probe.self_s("core.bulk_load")),
        "engine.probe_s": per(probe.self_s("engine.")),
        "joins.self_s": per(
            probe.self_s("joins.flush") + probe.self_s("joins.plan") + probe.self_s("joins.executor")
        ),
        "geometry.refine_s": per(probe.self_s("geometry.refine")),
        "datasets.items_s": per(probe.self_s("datasets.items")),
        "exec.plan_s": per(probe.self_s("exec.plan")),
        "serving.pool.tile_runs_s": per(probe.self_s("serving.pool.tile_runs")),
        "continuous.apply_s.predictive": per(probe.self_s("continuous.apply.predictive")),
        "continuous.apply_s.incremental": per(probe.self_s("continuous.apply.incremental")),
        "continuous.apply_s.recompute": per(probe.self_s("continuous.apply.recompute")),
        "moving.tpr_advance_s": per(probe.self_s("moving.tpr_advance")),
        "indexes.inserts": per(probe.count("indexes.insert")),
        "indexes.deletes": per(probe.count("indexes.delete")),
        "continuous.evaluate_s.predictive": per(probe.self_s("continuous.evaluate.predictive")),
        "continuous.evaluate_s.incremental": per(probe.self_s("continuous.evaluate.incremental")),
        "continuous.evaluate_s.recompute": per(probe.self_s("continuous.evaluate.recompute")),
    }


def layer_metrics(probe: Probe, units: int, measured: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``: span-derived
    values, then the workload's own ``measured`` values (session counters,
    set-up timings, trace overhead) on top; the rest are 0."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(probe, units))
    values.update(measured)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics outside the per-layer list: {sorted(unknown)}")
    return {name: (float(values[name]), PER_LAYER[name]) for name in PER_LAYER}


def traced_run(module, ctx):
    """Run ``module``'s workload in traced mode and return its Outcome with
    the per-layer metrics in place of the end-to-end ones."""
    import os

    from common import OUT_DIR

    probe = Probe()
    outcome = module.run(ctx, probe=probe)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{module.__name__}-seed{ctx.seed}.json")
    table = probe.layer_table()
    accounting = probe.accounting()
    outcome.report["trace"] = {
        "chrome_trace": os.path.relpath(path, os.path.dirname(OUT_DIR)),
        "spans": probe.export_chrome(path),
        "accounting": accounting,
        "layer_self_time": table,
    }
    lines = [f"{'thread:layer':24s} {'self s':>10s} {'share':>7s} {'calls':>8s}"]
    for key, row in table.items():
        share = row["self_s"] / accounting["wall_s"] if accounting["wall_s"] else 0.0
        lines.append(f"{key:24s} {row['self_s']:10.4f} {share:7.1%} {row['calls']:8d}")
    lines.append(f"traced window wall {accounting['wall_s']:.4f} s; main-thread coverage {accounting['coverage']:.4f}")
    with open(os.path.join(OUT_DIR, f"layers-{module.__name__}-seed{ctx.seed}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return outcome
