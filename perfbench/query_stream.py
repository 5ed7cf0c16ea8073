"""``query_stream``: single requests against a ServingSession.

Independent users send one request each to a
:class:`~repro.serving.ServingSession` over a UniformGrid of the 20k-segment
neuron model.  The mix is 50% range probes at the paper's 5e-6 volume
selectivity, 30% kNN (k=8) and 20% point probes.

Two serving paths matter: a lone request (one request per flush, the
per-request overhead path) and concurrent requests (several per flush, the
batching path).  They are driven two ways:

* **open loop** (the users' view): seeded Poisson arrivals at ``LOW_RATE``
  and ``HIGH_RATE``, latency timed from each request's *due* time so a stall
  charges every request behind it, the generator's lateness recorded, and a
  short rate ladder for the highest rate meeting ``LATENCY_LIMIT_S``;
* **closed loop**: 1, ``LIGHT_CALLERS`` and ``BATCHED_CALLERS`` concurrent
  callers, each sending its next request when its last one is answered.

Whenever the serving threads go idle between requests, latency depends on
how fast the VM wakes an idle vCPU, and on a shared VM that varies from run
to run by up to several times.  This hits the open loop and the lone caller
hardest.  The ``LIGHT_CALLERS`` and ``BATCHED_CALLERS`` loops keep the
threads busy, so they carry the gated metrics; the rest is reported.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    PeakMemory,
    Timer,
    host_record,
    median,
    percentile,
    settle_heap,
    tracing_off,
)

NEURONS, SEGMENTS = 250, 80  # 20k capsule segments
SELECTIVITY = 5e-6  # range-probe volume / universe volume (the paper's)
MIX = (("range", 0.5), ("knn", 0.3), ("point", 0.2))
K = 8

LOW_RATE = 500.0  # req/s: one request per flush
HIGH_RATE = 1200.0  # req/s: about five requests per flush, below the turning point
LADDER = (2000.0, 4000.0, 6000.0)
LIGHT_CALLERS = 4  # a few requests per flush
BATCHED_CALLERS = 16  # up to 16 requests per flush
LATENCY_LIMIT_S = 0.050  # p99 limit the ladder holds rates to
REQUEST_TIMEOUT_S = 1.0  # a fixed-rate request slower than this counts as failed
LATE_BOUND_S = 0.025  # generator lateness beyond this marks a phase invalid
WARMUP_S = 0.5

# Share of the timed budget per phase.
SHARES = {"low": 0.1, "high": 0.1, "ladder": 0.1, "single": 0.15, "light": 0.25, "batched": 0.3}
CHECK_SAMPLE = 4000  # requests checked against LinearScan per run


@dataclass
class Phase:
    """One offered-rate window: the schedule and what came back."""

    rate: float
    due: np.ndarray  # offsets (s) from phase start
    kinds: np.ndarray  # 0 range, 1 knn, 2 point
    payload: np.ndarray  # (n, 2, 3) boxes for range, points in row 0 otherwise
    latency: np.ndarray | None = None
    late: np.ndarray | None = None
    answers: list | None = None
    errors: int = 0
    backlog_at_end: int = 0
    sent: int = 0


def make_inputs(seed: int):
    from repro.datasets.neuroscience import generate_neurons

    return generate_neurons(NEURONS, SEGMENTS, seed=seed)


def make_phase(rng: np.random.Generator, rate: float, seconds: float, centers: np.ndarray, side: float) -> Phase:
    """A Poisson schedule of ``rate`` for ``seconds`` with the request mix.

    Probe locations are segment centers jittered by one probe side, so
    probes land in tissue (the data is clustered) without repeating."""
    count = max(int(rate * seconds), 1)
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    due = due[due < seconds] if due[-1] > seconds and count > 1 else due
    n = due.shape[0]
    kinds = rng.choice(len(MIX), size=n, p=[share for _, share in MIX])
    at = centers[rng.integers(0, centers.shape[0], size=n)] + rng.uniform(-side, side, size=(n, 3))
    payload = np.empty((n, 2, 3))
    payload[:, 0, :] = at - side / 2.0
    payload[:, 1, :] = at + side / 2.0
    points = kinds != 0
    payload[points, 0, :] = at[points]
    payload[points, 1, :] = at[points]
    return Phase(rate=rate, due=due, kinds=kinds, payload=payload)


async def drive(serving, phase: Phase, timeout: float | None) -> None:
    """Send ``phase``'s requests on schedule; record latency from due time."""
    from repro.geometry.aabb import AABB

    loop = asyncio.get_running_loop()
    n = phase.due.shape[0]
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    answers: list = [None] * n
    errors = [0]
    tasks: set[asyncio.Task] = set()
    boxes = [
        AABB(tuple(phase.payload[i, 0]), tuple(phase.payload[i, 1])) if phase.kinds[i] == 0 else None
        for i in range(n)
    ]
    points = [tuple(phase.payload[i, 0].tolist()) for i in range(n)]

    async def one(i: int, due: float) -> None:
        kind = phase.kinds[i]
        try:
            if kind == 0:
                answers[i] = await serving.range_query(boxes[i])
            elif kind == 1:
                answers[i] = await serving.knn(points[i], K)
            else:
                answers[i] = await serving.point_query(points[i])
        except Exception:
            errors[0] += 1
        latency[i] = time.perf_counter() - due

    start = time.perf_counter() + 0.002
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and start + phase.due[i] <= now:
            due = start + phase.due[i]
            late[i] = now - due
            task = loop.create_task(one(i, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, start + phase.due[i] - time.perf_counter()))
    phase.backlog_at_end = len(tasks)
    if tasks:
        await asyncio.wait(list(tasks), timeout=timeout)
        for task in list(tasks):
            task.cancel()
    phase.latency, phase.late, phase.answers, phase.errors = latency, late, answers, errors[0]


async def call(serving, phase: Phase, callers: int, seconds: float) -> None:
    """Closed loop: ``callers`` concurrent callers work through ``phase``'s
    requests in order, each sending its next request when its last one is
    answered, until ``seconds`` have passed.  Latency is timed from send."""
    from repro.geometry.aabb import AABB

    n = phase.due.shape[0]
    latency = np.full(n, np.nan)
    answers: list = [None] * n
    errors = [0]
    cursor = [0]
    stop = time.perf_counter() + seconds

    async def caller() -> None:
        while time.perf_counter() < stop and cursor[0] < n:
            i = cursor[0]
            cursor[0] += 1
            kind, row = phase.kinds[i], phase.payload[i]
            sent = time.perf_counter()
            try:
                if kind == 0:
                    answers[i] = await serving.range_query(AABB(tuple(row[0]), tuple(row[1])))
                elif kind == 1:
                    answers[i] = await serving.knn(tuple(row[0].tolist()), K)
                else:
                    answers[i] = await serving.point_query(tuple(row[0].tolist()))
            except Exception:
                errors[0] += 1
            latency[i] = time.perf_counter() - sent

    await asyncio.gather(*(caller() for _ in range(callers)))
    phase.sent = cursor[0]
    phase.late = np.zeros(1)
    phase.latency, phase.answers, phase.errors = latency[: cursor[0]], answers[: cursor[0]], errors[0]
    phase.due, phase.kinds, phase.payload = phase.due[: cursor[0]], phase.kinds[: cursor[0]], phase.payload[: cursor[0]]


def phase_stats(phase: Phase) -> dict[str, float]:
    done = phase.latency[~np.isnan(phase.latency)]
    return {
        "rate": phase.rate,
        "requests": int(phase.due.shape[0]),
        "p50_ms": percentile(done, 50) * 1e3 if done.size else math.inf,
        "p99_ms": percentile(done, 99) * 1e3 if done.size else math.inf,
        "late_ms_max": float(phase.late.max()) * 1e3,
        "backlog_at_end": phase.backlog_at_end,
        "errors": phase.errors,
        "unanswered": int(np.isnan(phase.latency).sum()),
    }


def ladder_max_qps(rungs: list[dict]) -> float:
    """Highest rate meeting the p99 limit with no growing backlog.

    Between the last passing and the first failing rung the rate is
    interpolated on log(p99), so the figure moves smoothly with the
    program's speed instead of jumping a whole rung."""
    limit_ms = LATENCY_LIMIT_S * 1e3

    def passes(r: dict) -> bool:
        return r["p99_ms"] <= limit_ms and r["backlog_at_end"] <= r["rate"] * LATENCY_LIMIT_S

    best = None
    for lower, upper in zip(rungs, rungs[1:]):
        if not passes(lower):
            break
        best = lower["rate"]
        if not passes(upper):
            lo_p, hi_p = math.log(max(lower["p99_ms"], 1e-3)), math.log(max(upper["p99_ms"], 1e-3))
            frac = (math.log(limit_ms) - lo_p) / (hi_p - lo_p) if hi_p > lo_p else 0.0
            return lower["rate"] + min(max(frac, 0.0), 1.0) * (upper["rate"] - lower["rate"])
    if best is None:
        # Even the first rung fails: scale it by how far the p99 overshoots.
        first = rungs[0]
        return first["rate"] * min(1.0, limit_ms / max(first["p99_ms"], 1e-3))
    return rungs[-1]["rate"] if passes(rungs[-1]) else best


def check_answers(dataset_items, phases: list[Phase], rng: np.random.Generator) -> tuple[int, int]:
    """Compare a seeded sample of answers with the LinearScan oracle.

    Returns ``(checked, wrong)``."""
    from repro.indexes.linear_scan import LinearScan

    oracle = LinearScan()
    oracle.bulk_load(dataset_items)
    refs = [(p, i) for p in phases for i in range(p.due.shape[0]) if p.answers[i] is not None]
    if len(refs) > CHECK_SAMPLE:
        pick = rng.choice(len(refs), size=CHECK_SAMPLE, replace=False)
        refs = [refs[j] for j in sorted(pick)]
    wrong = 0
    boxes = [p.payload[i] for p, i in refs if p.kinds[i] != 1]
    box_refs = [(p, i) for p, i in refs if p.kinds[i] != 1]
    if boxes:
        expected = oracle.batch_range_query(np.stack(boxes))
        for (p, i), exp in zip(box_refs, expected):
            if sorted(p.answers[i]) != sorted(exp):
                wrong += 1
    knn_refs = [(p, i) for p, i in refs if p.kinds[i] == 1]
    if knn_refs:
        expected = oracle.batch_knn(np.stack([p.payload[i, 0] for p, i in knn_refs]), K)
        for (p, i), exp in zip(knn_refs, expected):
            if [eid for _, eid in p.answers[i]] != [eid for _, eid in exp]:
                wrong += 1
    return len(refs), wrong


def answers_digest(phases: list[Phase]) -> str:
    """SHA-256 over every answer in schedule order (range/point ids sorted,
    kNN ids in rank order): equal for equal seeds and windows."""
    digest = hashlib.sha256()
    for phase in phases:
        for kind, answer in zip(phase.kinds, phase.answers):
            if answer is None:
                ids = [-1]
            elif kind == 1:
                ids = [eid for _, eid in answer]
            else:
                ids = sorted(answer)
            digest.update(np.asarray(ids, dtype=np.int64).tobytes())
    return digest.hexdigest()


class Stack:
    """The serving stack under test, built once per set-up."""

    def __init__(self, dataset) -> None:
        from repro.core.uniform_grid import UniformGrid
        from repro.serving import ServingSession, WorkerPool

        timer = Timer()
        self.grid = UniformGrid(universe=dataset.universe)
        self.grid.bulk_load(dataset.items)
        self.grid.batch_range_query(np.zeros((1, 2, 3)))  # builds the kernel snapshot
        self.index_build_s = timer.elapsed()
        timer = Timer()
        # The pool starts workers lazily; single requests never batch wide
        # enough to shard, so it stays empty unless a backlog builds.
        self.pool = WorkerPool(workers=2)
        self.serving = ServingSession(self.grid, pool=self.pool)
        self.pool_start_s = timer.elapsed()

    async def aclose(self) -> None:
        await self.serving.aclose()
        self.pool.close()


def serving_metrics(probe, latencies: list[float]) -> dict[str, float]:
    """Queue wait, thread hop and batch width, from the traced window.

    A request waits from its ``QuerySession.submit`` to the start of the
    first flush after it (a flush drains the whole buffer).  The hop is
    what the event loop saw a flush take (``AsyncExecutor``'s per-flush
    latency, in flush order) minus the ``QuerySession.flush`` span itself."""
    from tracing import p50

    flushes = sorted((s for s in probe.spans if s[0] == "engine.flush"), key=lambda s: s[1])
    starts = np.array([s[1] for s in flushes], dtype=np.int64)
    submits = np.array([s[1] for s in probe.spans if s[0] == "engine.submit"], dtype=np.int64)
    at = np.searchsorted(starts, submits)
    waited = at < starts.shape[0]
    waits = (starts[at[waited]] - submits[waited]) / 1e6
    n = min(len(latencies), len(flushes))
    hops = [latencies[i] * 1e3 - (flushes[i][2] - flushes[i][1]) / 1e6 for i in range(n)]
    return {
        "serving.queue_wait_ms.p50": p50(waits),
        "serving.hop_ms.p50": p50(hops),
        "serving.requests_per_flush": float(np.mean([s[6]["pending"] for s in flushes])) if flushes else 0.0,
    }


def run(ctx: Context, probe=None) -> Outcome:
    host = host_record()
    memory = PeakMemory()
    rng = np.random.default_rng(ctx.seed)
    dataset = make_inputs(ctx.seed)
    items = dataset.items
    universe = dataset.universe
    volume = float(np.prod(np.asarray(universe.hi) - np.asarray(universe.lo)))
    side = (SELECTIVITY * volume) ** (1.0 / 3.0)
    centers = np.array([box.center() for _, box in items])

    warm = make_phase(rng, LOW_RATE, WARMUP_S, centers, side)
    seconds = {name: share * ctx.seconds for name, share in SHARES.items()}
    # Closed-loop request lists, long enough that no caller runs dry.
    pool_rate = 10_000.0
    if probe is None:
        low = make_phase(rng, LOW_RATE, seconds["low"], centers, side)
        high = make_phase(rng, HIGH_RATE, seconds["high"], centers, side)
        rungs = [make_phase(rng, rate, seconds["ladder"] / len(LADDER), centers, side) for rate in LADDER]
        closed = {
            "single": make_phase(rng, pool_rate, seconds["single"], centers, side),
            "light": make_phase(rng, pool_rate, seconds["light"], centers, side),
            "batched": make_phase(rng, pool_rate, seconds["batched"], centers, side),
        }
        open_phases = [low, high] + rungs
    else:
        # Traced mode: the batched closed loop twice, untraced (the overhead
        # baseline) and then traced.
        closed = {
            "untraced": make_phase(rng, pool_rate, ctx.seconds / 2, centers, side),
            "traced": make_phase(rng, pool_rate, ctx.seconds / 2, centers, side),
        }
        low = high = None
        rungs, open_phases = [], []
    out: dict = {}

    async def main() -> None:
        # One event loop for the whole run: a ServingSession's flushers are
        # bound to the loop that first used them.
        setup_samples: list[float] = []
        stack = None
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                await stack.aclose()
            timer = Timer()
            stack = Stack(dataset)
            await drive(stack.serving, warm, REQUEST_TIMEOUT_S)
            setup_samples.append(timer.elapsed())
        settle_heap()
        timer = Timer()
        if probe is None:
            await drive(stack.serving, low, REQUEST_TIMEOUT_S)
            await drive(stack.serving, high, REQUEST_TIMEOUT_S)
            for rung in rungs:
                await drive(stack.serving, rung, REQUEST_TIMEOUT_S)
                await asyncio.sleep(0.05)  # let a failed rung drain
            await call(stack.serving, closed["single"], 1, seconds["single"])
            await call(stack.serving, closed["light"], LIGHT_CALLERS, seconds["light"])
            await call(stack.serving, closed["batched"], BATCHED_CALLERS, seconds["batched"])
        else:
            await call(stack.serving, closed["untraced"], BATCHED_CALLERS, ctx.seconds / 2)
            flushed = len(stack.serving.query_executor.flush_latencies)
            counters = stack.grid.counters.snapshot()
            queries = stack.serving.queries.stats.batch.queries
            probe.install()
            try:
                with probe.window():
                    await call(stack.serving, closed["traced"], BATCHED_CALLERS, ctx.seconds / 2)
            finally:
                probe.uninstall()
            out["flush_latencies"] = stack.serving.query_executor.flush_latencies[flushed:]
            out["kernel"] = stack.grid.counters.diff(counters)
            out["queries"] = stack.serving.queries.stats.batch.queries - queries
        out["window_s"] = timer.elapsed()
        memory.sample_children()
        out["peak_mb"] = memory.peak_mb()  # before the oracle check allocates
        out["stats"] = stack.serving.queries.stats
        out["shards_run"] = stack.pool.shards_run
        out["stack"] = stack
        out["setup_samples"] = setup_samples
        await stack.aclose()

    asyncio.run(main())
    stack, stats = out["stack"], out["stats"]
    setup_samples = out["setup_samples"]
    setup_s = median(setup_samples)

    phases = open_phases + list(closed.values())
    checked, wrong = check_answers(items, phases, rng)
    timed_out = sum(
        int(np.sum(np.isnan(p.latency) | (p.latency > REQUEST_TIMEOUT_S))) for p in open_phases[:2]
    )
    errors = sum(p.errors for p in phases)
    attempted = sum(int(p.due.shape[0]) for p in phases)
    failed = timed_out + errors + wrong
    closed_stats = {name: phase_stats(phase) for name, phase in closed.items()}
    host["loadavg_after"] = list(os.getloadavg())

    report = {
        "workload": "query_stream",
        "seed": ctx.seed,
        "host": host,
        "tracing_off": tracing_off(),
        "window_s": out["window_s"],
        "setup": {
            "setup_s": setup_s,
            "samples": setup_samples,
            "index_build_s": stack.index_build_s,
            "pool_start_s": stack.pool_start_s,
        },
        "checked_against_oracle": checked,
        "phases": dict(closed_stats),
        "counters": {
            "exact": {
                "open_loop_attempted": sum(int(p.due.shape[0]) for p in open_phases),
                "open_loop_answers_sha256": answers_digest(open_phases),
            },
            "timing_dependent": {
                "closed_loop_sent": {name: phase.sent for name, phase in closed.items()},
                "flushes": stats.flushes,
                "queue_high_water": stats.queue_high_water,
                "flush_triggers": dict(stats.flush_triggers),
                "executor_runs": dict(stats.executor_runs),
                "pool_shards_run": out["shards_run"],
                "deduplicated": stats.batch.deduplicated,
                "grid_cells_probed": stack.grid.counters.cells_probed,
                "grid_elem_tests": stack.grid.counters.elem_tests,
            },
        },
    }
    if probe is None:
        low_stats, high_stats = phase_stats(low), phase_stats(high)
        rung_stats = [phase_stats(r) for r in rungs]
        report["phases"].update({"low": low_stats, "high": high_stats, "ladder": rung_stats})
        report["validity"] = {
            "loadgen.late_ms.max.low": low_stats["late_ms_max"],
            "loadgen.late_ms.max.high": high_stats["late_ms_max"],
            "valid": {
                name: phase["late_ms_max"] <= LATE_BOUND_S * 1e3
                for name, phase in (("low", low_stats), ("high", high_stats))
            },
        }
        report["workload_metrics"] = {
            "low.p50_ms": low_stats["p50_ms"],
            "low.p99_ms": low_stats["p99_ms"],
            "high.p50_ms": high_stats["p50_ms"],
            "high.p99_ms": high_stats["p99_ms"],
            "max_qps": ladder_max_qps(rung_stats),
            "error_rate": failed / attempted,
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (out["peak_mb"], "MB"),
            "primary_p50_ms": (closed_stats["batched"]["p50_ms"], "ms"),
            "secondary_p50_ms": (closed_stats["light"]["p50_ms"], "ms"),
        }
    else:
        from tracing import layer_metrics

        kernel, queries = out["kernel"], out["queries"]
        results = sum(len(answer) for answer in closed["traced"].answers if answer is not None)
        measured = {
            **serving_metrics(probe, out["flush_latencies"]),
            "core.cells_probed_per_query": kernel.cells_probed / queries,
            "core.elem_tests_per_query": kernel.elem_tests / queries,
            "core.hit_ratio": results / kernel.elem_tests if kernel.elem_tests else 0.0,
            "setup.index_build_s": stack.index_build_s,
            "setup.pool_start_s": stack.pool_start_s,
            "trace.overhead_frac": closed_stats["traced"]["p50_ms"] / closed_stats["untraced"]["p50_ms"] - 1.0,
        }
        # Seconds and route counts are per flush.
        metrics = layer_metrics(probe, max(probe.count("engine.flush"), 1), measured)
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, correct=wrong == 0 and errors == 0, report=report)
