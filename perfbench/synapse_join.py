"""``synapse_join``: the paper's section 2.2 synapse detection, twice per loop.

A closed loop with one caller.  Each iteration runs ``SynapseJoinSpec``
(epsilon 0.05 um) over the 20k-segment neuron model twice:

* **in memory** — planner-routed through a plain :class:`JoinSession`;
* **budgeted** — through a session whose :class:`MemoryBudget` is 25% of the
  spec's ``estimated_working_set``, so the planner routes it to the
  out-of-core ``pbsm_spill`` strategy, sharded over a 2-worker
  :class:`WorkerPool` (the working-set-larger-than-memory case).

Both phases' ``(segment_a, segment_b)`` lists must equal a reference computed
once at set-up with a pinned different strategy (``pbsm``).
"""

from __future__ import annotations

import os

from common import (
    OUT_DIR,
    SETUP_REPEATS,
    Context,
    Outcome,
    PeakMemory,
    Timer,
    host_record,
    median,
    settle_heap,
    tracing_off,
)

NEURONS, SEGMENTS = 250, 80  # 20k capsule segments
EPSILON = 0.05
BUDGET_SHARE = 0.25
WORKERS = 2
REFERENCE_STRATEGY = "pbsm"
WARM_SEGMENTS = 2_000  # a small budgeted join that starts the pool workers

#: JoinStats fields that must repeat exactly, iteration to iteration and run
#: to run, for a fixed seed.
EXACT_FIELDS = (
    "joins",
    "pairs",
    "candidates",
    "refined",
    "comparisons",
    "tiles_spilled",
    "spill_bytes_written",
    "spill_bytes_read",
    "tile_runs_dispatched",
    "zero_copy_reads",
    "mapped_bytes",
)


def make_inputs(seed: int):
    from repro.datasets.neuroscience import generate_neurons

    return generate_neurons(NEURONS, SEGMENTS, seed=seed)


def pair_list(synapses) -> list[tuple[int, int]]:
    return [(s.segment_a, s.segment_b) for s in synapses]


def stats_snapshot(stats) -> dict:
    snap = {name: getattr(stats, name) for name in EXACT_FIELDS}
    snap["strategy_runs"] = dict(stats.strategy_runs)
    snap["budget_high_water"] = stats.budget_high_water
    return snap


def stats_delta(after: dict, before: dict) -> dict:
    delta = {name: after[name] - before[name] for name in EXACT_FIELDS}
    delta["strategy_runs"] = {
        name: count - before["strategy_runs"].get(name, 0)
        for name, count in after["strategy_runs"].items()
        if count - before["strategy_runs"].get(name, 0)
    }
    return delta


class Stack:
    """The two join sessions and the pool, built once per set-up."""

    def __init__(self, dataset, spill_dir: str) -> None:
        from repro.joins import JoinSession, ShardedJoinExecutor, SynapseJoinSpec
        from repro.datasets.neuroscience import NeuronDataset
        from repro.serving import WorkerPool

        self.spec = SynapseJoinSpec(dataset, epsilon=EPSILON)
        self.memory = JoinSession()
        self.working_set = self.memory.estimated_working_set(self.spec)
        self.budget = int(self.working_set * BUDGET_SHARE)
        timer = Timer()
        self.pool = WorkerPool(workers=WORKERS)
        self.spill = JoinSession(
            budget=self.budget,
            spill_dir=spill_dir,
            executor=ShardedJoinExecutor(workers=WORKERS, pool=self.pool),
        )
        # Warm-up: a small budgeted join starts the workers (and their
        # imports) the way the first real spill join would.
        head = sorted(dataset.capsules)[:WARM_SEGMENTS]
        small = NeuronDataset(
            universe=dataset.universe,
            capsules={eid: dataset.capsules[eid] for eid in head},
            neuron_of={eid: dataset.neuron_of[eid] for eid in head},
        )
        small_spec = SynapseJoinSpec(small, epsilon=EPSILON)
        with JoinSession(
            budget=int(self.spill.estimated_working_set(small_spec) * BUDGET_SHARE),
            spill_dir=spill_dir,
            executor=ShardedJoinExecutor(workers=WORKERS, pool=self.pool),
        ) as warm:
            warm.run(small_spec)
        self.pool_start_s = timer.elapsed()

    def close(self) -> None:
        self.spill.close()
        self.memory.close()
        self.pool.close()


class Loop:
    """The closed loop: iterations of (in-memory join, budgeted join)."""

    def __init__(self, stack: Stack, reference: list[tuple[int, int]]) -> None:
        self.stack = stack
        self.reference = reference
        self.join_s: list[float] = []
        self.spill_join_s: list[float] = []
        self.deltas: dict[str, list[dict]] = {"memory": [], "spill": []}
        self.attempted = 0
        self.wrong = 0
        self.traced: list[bool] = []

    def once(self) -> None:
        """One iteration: the in-memory join, then the budgeted one."""
        for phase, session, samples in (
            ("memory", self.stack.memory, self.join_s),
            ("spill", self.stack.spill, self.spill_join_s),
        ):
            before = stats_snapshot(session.stats)
            timer = Timer()
            synapses = session.run(self.stack.spec)
            samples.append(timer.elapsed())
            self.attempted += 1
            if pair_list(synapses) != self.reference:
                self.wrong += 1
            self.deltas[phase].append(stats_delta(stats_snapshot(session.stats), before))

    def iterate(self, seconds: float, probe=None) -> None:
        """Whole iterations, ending at the iteration boundary nearest
        ``seconds``.  With a ``probe``, iterations alternate
        untraced (the overhead baseline) and traced, so both see the same
        host drift; ``self.traced`` flags which were traced."""
        window = Timer()
        least = 1 if probe is None else 2  # a traced run needs one of each
        count = 0
        while count < least or window.elapsed() * (1 + 0.5 / count) < seconds:
            traced = probe is not None and count % 2 == 1
            if traced:
                probe.install()
                try:
                    with probe.window():
                        self.once()
                finally:
                    probe.uninstall()
            else:
                self.once()
            self.traced.append(traced)
            count += 1

    def iteration_s(self, traced: bool) -> list[float]:
        return [
            a + b for a, b, flag in zip(self.join_s, self.spill_join_s, self.traced) if flag == traced
        ]


def run(ctx: Context, probe=None) -> Outcome:
    from repro.joins import JoinSession, SynapseJoinSpec

    host = host_record()
    memory = PeakMemory()
    dataset = make_inputs(ctx.seed)
    spill_dir = os.path.join(OUT_DIR, "spill")
    os.makedirs(spill_dir, exist_ok=True)

    reference_timer = Timer()
    reference = pair_list(
        JoinSession(strategy=REFERENCE_STRATEGY).run(SynapseJoinSpec(dataset, epsilon=EPSILON))
    )
    reference_s = reference_timer.elapsed()

    setup_samples: list[float] = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        timer = Timer()
        stack = Stack(dataset, spill_dir)
        setup_samples.append(timer.elapsed())
    setup_s = median(setup_samples)
    settle_heap()

    loop = Loop(stack, reference)
    window = Timer()
    loop.iterate(ctx.seconds, probe)
    window_s = window.elapsed()
    memory.sample_children()
    peak_mb = memory.peak_mb()
    budget_high_water = stack.spill.stats.budget_high_water
    pool_start_s = stack.pool_start_s
    stack.close()

    deltas = loop.deltas
    repeats = {phase: all(d == runs[0] for d in runs) for phase, runs in deltas.items()}
    host["loadavg_after"] = list(os.getloadavg())
    join_s, spill_join_s = loop.join_s, loop.spill_join_s
    report = {
        "workload": "synapse_join",
        "seed": ctx.seed,
        "host": host,
        "tracing_off": tracing_off(),
        "window_s": window_s,
        "setup": {"setup_s": setup_s, "samples": setup_samples, "pool_start_s": pool_start_s, "reference_s": reference_s},
        "workload_metrics": {
            "join_s": median(join_s),
            "spill_join_s": median(spill_join_s),
            "error_rate": loop.wrong / loop.attempted,
        },
        "samples": {"join_s": join_s, "spill_join_s": spill_join_s},
        "synapses": len(reference),
        "budget": {"working_set": stack.working_set, "limit": stack.budget, "high_water": budget_high_water},
        "counters": {
            "exact": {phase: runs[0] for phase, runs in deltas.items()},
            "exact_repeats_across_iterations": repeats,
            "timing_dependent": {},
        },
    }
    if probe is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "primary_p50_ms": (median(join_s) * 1e3, "ms"),
            "secondary_p50_ms": (median(spill_join_s) * 1e3, "ms"),
        }
    else:
        from tracing import layer_metrics

        memory_delta, spill_delta = deltas["memory"][0], deltas["spill"][0]
        both = lambda field: memory_delta[field] + spill_delta[field]  # noqa: E731
        strategies: dict[str, int] = {}
        for delta in (memory_delta, spill_delta):
            for name, count in delta["strategy_runs"].items():
                strategies[name] = strategies.get(name, 0) + count
        measured = {
            **{f"joins.strategy.{name}": float(strategies.get(name, 0)) for name in ("grid", "pbsm", "pbsm_spill")},
            "joins.candidates": both("candidates"),
            "joins.comparisons": both("comparisons"),
            "joins.refine_tests": both("refined"),
            "joins.precision": both("pairs") / both("candidates"),
            "exec.spill_bytes_written": both("spill_bytes_written"),
            "exec.spill_bytes_read": both("spill_bytes_read"),
            "exec.tiles_spilled": both("tiles_spilled"),
            "exec.tile_runs_dispatched": both("tile_runs_dispatched"),
            "exec.budget_high_water": budget_high_water,
            "storage.zero_copy_reads": both("zero_copy_reads"),
            "storage.mapped_bytes": both("mapped_bytes"),
            "setup.pool_start_s": pool_start_s,
            "trace.overhead_frac": median(loop.iteration_s(True)) / median(loop.iteration_s(False)) - 1.0,
        }
        metrics = layer_metrics(probe, sum(loop.traced), measured)
    correct = loop.wrong == 0 and all(repeats.values())
    return Outcome(metrics=metrics, attempted=loop.attempted, failed=loop.wrong, correct=correct, report=report)
