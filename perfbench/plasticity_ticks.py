"""``plasticity_ticks``: standing queries over a model that moves every step.

A closed loop of :meth:`ContinuousSession.tick` over a 5k-segment neuron
model (the paper's section 4.1 plasticity workload).  Each tick
:class:`PlasticityMotion` (0.04 um mean displacement) moves a 10% active
subset, and the session maintains 8 standing range queries, 8 standing kNN
queries (k=8) and one epsilon=0.05 contact join.  Writes (index
maintenance) run beside reads on the same model.

Timing starts only after ``WARMUP_TICKS``: the TPR backing index re-anchors
every element once its 10-tick horizon has passed, and the ticks right after
it are a transient several times the steady cost.  After that, re-anchors
come in waves with the horizon's period, so the window is a whole number of
pairs of ``HORIZON``-tick cycles, and the two gated medians take alternate
cycles: equal shares of every wave and of any drift in host speed.  The
tick cost also falls slowly from cycle to cycle, so the number of pairs is
fixed by ``--seconds`` (one per ``PAIR_NOMINAL_S``), not by how fast the
ticks happen to run: every run of a given length does the same work.  The
traced run alternates untraced and traced cycles for the same reason.

The shared VM's vCPU speed drifts by tens of percent within a minute, so
each tick is bracketed by host-speed probes and the gated medians are of
host-scaled ticks (:func:`common.host_scaled`); the raw ticks stay in the
report.
"""

from __future__ import annotations

import os

import numpy as np

from common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    PeakMemory,
    Timer,
    host_probe_s,
    host_record,
    host_scaled,
    median,
    settle_heap,
    tracing_off,
)

NEURONS, SEGMENTS = 64, 80  # 5k capsule segments: about 0.5 s per steady tick
ACTIVE_FRACTION = 0.10
RANGE_SUBS, KNN_SUBS, K = 8, 8, 8
RANGE_SIDE = 1.0  # um: a standing region of interest around a segment
EPSILON = 0.05
WARMUP_TICKS = 16  # the 10-tick TPR horizon plus its re-anchor transient
HORIZON = 10  # the TPR backing index's default horizon, in ticks
CHECKPOINT_EVERY = HORIZON  # timed ticks between oracle checkpoints
PAIR_NOMINAL_S = 10.0  # budget seconds per timed pair of cycles (~0.45 s ticks)


def make_inputs(seed: int):
    from repro.datasets.neuroscience import generate_neurons

    return generate_neurons(NEURONS, SEGMENTS, seed=seed)


def make_specs(items: dict, rng: np.random.Generator) -> list:
    from repro.continuous.spec import ContinuousJoinSpec, ContinuousKNNQuery, ContinuousRangeQuery
    from repro.geometry.aabb import AABB

    eids = np.array(sorted(items))
    specs: list = []
    for eid in rng.choice(eids, RANGE_SUBS, replace=False):
        c = np.asarray(items[int(eid)].center())
        specs.append(ContinuousRangeQuery(AABB(tuple(c - RANGE_SIDE / 2), tuple(c + RANGE_SIDE / 2))))
    for eid in rng.choice(eids, KNN_SUBS, replace=False):
        specs.append(ContinuousKNNQuery(tuple(items[int(eid)].center()), K))
    specs.append(ContinuousJoinSpec(epsilon=EPSILON))
    return specs


class Tracker:
    """Accumulates each subscription's deltas onto its initial result, the
    way a client consuming only deltas would."""

    def __init__(self, subs) -> None:
        self.subs = subs
        self.state = {sub.cqid: _ids(sub.kind, sub.initial) for sub in subs}

    def apply(self, deltas) -> None:
        for cqid, delta in deltas.items():
            state = self.state[cqid]
            state -= delta.removed
            state |= delta.added

    def mismatches(self, session) -> int:
        wrong = 0
        for sub in self.subs:
            oracle = session.oracle_result(sub)
            if self.state[sub.cqid] != _ids(sub.kind, oracle):
                wrong += 1
            elif sub.kind == "knn" and [e for _, e in sub.result] != [e for _, e in oracle]:
                wrong += 1  # kNN order follows the (distance, id) contract
        return wrong


def _ids(kind: str, result) -> set:
    """Result as an id set: kNN results are ``(distance, id)`` lists, their
    deltas carry ids."""
    return {eid for _, eid in result} if kind == "knn" else set(result)


def snapshot(session) -> dict:
    counters = session.counters
    return {
        "routes": dict(session.stats.policy_routes),
        "safe_region_hits": counters.safe_region_hits,
        "safe_region_invalidations": counters.safe_region_invalidations,
        "inserts": counters.inserts,
        "deletes": counters.deletes,
        "updates": counters.updates,
        "results_added": session.stats.results_added,
        "results_removed": session.stats.results_removed,
        "pairs_added": session.stats.pairs_added,
        "pairs_removed": session.stats.pairs_removed,
    }


def build(dataset, specs) -> tuple:
    """Session + subscriptions; returns ``(session, subs, index_build_s,
    subscribe_s)``."""
    from repro.continuous import ContinuousSession

    timer = Timer()
    session = ContinuousSession(dataset.items, dataset.universe)
    index_build_s = timer.elapsed()
    timer = Timer()
    subs = [session.subscribe(spec) for spec in specs]
    return session, subs, index_build_s, timer.elapsed()


def run(ctx: Context, probe=None) -> Outcome:
    from repro.datasets.trajectories import PlasticityMotion

    host = host_record()
    memory = PeakMemory()
    rng = np.random.default_rng(ctx.seed)
    dataset = make_inputs(ctx.seed)
    items = dict(dataset.items)
    motion = PlasticityMotion(dataset.universe, moving_fraction=ACTIVE_FRACTION, seed=ctx.seed + 1)
    specs_rng_state = rng.bit_generator.state

    # The session and subscriptions are built SETUP_REPEATS times for a
    # steady median; the warm-up ticks (seconds each) run once, on the last.
    # Each build and each warm-up tick is host-scaled like the timed ticks.
    build_samples: list[float] = []
    scaled_builds: list[float] = []
    for _ in range(SETUP_REPEATS):
        rng.bit_generator.state = specs_rng_state
        specs = make_specs(items, rng)
        probe_before = host_probe_s()
        timer = Timer()
        session, subs, index_build_s, subscribe_s = build(dataset, specs)
        build_samples.append(timer.elapsed())
        scaled_builds.append(host_scaled(build_samples[-1], probe_before, host_probe_s()))
    tracker = Tracker(subs)
    warmup_s = scaled_warmup_s = 0.0
    for _ in range(WARMUP_TICKS):
        probe_before = host_probe_s()
        timer = Timer()
        moves = motion.step(items)
        for eid, _, new in moves:
            items[eid] = new
        tracker.apply(session.tick(moves))
        elapsed = timer.elapsed()
        warmup_s += elapsed
        scaled_warmup_s += host_scaled(elapsed, probe_before, host_probe_s())
    setup_s = median(scaled_builds) + scaled_warmup_s
    state = {"wrong": tracker.mismatches(session), "checkpoints": 1}
    settle_heap()

    tick_s: list[float] = []
    scaled_ms: list[float] = []
    probe_s: list[float] = []
    per_tick: list[dict] = []
    traced_ticks: list[bool] = []

    def ticks(count: int, traced: bool = False) -> None:
        """``count`` timed ticks, with an oracle checkpoint every
        ``CHECKPOINT_EVERY`` ticks (none while traced: the oracle's
        recompute would be attributed to the layers)."""
        for _ in range(count):
            moves = motion.step(items)
            for eid, _, new in moves:
                items[eid] = new
            before = snapshot(session)
            probe_before = host_probe_s()
            timer = Timer()
            deltas = session.tick(moves)
            tick_s.append(timer.elapsed())
            probe_s.append(host_probe_s())
            scaled_ms.append(host_scaled(tick_s[-1], probe_before, probe_s[-1]) * 1e3)
            after = snapshot(session)
            per_tick.append({key: _minus(after[key], before[key]) for key in after})
            traced_ticks.append(traced)
            tracker.apply(deltas)
            if not traced and len(tick_s) % CHECKPOINT_EVERY == 0:
                state["wrong"] += tracker.mismatches(session)
                state["checkpoints"] += 1

    # One pair of cycles per PAIR_NOMINAL_S of the budget, at least one.
    pairs = max(1, round(ctx.seconds / PAIR_NOMINAL_S))
    window = Timer()
    if probe is None:
        ticks(2 * HORIZON * pairs)
    else:
        # In each pair, an untraced cycle (the overhead baseline) and then a
        # traced one, so both see the same waves and host drift.
        for _ in range(pairs):
            ticks(HORIZON)
            probe.install()
            try:
                with probe.window():
                    ticks(HORIZON, traced=True)
            finally:
                probe.uninstall()
    window_s = window.elapsed()
    peak_mb = memory.peak_mb()
    wrong = state["wrong"] + tracker.mismatches(session)
    checkpoints = state["checkpoints"] + 1

    host["loadavg_after"] = list(os.getloadavg())
    attempted = len(tick_s) * len(subs)  # one delta per subscription per tick
    report = {
        "workload": "plasticity_ticks",
        "seed": ctx.seed,
        "host": host,
        "tracing_off": tracing_off(),
        "window_s": window_s,
        "setup": {
            "setup_s": setup_s,
            "raw_setup_s": median(build_samples) + warmup_s,
            "build_samples": build_samples,
            "index_build_s": index_build_s,
            "subscribe_s": subscribe_s,
            "warmup_s": warmup_s,
        },
        "workload_metrics": {
            "tick_p50_ms": median(tick_s) * 1e3,
            "host_probe_ms": median(probe_s) * 1e3,
            "error_rate": wrong / attempted,
        },
        "samples": {"tick_s": tick_s, "host_probe_s": probe_s, "scaled_tick_ms": scaled_ms},
        "checkpoints": checkpoints,
        "counters": {"exact": {"per_tick": per_tick[:CHECKPOINT_EVERY]}, "timing_dependent": {}},
    }
    if probe is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            # Alternate cycles: two interleaved halves of the steady window,
            # each covering whole re-anchor waves, in the reference host's
            # time (see ``host_scaled``).
            "primary_p50_ms": (median(alternate_cycles(scaled_ms, 0)), "ms"),
            "secondary_p50_ms": (median(alternate_cycles(scaled_ms, 1)), "ms"),
        }
    else:
        from tracing import layer_metrics

        traced = [tick for tick, flag in zip(per_tick, traced_ticks) if flag]
        routes: dict[str, int] = {}
        for tick in traced:
            for name, count in tick["routes"].items():
                routes[name] = routes.get(name, 0) + count
        hits = sum(t["safe_region_hits"] for t in traced)
        misses = sum(t["safe_region_invalidations"] for t in traced)
        measured = {
            **{
                f"continuous.route.{name}": routes.get(name, 0) / len(traced)
                for name in ("predictive", "incremental", "recompute")
            },
            "continuous.safe_region_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "setup.index_build_s": index_build_s,
            "setup.subscribe_s": subscribe_s,
            "trace.overhead_frac": median([t for t, flag in zip(scaled_ms, traced_ticks) if flag])
            / median([t for t, flag in zip(scaled_ms, traced_ticks) if not flag])
            - 1.0,
        }
        metrics = layer_metrics(probe, len(traced), measured)
    return Outcome(metrics=metrics, attempted=attempted, failed=wrong, correct=wrong == 0, report=report)


def alternate_cycles(samples: list[float], first: int) -> list[float]:
    """Samples of cycles ``first``, ``first + 2``, ... (``HORIZON`` each)."""
    return [x for i, x in enumerate(samples) if (i // HORIZON) % 2 == first]


def _minus(after, before):
    if isinstance(after, dict):
        return {k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)}
    return after - before
