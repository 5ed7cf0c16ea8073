"""Shared plumbing for the three workloads: inputs, statistics, memory and
the run-validity record.

Nothing here imports the program under test at module load; each workload
module does that itself after ``run.py`` has put the checkout's ``src/`` on
the path.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Directory the benchmark writes its run artifacts into (gitignored).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: How many times each workload repeats its set-up to report a median
#: ``setup_s`` (the first set-up also pays import and allocator warm-up).
SETUP_REPEATS = 3


@dataclass
class Context:
    """One invocation: workload seed, timed budget and mode."""

    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``.

    ``metrics`` holds the gated end-to-end metrics (``name -> (value,
    unit)``); ``report`` holds everything else the run measured, printed
    before the result line and written to ``OUT_DIR``.
    """

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    report: dict[str, Any] = field(default_factory=dict)


class Timer:
    """Wall-clock stopwatch (``perf_counter``)."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) with linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def settle_heap() -> None:
    """Collect, then move every surviving object (inputs, indexes, set-up
    garbage) out of the collector's view, so the timed window's collections
    scan only what the workload allocates while it runs."""
    gc.collect()
    gc.freeze()


# -- memory --------------------------------------------------------------------


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> list[int]:
    """Live direct children of this process (pool workers)."""
    pids: list[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return sorted(set(pids))


class PeakMemory:
    """Peak resident memory of this process plus its pool workers.

    Workers' peaks are sampled with :meth:`sample_children` while they are
    alive (call it before closing a pool); this process's own peak is read at
    the end.
    """

    def __init__(self) -> None:
        self._children_kb: dict[int, int] = {}

    def sample_children(self) -> None:
        for pid in child_pids():
            self._children_kb[pid] = max(self._children_kb.get(pid, 0), _vm_hwm_kb(pid))

    def peak_mb(self) -> float:
        total_kb = _vm_hwm_kb("self") + sum(self._children_kb.values())
        return total_kb / 1024.0


# -- host speed ----------------------------------------------------------------
#
# On a shared VM the speed of a vCPU drifts by up to 40% within a minute,
# with little of it visible as steal.  A fixed reference kernel, timed right
# before and right after each sample, measures that speed; a sample scaled by
# it reads as the time the same work would take on a host where the kernel
# takes ``PROBE_REFERENCE_S``.  The kernel is the benchmark's own code and
# never changes with the program, so every change to the program still shows
# in full.

#: Duration of one :func:`host_probe_s` on the reference host (a 2-vCPU
#: shared VM, Python 3.11); scaled samples read in that host's time.
PROBE_REFERENCE_S = 0.0015
PROBE_REPEATS = 5


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: tuple, hi: tuple) -> None:
        self.lo = lo
        self.hi = hi

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def enlargement(self, other: "_Box") -> float:
        v = 1.0
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            v *= max(b, d) - min(a, c)
        return v - self.volume()


def _fixed_boxes(count: int, side: float, rng: np.random.Generator) -> list[_Box]:
    corners = rng.random((count, 3)) * 10.0
    return [_Box(tuple(lo), tuple(hi)) for lo, hi in zip(corners.tolist(), (corners + side).tolist())]


_PROBE_RNG = np.random.default_rng(0)  # fixed: the kernel never depends on --seed
_NODE = _fixed_boxes(16, 0.5, _PROBE_RNG)
_ENTRIES = _fixed_boxes(24, 0.2, _PROBE_RNG)


def _reference_kernel() -> None:
    """Guttman's choose-subtree over fixed boxes: the interpreter work
    (attribute reads, tuple compares, float min/max) of the scalar R-tree
    maintenance that dominates a plasticity tick."""
    for entry in _ENTRIES:
        best = None
        for i, box in enumerate(_NODE):
            key = (box.enlargement(entry), box.volume())
            if best is None or key < best[0]:
                best = (key, i)


def host_probe_s() -> float:
    """Median of ``PROBE_REPEATS`` timed runs of the reference kernel."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - start)
    return median(samples)


def host_scaled(sample_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """``sample_s`` in the reference host's time, from the probes taken right
    before and right after it."""
    return sample_s * PROBE_REFERENCE_S / ((probe_before_s + probe_after_s) / 2.0)


# -- validity ------------------------------------------------------------------


def host_record() -> dict[str, Any]:
    """Host facts every report carries, read before the workload starts."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "loadavg_before": list(os.getloadavg()),
    }


def tracing_off() -> bool:
    """True when the program's own span tracer (``repro.obs``) is disabled —
    untraced runs must not pay for it."""
    from repro.obs import tracing_enabled

    return not tracing_enabled()
