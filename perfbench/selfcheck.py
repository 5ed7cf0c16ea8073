"""Deterministic-counter self-check: ``run.py --selfcheck``.

Runs one workload twice in this process with the same seed and compares the
counters its report lists as ``exact`` (they must repeat bit for bit) and
shows the ``timing_dependent`` ones side by side (they may differ: they
depend on how requests happened to batch).  Exits 1 on any exact mismatch.
"""

from __future__ import annotations

import json


def _common_prefix(a, b):
    """Per-tick lists depend on how many ticks fit the window; compare the
    ticks both runs made."""
    if isinstance(a, list) and isinstance(b, list):
        n = min(len(a), len(b))
        return a[:n], b[:n]
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = {key: _common_prefix(a.get(key), b.get(key)) for key in set(a) | set(b)}
        return {k: v[0] for k, v in pairs.items()}, {k: v[1] for k, v in pairs.items()}
    return a, b


def selfcheck(module, ctx) -> int:
    first = module.run(ctx).report["counters"]
    second = module.run(ctx).report["counters"]
    exact_a, exact_b = _common_prefix(first["exact"], second["exact"])
    same = exact_a == exact_b
    print(json.dumps({
        "workload": module.__name__,
        "seed": ctx.seed,
        "exact_repeat": same,
        "exact": exact_a,
        "timing_dependent": {"first": first["timing_dependent"], "second": second["timing_dependent"]},
    }, default=float))
    if not same:
        print(json.dumps({"exact_second_run": exact_b}, default=float))
    return 0 if same else 1
