"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with every tracer off;
``--trace 1`` is the separate traced run that wraps each layer's public
entry points (from this directory, never from ``src/``) and reports the
per-layer metrics, a self-time table and a Chrome trace file.  The last line
of standard output is the JSON result; the lines before it are the full
report (also written under ``perfbench/out/``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_stream", "synapse_join", "plasticity_ticks")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the workload's fixed-size slice twice and require the exact counters to repeat",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import importlib

    from common import OUT_DIR, Context, tracing_off

    if not tracing_off():
        print("the program's span tracer is enabled (REPRO_TRACE); unset it", file=sys.stderr)
        return 2
    # Anything the program spills or stages stays inside the checkout.
    import tempfile

    tempfile.tempdir = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    module = importlib.import_module(args.workload)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    if args.selfcheck:
        from selfcheck import selfcheck

        return selfcheck(module, ctx)
    if ctx.trace:
        from tracing import traced_run

        outcome = traced_run(module, ctx)
    else:
        outcome = module.run(ctx)

    mode = "traced" if ctx.trace else "untraced"
    with open(os.path.join(OUT_DIR, f"{args.workload}-{mode}-seed{args.seed}.json"), "w") as fh:
        json.dump(outcome.report, fh, indent=1, default=float)
    print(json.dumps(outcome.report, default=float))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
