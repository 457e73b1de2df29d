"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload serve-light --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate pass that prints the per-layer metrics (see ``spec.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run is
correct when no operation failed its output checks and the executor
never took its per-op fallback.  The program is imported from
``src/``; without it the script exits with status 2 and prints no
result.
"""

import argparse
import json
import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec


def workload(name):
    from inproc import TraceWorkload
    from serving import ServeWorkload

    return {"serve-light": ServeWorkload, "trace-rca4": TraceWorkload}[name]()


def load_benchmark(root):
    """BENCHMARK.json, checked to name the per-layer metrics that
    ``spec.MOVES`` attributes to end-to-end metrics."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    names = {m["name"] for m in document["per_layer"]}
    if names != set(spec.MOVES):
        raise RuntimeError(
            "BENCHMARK.json per_layer and spec.MOVES differ: "
            f"{sorted(names ^ set(spec.MOVES))}"
        )
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so every ``finally`` runs and
    # no daemon child outlives an interrupted run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the repository root (no src/repro)",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark(root)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, os.path.join(root, "src"))

    outcome = workload(args.workload).run(
        root, args.seed, args.seconds, bool(args.trace)
    )
    from repro.circuits.compiled import physics_pristine

    table = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in table}
    measured = outcome["metrics"]
    if set(measured) != set(units):
        missing = sorted(set(units) - set(measured))
        extra = sorted(set(measured) - set(units))
        raise RuntimeError(f"metrics missing {missing}, unexpected {extra}")
    finite = all(math.isfinite(v) for v in measured.values())
    correct = (
        outcome["failed"] == 0 and outcome["fallbacks"] == 0
        and physics_pristine() and finite
    )
    for note in outcome["notes"]:
        print(f"perfbench: {args.workload}: {note}")
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{outcome['attempted']} operations, {outcome['failed']} failed, "
          f"{outcome['fallbacks']} executor fallbacks")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
