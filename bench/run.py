"""sumgames benchmark entry point.

    python3 bench/run.py --workload block-search --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Prints a summary, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process, one after the
other, and prefixes each metric with the workload name.  See README.md
in this directory.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def _parse(argv):
    import workloads

    parser = argparse.ArgumentParser(description="sumgames benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    import harness

    try:
        run = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    print(f"== {run.workload} (seed {args.seed}, trace {args.trace}) ==")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps(run.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
