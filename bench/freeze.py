"""Freeze the expected results the benchmark gates on.

Run once against the code the benchmark is defined on:

    python3 bench/freeze.py

For every template it runs the candidate variants, requires each to pass
its certificate check (and the Schur oracle), keeps the variants whose
run time (the faster of two runs) lies closest to the median, and writes
their result digests to ``expected.json``.
Known failures must fail as documented.  A later change to the program
must not re-run this: the point of the file is that it was written by the
earlier code.
"""
from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import sys
import time

import harness
import workloads


def _run_candidate(P, template, variant):
    """(instance, result, error name, seconds) of one run."""
    inst = workloads.build(P, template, variant, harness.OUT_DIR / "freeze")
    start = time.perf_counter()
    try:
        with harness.wall_limit(template.limit_s):
            result = inst.run()
    except harness.WallLimit:
        return inst, None, "WallLimit", 0.0
    except Exception as exc:
        return inst, None, type(exc).__name__, 0.0
    return inst, result, None, time.perf_counter() - start


def freeze_template(P, template) -> tuple:
    """(pool, digests) for one template."""
    if template.known is not None:
        inst, _, error, _ = _run_candidate(P, template, 0)
        if error != template.known.error:
            raise SystemExit(f"{inst.id}: expected {template.known.error}, got {error}")
        return [0], {}
    cost, digests = {}, {}
    for variant in range(template.candidates):
        inst, result, error, seconds = _run_candidate(P, template, variant)
        if error is not None:
            raise SystemExit(f"{inst.id}: raised {error}")
        canon = workloads.canonical(inst, result)
        if not workloads.oracle_ok(template, canon):
            raise SystemExit(f"{inst.id}: contradicts the Schur oracle")
        if inst.out_path is None and not inst.check(result):
            raise SystemExit(f"{inst.id}: certificate rejected")
        digests[inst.id] = workloads.digest(canon)
        cost[variant] = min(seconds, _run_candidate(P, template, variant)[3])
    middle = statistics.median(cost.values())
    kept = sorted(sorted(cost, key=lambda v: (abs(cost[v] - middle), v))[:template.pool])
    spread = [cost[v] for v in kept]
    print(f"{template.name}: kept {kept}, {min(spread) * 1000:.3g}..{max(spread) * 1000:.3g} ms",
          file=sys.stderr)
    return kept, {f"{template.name}/v{v}": digests[f"{template.name}/v{v}"] for v in kept}


def main() -> int:
    P = workloads.program(harness.load_program(fresh=False))
    (harness.OUT_DIR / "freeze").mkdir(parents=True, exist_ok=True)
    pools, digests, known = {}, {}, {}
    for name, temps in workloads.WORKLOADS.items():
        for template in temps:
            pool, got = freeze_template(P, template)
            pools[template.name] = pool
            digests.update(got)
            if template.known is not None:
                known[f"{template.name}/v0"] = template.known.error
    doc = {
        "frozen": {"date": datetime.date.today().isoformat(),
                   "python": platform.python_version(), "nproc": os.cpu_count()},
        "pools": pools,
        "digests": digests,
        "known_failures": known,
    }
    with open(harness.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
