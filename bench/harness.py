"""Running a workload: set-up, timed passes, the correctness gate, the
optional traced passes, and the metrics they add up to.

A pass runs one draw of every template of a workload, then re-checks
every result through the program's public verify functions.  Each
instance runs under an in-process wall limit (SIGALRM, no thread or
process), so an instance that does not end is stopped and counted as
failed.  Every timed interval is turned into reference seconds by the
speed probe (see speed.py).
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Optional

import spans
import workloads
from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
# A certificate check takes micro- to milliseconds; its time is the median
# of this many calls (one in traced passes, so layer counts stay per pass).
CHECK_REPEATS = 5
# No pass starts after this many seconds, so a run ends within the
# 180 seconds a run may take even when a pass is slow.
HARD_STOP_S = 120.0
VERIFY_LIMIT_S = 100.0

# end-to-end metric -> unit, in the order they are reported
END_TO_END = {"setup_s": "s", "run_s": "s", "verify_s": "s", "instance_p50_ms": "ms",
              "peak_rss_mb": "MB"}


class WallLimit(BaseException):
    """Raised inside an instance that outran its wall limit.  A
    BaseException, so the program's own ``except Exception`` handlers do
    not swallow it."""


class wall_limit:
    """Context manager: raise WallLimit in this thread after ``seconds``."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise WallLimit(f"wall limit of {self.seconds} s reached")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# ---------------------------------------------------------------------------
# the program and its frozen results
# ---------------------------------------------------------------------------

def load_program(fresh: bool = True) -> dict:
    """Import sumgames from the checkout's ``src``.  With ``fresh``, modules
    already imported are dropped first, so the import is paid again."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if fresh:
        for name in [k for k in sys.modules if k == "sumgames" or k.startswith("sumgames.")]:
            del sys.modules[name]
    package = importlib.import_module("sumgames")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sumgames comes from {package.__file__}, not from this checkout")
    for layer in workloads.LAYERS:
        importlib.import_module(f"sumgames.{layer}")
    return {k: m for k, m in sys.modules.items() if k.startswith("sumgames")}


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one instance
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What a pass keeps of one instance.  The instance and its result are
    not kept, so memory does not grow with the number of passes."""

    id: str
    template: str
    start: float                    # perf_counter at the call
    seconds: float                  # wall time of the call
    error: Optional[str] = None     # exception name, or "WallLimit"
    failed: bool = False
    unexpected: bool = False        # a failure the benchmark does not list
    problem: str = ""
    verify_start: float = 0.0
    verify_seconds: Optional[float] = None
    # the two times in reference seconds, filled in after the pass
    ref_seconds: float = 0.0
    ref_verify_seconds: Optional[float] = None


def run_instance(instance: workloads.Instance, want: Optional[str]):
    """Run, time and gate one instance against its frozen digest.
    Returns (outcome, result)."""
    known = instance.template.known
    start = time.perf_counter()
    try:
        with wall_limit(instance.template.limit_s):
            result = instance.run()
    except WallLimit:
        return _failure(instance, start, "WallLimit", known), None
    except Exception as exc:  # an instance that raises is a failed instance
        return _failure(instance, start, type(exc).__name__, known, str(exc)), None
    out = Outcome(instance.id, instance.template.name, start, time.perf_counter() - start)
    canon = workloads.canonical(instance, result)
    if not workloads.oracle_ok(instance.template, canon):
        _reject(out, "result contradicts the published Schur threshold")
    elif known is None and workloads.digest(canon) != want:
        _reject(out, f"result differs from the frozen one: {json.dumps(canon)[:300]}")
    # A known failure that now returns has no frozen result; its
    # certificate is still re-checked.
    return out, result


def _failure(instance, start, error, known, message="") -> Outcome:
    expected = known is not None and known.error == error
    return Outcome(instance.id, instance.template.name, start,
                   time.perf_counter() - start, error=error,
                   failed=True, unexpected=not expected,
                   problem="" if expected else f"{error}: {message}"[:300])


def _reject(out: Outcome, problem: str) -> None:
    out.failed = out.unexpected = True
    out.problem = problem


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    outcomes: list
    start: float
    wall_s: float


def build_pass(P, workload: str, seed: int, pass_index: int, expected: dict) -> list:
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    return [workloads.build(P, t, v, out_dir)
            for t, v in workloads.draw(workload, seed, pass_index, expected["pools"])]


def run_pass(P, instances: list, expected: dict,
             check_repeats: int = CHECK_REPEATS) -> PassResult:
    """Run every instance, then re-check every result that passed the gate."""
    wall = time.perf_counter()
    digests = expected["digests"]
    runs = [run_instance(inst, digests.get(inst.id)) for inst in instances]
    for inst, (out, result) in zip(instances, runs):
        if out.failed:
            continue
        try:
            with wall_limit(VERIFY_LIMIT_S):
                if inst.out_path is not None:
                    _verify_report(P, inst, result, out)
                else:
                    _verify_certificate(inst, result, out, check_repeats)
        except WallLimit:
            _reject(out, "re-check hit its wall limit")
        except Exception as exc:  # a re-check that raises rejects the result
            _reject(out, f"re-check raised {type(exc).__name__}: {exc}"[:300])
    return PassResult([out for out, _ in runs], wall, time.perf_counter() - wall)


def _verify_certificate(inst, result, out: Outcome, repeats: int) -> None:
    """The instance's public verify function on its result, timed as the
    median of ``repeats`` calls."""
    out.verify_start = time.perf_counter()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        verdict = inst.check(result)
        times.append(time.perf_counter() - start)
    out.verify_seconds = statistics.median(times)
    if not verdict:
        _reject(out, "certificate rejected by its verify function")


def _verify_report(P, inst, report: str, out: Outcome) -> None:
    """verify-report over the report the instance produced, stored first."""
    inst.out_path.write_text(report)
    verdict = inst.out_path.with_suffix(".verify.jsonl")
    config = {"command": "verify-report", "input": str(inst.out_path),
              "out": str(verdict)}
    out.verify_start = time.perf_counter()
    P.cli.dispatch(P.cli.parse_config(config))
    out.verify_seconds = time.perf_counter() - out.verify_start
    result = json.loads(verdict.read_text())["result"]
    if result["records"] != 1 or result["mismatches"] != 0:
        _reject(out, "verify-report rejected the record")


def to_reference(p: PassResult, probe: SpeedProbe) -> None:
    """Fill in the reference-second times of a pass's outcomes."""
    fallback = probe.factor(p.start, p.start + p.wall_s) or 1.0
    for o in p.outcomes:
        o.ref_seconds = probe.reference_seconds(o.start, o.seconds, fallback)
        if o.verify_seconds is not None:
            o.ref_verify_seconds = probe.reference_seconds(o.verify_start,
                                                           o.verify_seconds, fallback)


def typical_pass(passes: list, value) -> float:
    """Seconds of a typical pass: for each template, the instances drawn
    per pass times the median of ``value`` over its draws in the run.
    Medians per template keep an odd disturbed instance out of the figure;
    outcomes whose value is None are left out."""
    draws, values = {}, {}
    for p in passes:
        for o in p.outcomes:
            name = o.template
            draws[name] = draws.get(name, 0) + 1
            v = value(o)
            if v is not None:
                values.setdefault(name, []).append(v)
    return sum(draws[name] / len(passes) * statistics.median(vs)
               for name, vs in values.items())


# ---------------------------------------------------------------------------
# set-up and a whole run
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import the program, load the frozen results, build the first pass
    and run the warm-up templates.  Returns (P, expected, first pass)."""
    P = workloads.program(load_program(fresh=True))
    # reports go to stdout and are stored under bench/out, never elsewhere
    os.environ.pop(P.cli.OUT_DIR_ENV, None)
    expected = load_expected()
    first = build_pass(P, workload, seed, 0, expected)
    for name in workloads.WARMUP[workload]:
        t = workloads.template_by_name(workload, name)
        inst = workloads.build(P, t, expected["pools"][name][0], OUT_DIR / workload)
        run_instance(inst, expected["digests"].get(inst.id))
    return P, expected, first


@dataclass
class Run:
    workload: str
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _account(run: Run, p: PassResult) -> None:
    run.attempted += len(p.outcomes)
    run.failed += sum(o.failed for o in p.outcomes)
    run.problems += [f"{o.id}: {o.problem}" for o in p.outcomes if o.unexpected]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Set up several times, then run passes until ``seconds`` are spent,
    with the speed probe sampling the machine's pace throughout.  With
    ``trace``, untraced and traced passes alternate and the per-layer
    metrics come from the traced ones."""
    with SpeedProbe() as probe:
        return _measure(workload, seed, seconds, trace, probe)


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             probe: SpeedProbe) -> Run:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        P, expected, instances = setup(workload, seed)
        setups.append((start, time.perf_counter() - start))

    run = Run(workload)
    plain, traced = [], []
    tracer = spans.Tracer() if trace else None
    began = time.perf_counter()
    pass_index = 0
    while True:
        if tracer is not None and pass_index % 2 == 1:
            with tracer:
                p = run_pass(P, instances, expected, check_repeats=1)
            traced.append(p)
        else:
            p = run_pass(P, instances, expected)
            plain.append(p)
        to_reference(p, probe)
        _account(run, p)
        pass_index += 1
        elapsed = time.perf_counter() - began
        typical = statistics.median(q.wall_s for q in plain + traced)
        need_traced = tracer is not None and not traced
        if not need_traced and (elapsed + typical > seconds or elapsed > HARD_STOP_S):
            break
        instances = build_pass(P, workload, seed, pass_index, expected)

    if trace:
        ref = attrgetter("ref_seconds")
        ratio = typical_pass(traced, ref) / typical_pass(plain, ref)
        run.metrics.update(tracer.metrics(len(traced), ratio))
        run.notes.append(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
        if tracer.absent:
            run.notes.append("absent from the program: " + ", ".join(tracer.absent))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
        written = tracer.write_spans(path)
        run.notes.append(f"{written} spans written to {path.relative_to(ROOT)}"
                         + (f", {tracer.dropped} more not kept" if tracer.dropped else ""))
    else:
        overall = probe.factor(setups[0][0], time.perf_counter()) or 1.0
        samples = [o.ref_seconds * 1000.0 for p in plain for o in p.outcomes if not o.failed]
        values = {
            "setup_s": statistics.median(probe.reference_seconds(a, t, overall)
                                         for a, t in setups),
            "run_s": typical_pass(plain, attrgetter("ref_seconds")),
            "verify_s": typical_pass(plain, attrgetter("ref_verify_seconds")),
            "instance_p50_ms": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        run.metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        run.notes.append(f"passes: {len(plain)}, instance samples: {len(samples)}")
        p90 = statistics.quantiles(samples, n=10)[-1]
        beyond = sum(s > p90 for s in samples)
        if beyond >= 10:
            run.notes.append(f"instance_p90_ms: {p90:.4f} ({len(samples)} samples, "
                             f"{beyond} above p90)")
        run.notes.append(
            f"as timed, before the pace correction: setup_s "
            f"{statistics.median(t for _, t in setups):.4f}, run_s "
            f"{typical_pass(plain, attrgetter('seconds')):.4f}, verify_s "
            f"{typical_pass(plain, attrgetter('verify_seconds')):.4f}; pace factor {overall:.3f} "
            f"({len(probe.took)} probes)")
    run.notes.append(f"error_rate: {run.failed / run.attempted:.4f} "
                     f"({run.failed} of {run.attempted} attempted)")
    return run
