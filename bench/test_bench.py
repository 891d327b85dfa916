"""Tests of the benchmark's own pieces: the correctness gate, the wall
limit, the tracer's clean-up, and the metric names."""
from __future__ import annotations

import json
import re
import signal
import sys
import time

import pytest

import harness
import spans
import speed
import workloads

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def snapshot_package() -> dict:
    """Identity of every attribute of every sumgames module and class."""
    snap = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == "sumgames" or key.startswith("sumgames.")):
            continue
        for attr, value in vars(mod).items():
            snap[(key, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    snap[(key, attr, cattr)] = id(cvalue)
    return snap


@pytest.fixture(scope="module")
def program():
    return workloads.program(harness.load_program(fresh=False))


@pytest.fixture(scope="module")
def expected():
    return harness.load_expected()


def _instance(P, expected, workload, name, out_dir):
    template = workloads.template_by_name(workload, name)
    inst = workloads.build(P, template, expected["pools"][name][0], out_dir)
    return inst, expected["digests"].get(inst.id)


def test_frozen_result_passes_and_tampered_one_fails(program, expected, tmp_path):
    for workload, name in (("block-search", "mt/fin/d2/m3/h8/k2"),
                           ("schur", "threshold/k2/rep/v64")):
        inst, want = _instance(program, expected, workload, name, tmp_path)
        good, _ = harness.run_instance(inst, want)
        assert not good.failed, good.problem
        tampered, _ = harness.run_instance(inst, "0" * 64)
        assert tampered.failed and tampered.unexpected
        assert "differs from the frozen" in tampered.problem


def test_known_failure_is_counted_but_not_unexpected(program, expected, tmp_path):
    inst, _ = _instance(program, expected, "cover-partition", "cofinite/seeded-hash",
                        tmp_path)
    out, _ = harness.run_instance(inst, None)
    assert out.failed and not out.unexpected and out.error == "TypeError"


def test_wall_limit_fires():
    start = time.perf_counter()
    with pytest.raises(harness.WallLimit):
        with harness.wall_limit(0.05):
            while True:
                pass
    assert time.perf_counter() - start < 2.0

    def spin():
        while True:
            pass

    hang = workloads.Template("hang", "cli", {}, limit_s=0.05,
                              known=workloads.Known("WallLimit", "spins forever"))
    out, _ = harness.run_instance(workloads.Instance("hang/v0", hang, spin), None)
    assert out.failed and out.error == "WallLimit" and not out.unexpected
    # the alarm is disarmed afterwards
    time.sleep(0.1)


def test_tracer_leaves_the_package_unchanged(program, expected, tmp_path):
    before = snapshot_package()
    tracer = spans.Tracer()
    with tracer:
        for workload, name in (("block-search", "mt/nat/d2/m3/h8/k2"),
                               ("cover-partition", "comb/K4"),
                               ("report-roundtrip", "cli/readme-threshold")):
            inst, want = _instance(program, expected, workload, name, tmp_path)
            assert not harness.run_instance(inst, want)[0].failed
    assert snapshot_package() == before
    assert tracer.calls["search.mt_search"] == 1
    assert tracer.calls["partition.menger_mt_search"] == 1
    assert tracer.calls["cli.dispatch"] == 1
    assert tracer.calls[spans.NODE_COUNTER] > 0
    assert tracer.self_s["coloring.Coloring.of_set"] > 0
    assert tracer.absent == []


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS",
                        spans.TARGETS + (("search", "no_such_function", "span"),))
    before = snapshot_package()
    tracer = spans.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["search.no_such_function"]
    assert snapshot_package() == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer._open("search.mt_search")
    tracer._open("semigroups.fs_enumerate")
    time.sleep(0.02)
    tracer._close()
    tracer._close()
    assert tracer.self_s["semigroups.fs_enumerate"] >= 0.02
    assert tracer.self_s["search.mt_search"] < 0.01
    assert tracer.search_s >= 0.02


def test_speed_probe_samples_and_restores_its_handler():
    before = signal.getsignal(signal.SIGVTALRM)
    with speed.SpeedProbe(interval_s=0.01) as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert len(probe.took) >= speed.MIN_PROBES
    assert signal.getsignal(signal.SIGVTALRM) is before


def test_reference_seconds_scale_by_the_pace():
    probe = speed.SpeedProbe()
    probe.at.extend([1.0, 1.1, 1.2, 1.3])
    probe.took.extend([0.004] * 4)
    # the three probes inside the interval are taken off its time, and a
    # machine running the probe at half the reference pace halves the rest
    got = probe.reference_seconds(1.05, 0.30, fallback=1.0)
    assert got == pytest.approx((0.30 - 0.012) * speed.REFERENCE_S / 0.004)
    assert probe.reference_seconds(10.0, 0.1, fallback=2.0) == pytest.approx(0.2)


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert end_to_end == list(harness.END_TO_END)
    assert per_layer == spans.per_layer_metric_names()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    for name in end_to_end + per_layer:
        assert NAME.match(name) and len(name) <= 64, name
    for m in bench["end_to_end"]:
        assert m["unit"] == harness.END_TO_END[m["name"]]
