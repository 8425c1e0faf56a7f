"""Tests of the benchmark's own code (run with ``python -m pytest perfbench``)."""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import measure
import run
import workloads
from layers import LAYERS, SEAMS, Instrumentation, Tracer
from workloads import (
    WORKLOADS,
    MechanismResult,
    PreparedPair,
    check_run,
    payloads,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Test-sized versions of the workloads' shapes, for smoke runs.
TINY = {
    "paper100": dataclasses.replace(
        WORKLOADS["paper100"], num_nodes=20, horizon_ms=4_000.0
    ),
    "tick1000": dataclasses.replace(
        WORKLOADS["tick1000"], num_nodes=60, horizon_ms=1_000.0
    ),
    "zipf1000": dataclasses.replace(
        WORKLOADS["zipf1000"], num_nodes=60, num_classes=12, max_queries=300
    ),
}


def spec_names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_metric_names_match_the_allowed_pattern():
    names = spec_names("end_to_end") + spec_names("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_reports_every_metric(name, trace):
    metrics, ledger, report = measure.measure(TINY[name], 0, 0.01, trace)
    assert ledger.failed == 0, ledger.problems
    assert ledger.attempted >= 4
    section = "per_layer" if trace else "end_to_end"
    assert list(metrics) == spec_names(section)
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    for metric, (value, unit) in metrics.items():
        assert NAME.fullmatch(metric)
        assert unit == units[metric]
        assert math.isfinite(value)
    assert report["absent_seams"] == []
    if trace:
        # Self times plus the unattributed remainder are the traced wall.
        attributed = sum(metrics[layer + "_s"][0] for layer in LAYERS)
        total = attributed + metrics["unattributed_s"][0]
        assert total == pytest.approx(metrics["trace.wall_s"][0], abs=1e-9)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_digests_are_equal(name):
    workload = TINY[name]
    untraced = measure.run_rep(workload, 3, "fork")
    traced = measure.run_rep(workload, 3, workload.trace_mode, traced=True)
    assert traced.calls, "the traced run recorded no spans"
    assert payloads(traced.results) == payloads(untraced.results)


def _result(**changes):
    payload = {
        "completed": 9,
        "dropped": 1,
        "mean_response_ms": 12.5,
        "p99_response_ms": 40.0,
        "outcome_digest": "ab" * 32,
    }
    payload.update(changes)
    return MechanismResult("qa-nt", 10, payload)


def test_check_accepts_a_matching_run():
    reference = {"qa-nt": _result().payload}
    assert check_run(_result(), reference, reference) == []


def test_check_rejects_a_tampered_digest():
    reference = {"qa-nt": _result().payload}
    tampered = _result(outcome_digest="cd" * 32)
    assert check_run(tampered, reference=reference)
    assert check_run(tampered, first=reference)


def test_check_rejects_a_conservation_miss():
    lost = _result(dropped=0)
    problems = check_run(lost)
    assert problems and "offered" in problems[0]


def test_check_counts_queries_executing_at_the_cutoff():
    # One query was still on a node when the run stopped: accounted for.
    cut = dataclasses.replace(_result(dropped=0), executed=10, unfinished=1)
    assert check_run(cut) == []
    # The nodes' histories must hold exactly completed + unfinished.
    extra = dataclasses.replace(cut, executed=11)
    problems = check_run(extra)
    assert problems and "executed" in problems[0]


def test_timings_scale_to_the_reference_host_speed():
    def rep(host_s):
        return measure.Rep(
            mode="fork", traced=False, setup_s=0.5, wall_s=2.0, cpu_s=3.0,
            worker_cpu_s=1.0, child_peak_kb=0, host_s=host_s,
            results=[_result(), _result()],
        )

    at_reference = measure.end_to_end([rep(measure.HOST_REFERENCE_S)])
    assert at_reference["sim_qps"][0] == pytest.approx(20 / 2.0)
    assert at_reference["setup_s"][0] == pytest.approx(0.5)
    # A host twice as slow as the reference: the same run scales back.
    halved = measure.end_to_end([rep(2 * measure.HOST_REFERENCE_S)])
    assert halved["sim_qps"][0] == pytest.approx(2 * 20 / 2.0)
    assert halved["cpu_s"][0] == pytest.approx(3.0 / 2)
    assert halved["setup_s"][0] == pytest.approx(0.5 / 2)


def test_tracer_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    started = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - started
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_s["inner"] >= 0.02
    assert tracer.self_s["outer"] < 0.02
    assert sum(tracer.self_s.values()) == pytest.approx(wall, abs=1e-3)


def test_missing_seams_are_reported_absent_and_originals_restored():
    from repro.allocation.greedy import GreedyAllocator
    from repro.sim.network import Network

    original_fanout = Network.fanout
    seams = SEAMS + (
        ("inherited", "repro.allocation.greedy", "GreedyAllocator", "on_run_end"),
        ("gone", "repro.sim.network", "Network", "no_such_method"),
        ("gone", "repro.no_such_module", None, "f"),
        ("gone", "repro.sim.network", "NoSuchClass", "run"),
    )
    instrumentation = Instrumentation(Tracer(), seams)
    with instrumentation:
        assert Network.fanout is not original_fanout
        assert "on_run_end" in vars(GreedyAllocator)
    assert instrumentation.absent == [
        "repro.sim.network.Network.no_such_method",
        "repro.no_such_module.f",
        "repro.sim.network.NoSuchClass.run",
    ]
    assert Network.fanout is original_fanout
    # An inherited method wrapped on a subclass is removed again.
    assert "on_run_end" not in vars(GreedyAllocator)


def test_a_hung_rep_becomes_a_failure_not_a_hang(monkeypatch):
    calls = []
    real_run = PreparedPair.run

    def run_then_hang(self):
        calls.append(1)
        if len(calls) == 3:
            time.sleep(30)
        return real_run(self)

    monkeypatch.setattr(measure, "DEADLINE_S", 0.5)
    monkeypatch.setattr(PreparedPair, "run", run_then_hang)
    started = time.perf_counter()
    metrics, ledger, _report = measure.measure(TINY["paper100"], 0, 30.0, False)
    assert time.perf_counter() - started < 10
    assert ledger.attempted == 6
    assert ledger.failed == 2
    assert "DeadlineExceeded" in ledger.problems[0]
    assert "sim_qps" in metrics


def test_cli_prints_one_result_line(monkeypatch, capsys):
    # Seed 1: the recorded reference is for the full-size seed-0 inputs.
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    status = run.main(
        ["--workload", "zipf1000", "--seed", "1", "--seconds", "0.01",
         "--trace", "0"]
    )
    out = capsys.readouterr()
    assert status == 0, out.err
    result = json.loads(out.out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    report = json.loads(out.out.splitlines()[-2])
    assert set(report["env"]) >= {"cpu_count", "python", "numpy", "platform"}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper100",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
