"""Timed and traced runs of one workload, folded into the metrics.

A *rep* is one set-up plus one qa-nt + greedy pair.  The timed reps
run untraced on the workload's real transport; in trace mode every
cycle adds an untraced rep on the traced run's transport (the baseline
of the tracing overhead) and the traced rep itself.  Every rep's
outcomes go through :func:`workloads.check_run`.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import multiprocessing
import os
import platform
import random
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

from layers import Instrumentation, Tracer
from workloads import (
    MECHANISMS,
    SHARDS,
    MechanismResult,
    PreparedPair,
    Workload,
    check_run,
    payloads,
)

#: Longest one rep (set-up, pair, tear-down) may take before it counts
#: as failed; a hung shard worker then ends the run instead of hanging it.
DEADLINE_S = 60.0

#: Seconds :func:`host_probe_s` takes on the reference host.  Shared
#: hosts change speed by up to 2x within minutes (a neighbour's load
#: slows every instruction, CPU time included), so the end-to-end
#: timings are scaled by ``HOST_REFERENCE_S / probe`` to this speed.
HOST_REFERENCE_S = 0.05

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class DeadlineExceeded(Exception):
    """A rep outlived :data:`DEADLINE_S`."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise DeadlineExceeded("rep exceeded its %.0f s deadline" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def children_cpu_s() -> float:
    """User + system CPU seconds of this process's live worker children,
    read from ``/proc/<pid>/stat`` (0 where there is no ``/proc``)."""
    total = 0.0
    for proc in multiprocessing.active_children():
        try:
            with open("/proc/%d/stat" % proc.pid) as handle:
                # Fields after the parenthesised command name; utime and
                # stime are fields 14 and 15 of the whole line.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def host_probe_s() -> float:
    """Seconds the host takes, right now, for a fixed workload of the
    simulator's kind: heap events, dict counters, float arithmetic and
    numpy calls on small arrays.  It runs none of the program's code,
    and the cyclic collector is off while it runs, so no collection can
    walk the program's live objects on the probe's clock: a change to
    the program's heap cannot move it."""
    rng = random.Random(1)
    heap: List[Tuple[float, int]] = []
    load: Dict[int, float] = {}
    lanes = numpy.zeros(8)
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(40_000):
            heapq.heappush(heap, (rng.random(), i))
            node = i % 97
            load[node] = load.get(node, 0.0) + 1.5
            if i % 4 == 0:
                lanes = numpy.maximum(lanes, load[node])
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def stop_children() -> None:
    """Terminate and reap every worker child (after a failed rep)."""
    children = multiprocessing.active_children()
    for proc in children:
        proc.terminate()
    for proc in children:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)


@dataclass
class Rep:
    """One measured set-up + pair."""

    mode: str
    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    child_peak_kb: int
    host_s: float
    results: List[MechanismResult]
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)

    @property
    def host_scale(self) -> float:
        """Factor that scales this rep's timings to the reference host."""
        return HOST_REFERENCE_S / self.host_s

    @property
    def offered(self) -> int:
        """Queries offered over the pair."""
        return sum(r.offered for r in self.results)

    def total(self, key: str) -> float:
        """A counter summed over the pair (0 where a run lacks it)."""
        return sum(r.counters.get(key, 0) for r in self.results)

    def summary(self) -> Dict[str, object]:
        """The rep's timings, for the report."""
        return {
            "mode": self.mode,
            "traced": self.traced,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "host_s": self.host_s,
        }


def run_rep(
    workload: Workload, seed: int, mode: str, traced: bool = False
) -> Rep:
    """Set up and run one pair; trace it when ``traced``.

    The tracer is installed before the set-up, so objects built for the
    run bind the wrapped functions, and reset after it, so only the
    pair's spans count.
    """
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    # Collect the previous rep's garbage now, not on this rep's clock.
    gc.collect()
    installed = instrumentation if traced else contextlib.nullcontext()
    with deadline(DEADLINE_S), installed:
        probes = [host_probe_s()]
        started = time.perf_counter()
        pair = PreparedPair(workload, seed, mode)
        setup_s = time.perf_counter() - started
        try:
            probes.append(host_probe_s())
            tracer.reset()
            workers_before = children_cpu_s()
            cpu_before = time.process_time()
            started = time.perf_counter()
            results = pair.run()
            wall_s = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_before
            worker_cpu_s = children_cpu_s() - workers_before
            child_peak_kb = pair.child_peak_kb()
            probes.append(host_probe_s())
        except BaseException:
            stop_children()
            raise
        finally:
            pair.close()
    return Rep(
        mode=mode,
        traced=traced,
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s + worker_cpu_s,
        worker_cpu_s=worker_cpu_s,
        child_peak_kb=child_peak_kb,
        host_s=statistics.median(probes),
        results=results,
        self_s=dict(tracer.self_s),
        calls=dict(tracer.calls),
        absent=list(instrumentation.absent),
    )


class Ledger:
    """Attempted and failed mechanism runs, and why they failed."""

    def __init__(self, reference: Optional[Dict] = None) -> None:
        self.reference = reference
        self.first: Optional[Dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, rep: Rep) -> Rep:
        """Check every run of ``rep`` against the reference and the
        first rep of this process."""
        if self.first is None:
            self.first = payloads(rep.results)
        for result in rep.results:
            self.attempted += 1
            problems = check_run(result, self.reference, self.first)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return rep

    def fail(self, runs: int, reason: str) -> None:
        """Count ``runs`` runs that never produced an outcome."""
        self.attempted += runs
        self.failed += runs
        self.problems.append(reason)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Optional[Dict] = None,
) -> Tuple[Dict[str, Tuple[float, str]], Ledger, Dict[str, object]]:
    """Warm up, then run cycles of reps until ``seconds`` have passed.

    Returns ``(metrics, ledger, report)``: ``metrics`` maps a name to
    ``(value, unit)`` (end-to-end untraced, per-layer traced), and
    ``report`` records the environment and the raw reps.
    """
    cycle = [("fork", False)]
    if trace:
        if workload.trace_mode != "fork":
            cycle.append((workload.trace_mode, False))
        cycle.append((workload.trace_mode, True))
    ledger = Ledger(reference)
    reps: List[Rep] = []
    # The first set-up in a process pays lazy imports and the first pair
    # runs measurably slower, so one full rep runs before the clock.
    warmup: Optional[Rep] = None
    started = time.perf_counter()
    try:
        warmup = ledger.check(run_rep(workload, seed, "fork"))
        started = time.perf_counter()
        while True:
            for mode, traced in cycle:
                rep = run_rep(workload, seed, mode, traced)
                reps.append(ledger.check(rep))
            if time.perf_counter() - started >= seconds:
                break
    except Exception as exc:  # the rep fails; report what finished
        traceback.print_exc()
        ledger.fail(len(MECHANISMS), "%s: %s" % (type(exc).__name__, exc))
    measured_s = time.perf_counter() - started
    timed = [rep for rep in reps if rep.mode == "fork" and not rep.traced]
    if not timed or (trace and not any(rep.traced for rep in reps)):
        raise RuntimeError(
            "no complete measurement: %s" % "; ".join(ledger.problems)
        )
    metrics = per_layer(reps) if trace else end_to_end(timed)
    report = {
        "workload": workload.name,
        "seed": seed,
        "env": environment(),
        "warmup": None if warmup is None else warmup.summary(),
        "measured_s": measured_s,
        "raw": raw_timings(timed),
        "reps": [rep.summary() for rep in reps],
        "payloads": ledger.first,
        "unfinished": {r.mechanism: r.unfinished for r in reps[0].results},
        "absent_seams": sorted({seam for rep in reps for seam in rep.absent}),
        "problems": ledger.problems,
    }
    return metrics, ledger, report


def environment() -> Dict[str, object]:
    """Host and interpreter facts recorded with every result."""
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": "%s %s"
        % (platform.python_implementation(), platform.python_version()),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(timed: Sequence[Rep]) -> Dict[str, Tuple[float, str]]:
    """The user-facing metrics, from the timed (untraced, forked) reps.

    Each rep's timings are first scaled to the reference host speed by
    its own probes.  Throughput and CPU are totals over the run's reps,
    so a rep that ran on a fast or slow moment weighs by its length;
    set-up is the median.  The raw figures go into the report.
    """
    qant = timed[0].results[0]
    payload = qant.payload
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
        r.child_peak_kb for r in timed
    )
    offered = sum(r.offered for r in timed)
    wall_s = sum(r.wall_s * r.host_scale for r in timed)
    cpu_s = sum(r.cpu_s * r.host_scale for r in timed)
    return {
        "sim_qps": (offered / wall_s, "1/s"),
        "cpu_s": (cpu_s / len(timed), "s"),
        "setup_s": (_median(r.setup_s * r.host_scale for r in timed), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "qant_completed_frac": (payload["completed"] / qant.offered, "ratio"),
        "qant_mean_response_ms": (float(payload["mean_response_ms"]), "ms"),
        "qant_p90_response_ms": (qant.p90_response_ms, "ms"),
    }


def raw_timings(timed: Sequence[Rep]) -> Dict[str, float]:
    """The same timings unscaled, and the run's median host probe."""
    return {
        "sim_qps": sum(r.offered for r in timed) / sum(r.wall_s for r in timed),
        "cpu_s": statistics.fmean(r.cpu_s for r in timed),
        "setup_s": _median(r.setup_s for r in timed),
        "host_probe_s": _median(r.host_s for r in timed),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(reps: Sequence[Rep]) -> Dict[str, Tuple[float, str]]:
    """The layer metrics.

    Self times (``<layer>_s`` for every layer of :data:`layers.LAYERS`),
    call counts and the unattributed remainder come from one traced
    rep, the one with the median wall, so they add up to that rep's
    wall exactly.  Plane times, worker CPU and barrier waits come from
    the forked reps (medians): they are other processes' time, which
    the tracer cannot see.
    """
    traced = sorted((r for r in reps if r.traced), key=lambda r: r.wall_s)
    rep = traced[len(traced) // 2]
    baseline = [r for r in reps if r.mode == rep.mode and not r.traced]
    forked = [r for r in reps if r.mode == "fork" and not r.traced]

    def self_s(layer: str) -> Tuple[float, str]:
        return rep.self_s.get(layer, 0.0), "s"

    def calls(layer: str) -> Tuple[float, str]:
        return rep.calls.get(layer, 0), "count"

    def count(key: str) -> Tuple[float, str]:
        return rep.total(key), "count"

    def forked_median(value) -> Tuple[float, str]:
        return _median(value(r) for r in forked), "s"

    plane_s = [
        _median(
            sum(res.plane_s[i] for res in r.results if i < len(res.plane_s))
            for r in forked
        )
        for i in range(SHARDS)
    ]
    exchanges = rep.total("exchanges")
    solved = rep.total("pe_solved_rows")
    reused = rep.total("pe_reused_rows")
    vector = rep.total("vector_exchanges")
    vector_frac = _ratio(vector, vector + rep.total("scalar_fallbacks"))
    metrics: Dict[str, Tuple[float, str]] = {
        "engine.events": count("events"),
        # Queries still executing at the single-process engine's cutoff:
        # neither completed nor dropped (see workloads.check_run).
        "engine.unfinished_queries": (
            sum(r.unfinished for r in rep.results),
            "count",
        ),
        "engine.self_s": self_s("engine.self"),
        "allocation.assign_s": self_s("allocation.assign"),
        "allocation.assign_calls": calls("allocation.assign"),
        "allocation.tick_exchange_s": self_s("allocation.tick_exchange"),
        "allocation.tick_exchange_calls": calls("allocation.tick_exchange"),
        "allocation.vector_frac": (vector_frac, "ratio"),
        "allocation.exchanges_per_query": (
            _ratio(exchanges, rep.offered),
            "ratio",
        ),
        "allocation.refused_frac": (
            _ratio(rep.total("refused"), exchanges),
            "ratio",
        ),
        "period_engine.advance_s": self_s("period_engine.advance"),
        "period_engine.ticks": count("pe_ticks"),
        "period_engine.solved_rows": count("pe_solved_rows"),
        "period_engine.reuse_frac": (_ratio(reused, solved + reused), "ratio"),
        "period_engine.deferred_ticks": count("pe_deferred_ticks"),
        "network.fanout_s": self_s("network.fanout"),
        "network.messages": count("messages"),
        "node.enqueue_s": self_s("node.enqueue"),
        "node.enqueue_calls": calls("node.enqueue"),
    }
    for i, seconds in enumerate(plane_s):
        metrics["shards.plane_s.%d" % i] = (seconds, "s")
    imbalance = _ratio(max(plane_s), statistics.fmean(plane_s))
    metrics.update(
        {
            "shards.plane_imbalance": (imbalance, "ratio"),
            "shards.coordinator_s": self_s("shards.coordinator"),
            "shards.post_s": self_s("shards.post"),
            "shards.posted_frames": count("posted_frames"),
            "shards.exchange_s": self_s("shards.exchange"),
            "shards.exchange_calls": calls("shards.exchange"),
            "shards.barrier_wait_s": forked_median(
                lambda r: r.total("barrier_wait_s")
            ),
            "shards.reconcile_barriers": count("reconcile_barriers"),
            # Per-run plan facts: the same for both runs of the pair.
            "shards.local_classes": (
                rep.results[0].counters.get("local_classes", 0),
                "count",
            ),
            "shards.residual_classes": (
                rep.results[0].counters.get("residual_classes", 0),
                "count",
            ),
            "shards.worker_cpu_s": forked_median(lambda r: r.worker_cpu_s),
            "protocol.codec_s": self_s("protocol.codec"),
            "protocol.codec_calls": calls("protocol.codec"),
            "merge.digest_s": self_s("merge.digest"),
            "unattributed_s": (rep.wall_s - sum(rep.self_s.values()), "s"),
            "trace.wall_s": (rep.wall_s, "s"),
            "trace.overhead_frac": (
                _median(r.wall_s for r in traced)
                / _median(r.wall_s for r in baseline)
                - 1.0,
                "ratio",
            ),
            "trace.absent_seams": (len(rep.absent), "count"),
            "host.probe_s": (_median(r.host_s for r in reps), "s"),
            # The market's tail, without a bound: across seeds it swings
            # too far to gate on (see README).
            "qant_p99_response_ms": (
                float(rep.results[0].payload["p99_response_ms"]),
                "ms",
            ),
        }
    )
    return metrics
