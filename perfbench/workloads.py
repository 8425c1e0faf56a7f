"""The benchmark's workloads, how one run of each is set up and driven,
and the correctness check every run must pass.

Inputs come only from the workload seed ``s`` through the repository's
own seed plumbing: world ``s``, trace ``s + 10``, federation ``s + 2``.
A run is always the qa-nt + greedy pair, driven through the public
engine entry points: ``build_federation(...).run(trace)`` for the
single-process engine and ``ShardedFederation(...).run(trace,
mechanism)`` for the sharded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.allocation import GreedyAllocator, QantAllocator
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.sim import FederationConfig, ShardedFederation, build_federation
from repro.sim.shards import ShardedRunResult
from repro.workload.trace import zipf_trace

MECHANISMS = ("qa-nt", "greedy")

#: Shard workers of the sharded workload (the review host has 2 CPUs).
SHARDS = 2

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    """One named input shape.

    ``num_classes == 0`` selects the two-query world under a 1.5x-load
    0.05 Hz sinusoid (optionally floored onto ``tick_ms`` arrival
    ticks); ``num_classes > 0`` selects the Zipf world and trace, cut to
    the first ``max_queries`` arrivals.  ``sharded`` runs the pair
    through a forked local-market ``ShardedFederation``.
    """

    name: str
    num_nodes: int
    horizon_ms: float
    tick_ms: Optional[float] = None
    num_classes: int = 0
    max_queries: Optional[int] = None
    sharded: bool = False

    @property
    def trace_mode(self) -> str:
        """Transport mode of the traced run: ``inline`` keeps every
        plane's work in this process, where the tracer can see it, and
        is bit-identical to ``fork``."""
        return "inline" if self.sharded else "fork"


WORKLOADS: Dict[str, Workload] = {
    "paper100": Workload("paper100", num_nodes=100, horizon_ms=40_000.0),
    "tick1000": Workload(
        "tick1000", num_nodes=1000, horizon_ms=4_000.0, tick_ms=25.0
    ),
    "zipf1000": Workload(
        "zipf1000",
        num_nodes=1000,
        horizon_ms=30_000.0,
        num_classes=200,
        max_queries=10_000,
        sharded=True,
    ),
}

#: Mean inter-arrival time of each Zipf class.
ZIPF_INTERARRIVAL_MS = 400.0


def make_inputs(workload: Workload, seed: int):
    """``(world, trace)`` of ``workload`` for ``seed``."""
    if workload.num_classes:
        world = zipf_world(
            num_nodes=workload.num_nodes,
            num_classes=workload.num_classes,
            seed=seed,
        )
        trace = zipf_trace(
            workload.num_classes,
            ZIPF_INTERARRIVAL_MS,
            workload.horizon_ms,
            list(world.placement.node_ids),
            max_queries=workload.max_queries,
            seed=seed + 10,
        )
        if len(trace) != workload.max_queries:
            raise ValueError(
                "%s: the horizon holds only %d of %d queries"
                % (workload.name, len(trace), workload.max_queries)
            )
        return world, trace
    world = two_query_world(workload.num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=workload.horizon_ms,
        frequency_hz=0.05,
        seed=seed + 10,
    )
    if workload.tick_ms is not None:
        trace = quantise_trace(trace, workload.tick_ms)
    return world, trace


@dataclass
class MechanismResult:
    """One mechanism's run: its market outcome and layer counters."""

    mechanism: str
    offered: int
    payload: Dict[str, object]
    counters: Dict[str, float] = field(default_factory=dict)
    plane_s: List[float] = field(default_factory=list)
    p90_response_ms: float = 0.0
    #: Queries the nodes' histories hold, and how many of them finish
    #: after the run's cutoff (``None``/0 for the sharded engine, whose
    #: histories live in the workers and which runs every assignment to
    #: completion).
    executed: Optional[int] = None
    unfinished: int = 0


class PreparedPair:
    """Everything one pair needs, built before the clock starts.

    Construction is the benchmark's set-up: world, trace and the
    federations (for the sharded engine, the worker fork).  :meth:`run`
    drives qa-nt then greedy and digests each outcome; :meth:`close`
    stops any workers.
    """

    def __init__(self, workload: Workload, seed: int, mode: str = "fork"):
        world, trace = make_inputs(workload, seed)
        self.trace = trace
        config = FederationConfig(seed=seed + 2)
        self._cutoff_ms = max(e.time_ms for e in trace) + config.drain_ms
        self._sharded: Optional[ShardedFederation] = None
        self._single: Dict[str, tuple] = {}
        if workload.sharded:
            self._sharded = ShardedFederation(
                world.specs,
                world.placement,
                world.classes,
                world.cost_model,
                config=config,
                shards=SHARDS,
                mode=mode,
                market="local",
                reconcile_interval=4,
            )
            return
        for mechanism, make in (
            ("qa-nt", QantAllocator),
            ("greedy", GreedyAllocator),
        ):
            allocator = make()
            federation = build_federation(
                world.specs,
                world.placement,
                world.classes,
                world.cost_model,
                allocator,
                config,
            )
            self._single[mechanism] = (allocator, federation)

    def child_peak_kb(self) -> int:
        """Peak RSS of the worker processes (0 without workers)."""
        if self._sharded is None or self._sharded.transport is None:
            return 0
        return self._sharded.transport.child_peak_kb()

    def run(self) -> List[MechanismResult]:
        """The pair, in mechanism order."""
        if self._sharded is not None:
            return [self._run_sharded(m) for m in MECHANISMS]
        return [self._run_single(m) for m in MECHANISMS]

    def close(self) -> None:
        """Stop the worker pool, if any (safe to call twice)."""
        if self._sharded is not None:
            self._sharded.close()

    def _run_single(self, mechanism: str) -> MechanismResult:
        allocator, federation = self._single[mechanism]
        metrics = federation.run(self.trace)
        messages = federation.network.messages_sent
        result = ShardedRunResult.from_metrics(metrics, messages)
        payload = result.invariant_payload()
        summary = metrics.batch_summary()
        finishes = [
            record.finish_ms
            for node in federation.nodes.values()
            for record in node.history
        ]
        counters = {
            "events": federation.simulator.events_processed,
            "exchanges": metrics.exchanges,
            "refused": metrics.refused_exchanges,
            "vector_exchanges": summary["vector_exchanges"],
            "scalar_fallbacks": summary["scalar_fallbacks"],
            "messages": messages,
        }
        stats = getattr(allocator, "period_engine_stats", None)
        if stats is not None:
            counters.update(
                pe_ticks=stats.ticks,
                pe_solved_rows=stats.solved_rows,
                pe_reused_rows=stats.reused_rows,
                pe_deferred_ticks=stats.deferred_ticks,
            )
        return MechanismResult(
            mechanism,
            len(self.trace),
            payload,
            counters,
            p90_response_ms=result.percentile_response_ms(0.90),
            executed=len(finishes),
            unfinished=sum(f > self._cutoff_ms for f in finishes),
        )

    def _run_sharded(self, mechanism: str) -> MechanismResult:
        federation = self._sharded
        result = federation.run(self.trace, mechanism)
        # Per-run: read after every run, or only the last one remains.
        plane_s = federation.shard_self_time_s()
        payload = result.invariant_payload()
        summary = result.batch_summary()
        # Every plane exchange either assigns (and the query completes)
        # or refuses, so refusals are exchanges minus completions.
        exchanges = summary["vector_exchanges"]
        counters = {
            "exchanges": exchanges,
            "refused": exchanges - result.completed,
            "vector_exchanges": exchanges,
            "scalar_fallbacks": summary["scalar_fallbacks"],
            "messages": result.messages,
            "posted_frames": summary["overlapped_frames"],
            "barrier_wait_s": summary["barrier_wait_ms"] / 1e3,
            "reconcile_barriers": summary["reconcile_barriers"],
            "local_classes": summary["local_classes"],
            "residual_classes": summary["residual_classes"],
        }
        return MechanismResult(
            mechanism,
            len(self.trace),
            payload,
            counters,
            plane_s,
            p90_response_ms=result.percentile_response_ms(0.90),
        )


# -- correctness ----------------------------------------------------------------


def load_reference(name: str) -> Optional[Dict[str, Dict[str, object]]]:
    """The recorded seed-0 payloads of workload ``name`` (None if absent)."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle).get(name)


def check_run(
    result: MechanismResult,
    reference: Optional[Mapping[str, Mapping[str, object]]] = None,
    first: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> List[str]:
    """Problems with one mechanism run; an empty list means it passed.

    * conservation: every offered query completed, was dropped, or was
      still executing at the run's cutoff (``horizon + drain_ms``; the
      single-process engine stops there and records only its pending
      pool as dropped, see ``repro.sim.federation``);
    * the nodes' histories agree: the queries they executed are the
      completed ones plus exactly the unfinished ones;
    * ``reference``: the payload equals the recorded one for this seed;
    * ``first``: the payload equals the first run of this process, so
      repeats, the forked and inline transports, and the traced and
      untraced runs must all agree bit for bit.
    """
    problems = []
    payload = result.payload
    completed = payload["completed"]
    dropped = payload["dropped"]
    unfinished = result.unfinished
    if completed + dropped + unfinished != result.offered:
        problems.append(
            "%s: completed %d + dropped %d + unfinished %d != offered %d"
            % (result.mechanism, completed, dropped, unfinished, result.offered)
        )
    if result.executed is not None and result.executed != completed + unfinished:
        problems.append(
            "%s: nodes executed %d != completed %d + unfinished %d"
            % (result.mechanism, result.executed, completed, unfinished)
        )
    for label, expected in (("reference", reference), ("first run", first)):
        if expected is None:
            continue
        want = expected.get(result.mechanism)
        if want is None or dict(payload) != dict(want):
            problems.append(
                "%s: payload differs from the %s: %r != %r"
                % (result.mechanism, label, payload, want)
            )
    return problems


def payloads(results: Sequence[MechanismResult]) -> Dict[str, Dict[str, object]]:
    """``mechanism -> invariant payload`` of one pair."""
    return {r.mechanism: dict(r.payload) for r in results}
