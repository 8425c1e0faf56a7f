"""Sharded multi-process federation: QA-NT on shard-local market planes.

PR 7 vectorised the market tick; the whole market still ran in one
process.  This module partitions the federation's nodes across ``N``
worker processes by *query-class affinity* and runs the one QA-NT
market (Section 3.3, Def. 4) as ``N + 1`` self-contained **market
planes**:

* QA-NT's pricing state factors along the catalog's *affinity
  components* — the union-find groups :func:`plan_shards` computes.
  Two query classes interact only through a shared bidder (busy clock,
  Section 5.1 max-price latch), so a component whose nodes all landed
  on one shard runs its **entire** bid/price/refusal/solve dynamics
  shard-side, inside that shard's :class:`_MarketPlane`;
* components split across shards form the **residual plane**, priced
  and executed in-process by the slim coordinator with the identical
  :class:`_MarketPlane` code;
* every plane prices with :mod:`repro.core.market_kernel` — the same
  exchange, decay and eq. 4 program as the single-process engine — so
  it honours the run's ``supply_method`` and ``carry_over``;
* the coordinator routes each tick's arrivals to their plane: one-way
  ``mtick`` frames of encoded :class:`~repro.protocol.messages
  .BidRequest` messages through the :mod:`repro.protocol` codec over
  :class:`ShardTransport` (double-buffered — it routes frame *t+1*
  while shards still chew frame *t*).

Every plane is the same market restricted to its component set, so the
planes' decisions do not depend on where a component runs.  Determinism
is the design's backbone:

* ``shards=1`` delegates verbatim to the single-process engine
  (:func:`repro.sim.federation.run_single_mechanism`), so every
  existing golden pins it byte-for-byte;
* ``shards>1`` is invariant to the shard count, the transport mode and
  the reconciliation interval: per-node latency streams are keyed by
  *node id* (not shard) through the :func:`derive_shard_seed` sha256
  scheme, and outcomes are globally sorted by ``(finish_ms, qid)``
  before any float reduction, so summary means are bit-identical
  however the fleet is partitioned.

The ``shards>1`` engine is a *model* of the same market, not a replay
of the single-process event loop: arrivals are priced in
same-timestamp market ticks, negotiation delay is charged per
assignment from the winning node's latency stream (two legs) instead of
the slowest full-fan-out round trip, and refused queries pool until the
next period boundary.  Its
outputs are pinned by their own goldens
(``tests/golden/sharded_1000node_seed0.json``, where the whole market
is one residual component, and ``tests/golden/localmarket_zipf_seed0
.json``, where most classes price shard-side).

The reconciliation interval R governs the **price-reconciliation
barrier**: every R period boundaries the shards return per-class
price/supply digests plus busy watermarks that refresh the
coordinator's cross-shard quote mirror (:meth:`ShardedFederation
.stale_quotes`), bounding quote staleness at R boundaries and flushing
the one-way frame pipeline.  ``mode="tcp"`` runs the same workers
behind length-prefixed JSON frames over localhost sockets (the
:mod:`repro.protocol.transport` framing helpers), so shards can span
machines.
"""

from __future__ import annotations

import json
import math
import random
import resource
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from ..core.market_kernel import (
    SATURATED,
    Exchange,
    Lanes,
    SupplySolver,
    carry_round,
    decay,
    earliest,
)
from ..core.qant import QantParameters
from ..protocol.messages import BidRequest, decode, encode
from ..protocol.transport import FrameDecoder, encode_frame
from .faults import derive_fault_seed
from .federation import FederationConfig, run_single_mechanism
from .metrics import MetricsCollector

__all__ = [
    "ShardPlan",
    "ShardTransport",
    "ShardedFederation",
    "ShardedRunResult",
    "derive_shard_seed",
    "plan_shards",
    "split_market_classes",
]


def derive_shard_seed(seed: int, tag: Sequence[object]) -> int:
    """A process-stable child seed for one shard-layer sub-stream.

    Same sha256 derivation as :func:`repro.sim.faults.derive_fault_seed`
    (Python's builtin ``hash`` is salted per process, so sub-streams key
    off a digest of ``(seed, tag)`` instead): the same pair yields the
    same child seed in every worker process, which is what makes the
    sharded engine's latency streams partition- and process-invariant.
    """
    return derive_fault_seed(seed, tag)


# -- the partitioner ----------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of federation nodes to shards.

    ``shard_nodes[s]`` lists shard *s*'s nodes in ascending id order;
    ``loads[s]`` is the shard's bidding load — the number of
    (node, candidate-class) memberships it hosts, the quantity the
    partitioner balances.
    """

    num_shards: int
    shard_nodes: Tuple[Tuple[int, ...], ...]
    loads: Tuple[int, ...]

    @property
    def node_to_shard(self) -> Dict[int, int]:
        """Node id → owning shard index."""
        owner: Dict[int, int] = {}
        for shard, nodes in enumerate(self.shard_nodes):
            for nid in nodes:
                owner[nid] = shard
        return owner

    def imbalance(self) -> float:
        """Max-over-mean of the per-shard bidding loads (1.0 = perfect)."""
        if not self.loads:
            return 1.0
        mean = sum(self.loads) / len(self.loads)
        if mean <= 0:
            return 1.0
        return max(self.loads) / mean


def _affinity_roots(
    candidates_by_class: Mapping[int, Sequence[int]]
) -> Dict[int, int]:
    """Affinity component of every bidding node: node id → root id.

    Union-find over the classes' candidate sets: every class unions its
    bidders, so classes with overlapping bidder sets share one
    component.  The root is the component's smallest node id, which
    keeps component identity canonical; nodes bidding in no class are
    absent.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for candidates in candidates_by_class.values():
        members = sorted(candidates)
        for nid in members:
            parent.setdefault(nid, nid)
        for nid in members[1:]:
            ra, rb = find(members[0]), find(nid)
            if ra != rb:
                # Smaller root wins, keeping group identity canonical.
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    return {nid: find(nid) for nid in parent}


def plan_shards(
    candidates_by_class: Mapping[int, Sequence[int]],
    node_ids: Sequence[int],
    num_shards: int,
) -> ShardPlan:
    """Partition ``node_ids`` into ``num_shards`` by class affinity.

    Nodes are first grouped by affinity component
    (:func:`_affinity_roots`: classes with overlapping bidder sets land
    in one group), groups are ordered by their
    smallest member and flattened (members ascending), nodes bidding in
    no class are appended last, and the flat order is chopped into
    ``num_shards`` contiguous near-equal chunks.  Purely a function of
    the catalog — no RNG, no tie-breaks — so every process computes the
    identical plan.
    """
    if num_shards <= 0:
        raise ValueError("need at least one shard")
    root_of = _affinity_roots(candidates_by_class)
    groups: Dict[int, List[int]] = {}
    for nid, root in root_of.items():
        groups.setdefault(root, []).append(nid)
    flat: List[int] = []
    for root in sorted(groups):
        flat.extend(sorted(groups[root]))
    flat.extend(sorted(nid for nid in node_ids if nid not in root_of))
    if num_shards > len(flat):
        raise ValueError("more shards than nodes")
    base, extra = divmod(len(flat), num_shards)
    shard_nodes: List[Tuple[int, ...]] = []
    pos = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        shard_nodes.append(tuple(sorted(flat[pos : pos + size])))
        pos += size
    membership: Dict[int, int] = {}
    for candidates in candidates_by_class.values():
        for nid in candidates:
            membership[nid] = membership.get(nid, 0) + 1
    loads = tuple(
        sum(membership.get(nid, 0) for nid in nodes) for nodes in shard_nodes
    )
    return ShardPlan(
        num_shards=num_shards,
        shard_nodes=tuple(shard_nodes),
        loads=loads,
    )


def split_market_classes(
    candidates_by_class: Mapping[int, Sequence[int]], plan: ShardPlan
) -> Dict[int, int]:
    """Market-plane ownership of every query class under ``plan``.

    Returns ``owner``: class index → shard index when the class's whole
    *affinity component* landed inside one shard of ``plan`` (the class
    is **shard-local**: that shard may own its full bid/price/refusal
    dynamics), or ``-1`` when the component's nodes span shards (the
    class belongs to the coordinator's **residual plane**).

    Ownership is decided per component, never per class: two classes
    sharing a bidder are coupled through that node's busy clock and
    Section 5.1 max-price latch, so they must price inside one plane
    together — a class whose own candidates fit one shard still goes
    residual if a sibling class drags the component across the boundary.
    """
    root_of = _affinity_roots(candidates_by_class)
    node_to_shard = plan.node_to_shard
    component_shards: Dict[int, set] = {}
    for nid, root in root_of.items():
        component_shards.setdefault(root, set()).add(node_to_shard[nid])
    owner: Dict[int, int] = {}
    for class_index, candidates in candidates_by_class.items():
        if not candidates:
            owner[class_index] = -1
            continue
        shards = component_shards[root_of[min(candidates)]]
        owner[class_index] = next(iter(shards)) if len(shards) == 1 else -1
    return owner


# -- the market plane ---------------------------------------------------------


class _MarketPlane:
    """One self-contained QA-NT market over a subset of the federation.

    The full market stack restricted to one set of affinity components:
    the :mod:`repro.core.market_kernel` pricing the single-process
    engine runs too (exchanges, steps 12–14 decay, eq. 4 under the run's
    ``supply_method`` and ``carry_over``), plus what only a plane does —
    the optimistic busy write, the pending pool and execution replay
    with node-keyed latency streams.  Query classes only couple through
    shared bidders, so running each component set in its own plane
    performs bit-for-bit the same float operations, in the same order,
    as one global plane interleaving them: this is the equivalence that
    makes the sharded digest independent of the shard count, transport
    mode and reconciliation interval.

    Instances run shard-side (one per shard, inside
    :class:`_LocalMarketCore`) and coordinator-side (the residual plane
    of split components).  The init
    mapping is JSON-safe so the identical spec crosses pipes and TCP
    sockets.
    """

    def __init__(self, init: Mapping[str, object]) -> None:
        ids = [int(nid) for nid in init["node_ids"]]
        self._ids = ids
        self._index = {nid: i for i, nid in enumerate(ids)}
        n = len(ids)
        self._costs = _np.array(init["costs"], dtype=float).reshape(
            n, int(init["num_classes"])
        )
        self._allow = _np.array(init["allowances"], dtype=float)
        self._seeds = [int(s) for s in init["latency_seeds"]]
        self._base = float(init["base_ms"])
        self._jitter = float(init["jitter_ms"])
        self._adjustment = float(init["adjustment"])
        self._floor = float(init["floor"])
        self._carry = bool(init["carry_over"])
        self._solver = SupplySolver(self._costs, str(init["supply_method"]))
        #: Pricing busy mirror: optimistic within a tick (later queries
        #: of the tick see each commitment), resynced to the
        #: authoritative execution clock at the tick's end.
        self._busy = _np.zeros(n, dtype=float)
        #: Authoritative per-node FIFO clocks (negotiation delay included).
        self._exec_busy = _np.zeros(n, dtype=float)
        threshold = init.get("threshold")
        self._market = Exchange(
            self._busy,
            1.0 + self._adjustment,
            self._floor,
            float(init["cap"]),
            None if threshold is None else float(threshold),
        )
        # Lane state: one flat array per quantity, one lane per
        # (candidate, class) pair in init order, with per-class views.
        self._lanes: Dict[int, Lanes] = {}
        lane_rows: List[int] = []
        lane_cols: List[int] = []
        for class_index, cand in init["classes"]:
            k = int(class_index)
            rows = [self._index[int(nid)] for nid in cand]
            self._lanes[k] = Lanes(
                _np.array(rows, dtype=_np.intp), self._costs[rows, k]
            )
            lane_rows.extend(rows)
            lane_cols.extend([k] * len(rows))
        self._lane_rows = _np.array(lane_rows, dtype=_np.intp)
        size = len(lane_rows)
        self._V, self._R = _np.ones(size), _np.zeros(size)
        self._F = _np.zeros(size, dtype=_np.int64)
        self._ACC = _np.zeros(size, dtype=_np.int64)
        start = 0
        for lanes in self._lanes.values():
            view = slice(start, start + len(lanes.rows))
            lanes.V, lanes.R = self._V[view], self._R[view]
            lanes.F, lanes.ACC = self._F[view], self._ACC[view]
            start = view.stop
        # Eq. 4 state in the solver's compact layout, where each row's
        # evaluable classes come first in ascending order.
        width = self._solver.cols.shape[1]
        rank = _np.cumsum(_np.isfinite(self._costs), axis=1) - 1
        self._lane_cells = (
            self._lane_rows * width + rank[self._lane_rows, lane_cols]
        )
        self._credit = _np.zeros((n, width), dtype=float)
        self._prices_c = _np.ones((n, width), dtype=float)
        # maxp baseline: a class the node can never evaluate keeps its
        # initial price of 1.0 forever (no refusals, no leftover supply),
        # pinning the node's max price at >= 1.0.
        self._maxp_base = _np.isinf(self._costs).any(axis=1) * 1.0
        self.reset(True)

    @property
    def node_ids(self) -> List[int]:
        """The plane's nodes in ascending id order."""
        return self._ids

    @property
    def pending_count(self) -> int:
        """Queries refused and waiting for the next period boundary."""
        return len(self._pending)

    @property
    def exchanges(self) -> int:
        """Request-for-bid exchanges priced since the last reset."""
        return self._exchanges

    def reset(self, qa: bool) -> None:
        """Fresh run state + the bind-time eq. 4 solve (QA-NT only)."""
        self._qa = bool(qa)
        for state in (self._busy, self._exec_busy, self._credit, self._R):
            state[:] = 0.0
        self._V[:] = 1.0
        self._rngs = [random.Random(seed) for seed in self._seeds]
        self._period_serial = 0
        self._saturated_in: Dict[int, int] = {}
        self._pending: List[Tuple] = []
        self._cols: Tuple[List, ...] = tuple([] for _ in range(9))
        self._assigned = 0
        self._exchanges = 0
        if self._qa and self._ids:
            self._period_solve(0.0)

    # -- ticking -------------------------------------------------------------

    def market_tick(self, now: float, rows: Sequence[Tuple]) -> int:
        """Price ``rows`` in order, replay the winners; refusals pool.

        Each row is ``(qid, class_index, origin, arrival, resub)``; a
        refused row pools with ``resub + 1``, the count it carries into
        its retry at the next boundary.  Returns the number of
        assignments made.
        """
        pending = self._pending
        assignments: List[Tuple] = []
        for row in rows:
            k = row[1]
            node = self._match(k, now)
            if node is None:
                pending.append((row[0], k, row[2], row[3], row[4] + 1))
            else:
                assignments.append(
                    (row[0], k, row[2], row[3], row[4], node)
                )
        self._exchanges += len(rows)
        if assignments:
            self._replay(now, assignments)
        return len(assignments)

    def _match(self, class_index: int, now: float) -> Optional[int]:
        """One request-for-bid exchange (greedy: every candidate offers)
        plus the optimistic busy write and the saturation fast path."""
        lanes = self._lanes[class_index]
        if not self._qa:
            lane, finish = earliest(self._busy, lanes, now)
        elif self._saturated_in.get(class_index) == self._period_serial:
            return None
        else:
            lane, finish = self._market(lanes, now)
            if lane < 0:
                if lane == SATURATED:
                    self._saturated_in[class_index] = self._period_serial
                return None
        row = int(lanes.rows[lane])
        self._busy[row] = finish
        return self._ids[row]

    def _replay(self, now: float, assignments: Sequence[Tuple]) -> None:
        """Execution replay, then the pricing mirror resyncs.

        Every assignment is replayed in pricing order: the negotiation
        delay is two latency legs from the *node's* stream, and the
        query starts when both the delay has elapsed and the node's FIFO
        is free (mirroring :meth:`repro.sim.node.SimulatedNode.enqueue`).
        The finish becomes the authoritative clock the pricing mirror
        reads from the next tick on.
        """
        index = self._index
        ebusy = self._exec_busy
        costs = self._costs
        rngs = self._rngs
        base = self._base
        jitter = self._jitter
        cols = self._cols
        busy = self._busy
        for qid, class_index, origin, arrival, resub, node in assignments:
            i = index[node]
            if jitter == 0.0:
                delay = base + base
            else:
                rnd = rngs[i].random
                delay = (base + jitter * rnd()) + (base + jitter * rnd())
            assigned = now + delay
            prior = ebusy[i]
            start = prior if prior > assigned else assigned
            finish = start + costs[i, class_index]
            ebusy[i] = finish
            cols[0].append(qid)
            cols[1].append(class_index)
            cols[2].append(origin)
            cols[3].append(arrival)
            cols[4].append(assigned)
            cols[5].append(node)
            cols[6].append(start)
            cols[7].append(finish)
            cols[8].append(resub)
            busy[i] = finish
        self._assigned += len(assignments)

    # -- period boundary ------------------------------------------------------

    def boundary(self, now: float) -> int:
        """Steps 12-14 decay, eq. 4, latch reset, retries; returns the
        pending count left after the retry tick."""
        if not self._qa:
            return len(self._pending)
        self._V[:] = decay(self._V, self._R, self._adjustment, self._floor)
        if len(self._ids):
            self._period_solve(now)
        if self._pending:
            retry, self._pending = self._pending, []
            self.market_tick(now, retry)
        return len(self._pending)

    def _period_solve(self, now: float) -> None:
        """Eq. 4 for every plane node over a free capacity of
        ``max(0, allowance - backlog)``, then the period re-arm: counts
        and latches cleared, max prices re-derived, saturation re-armed."""
        backlog = self._exec_busy - now
        _np.clip(backlog, 0.0, None, out=backlog)
        free = self._allow - backlog
        _np.clip(free, 0.0, None, out=free)
        cells = self._lane_cells
        prices = self._prices_c
        prices.flat[cells] = self._V
        optimal = self._solver.solve(slice(None), prices, free)
        planned = carry_round(optimal, self._credit if self._carry else None)
        self._R[:] = planned.flat[cells]
        self._F[:] = 0
        self._ACC[:] = 0
        market = self._market
        market.locked[:] = False
        market.maxp[:] = self._maxp_base
        _np.maximum.at(market.maxp, self._lane_rows, self._V)
        self._period_serial += 1

    # -- reporting ------------------------------------------------------------

    def reconcile_digest(self) -> Dict[str, object]:
        """Per-class price/supply digests + authoritative busy watermarks
        — the payload of one price-reconciliation barrier."""
        return {
            "prices": [
                [k, lanes.V.tolist()] for k, lanes in self._lanes.items()
            ],
            "supply": [
                [k, lanes.R.tolist()] for k, lanes in self._lanes.items()
            ],
            "busy": self._exec_busy.tolist(),
            "pending": len(self._pending),
            "assigned": self._assigned,
        }

    def collect(self) -> Dict[str, object]:
        """Outcome columns + run counters (the final-barrier payload)."""
        return {
            "columns": self._cols,
            "assigned": self._assigned,
            "exchanges": self._exchanges,
            "pending": len(self._pending),
        }


class _LocalMarketCore:
    """Worker-side front of one shard-local market plane.

    Prices, matches and executes the classes packed onto its shard.
    ``mtick``/``mboundary`` frames are one-way during the trace (posted,
    never answered — the double-buffer); ``reconcile`` and ``collect``
    are the sync points.  The same class backs every transport mode,
    codec included, so an inline run is bit-identical to a forked one.
    """

    def __init__(self, init: Mapping[str, object]) -> None:
        self._plane = _MarketPlane(init["plane"])
        #: Wall-clock seconds this core spent handling frames since the
        #: last reset — the per-shard hotspot number ``repro profile
        #: --json`` (schema v2) surfaces, since cProfile cannot see into
        #: worker processes.
        self.self_time_s = 0.0

    def handle(self, frame: Tuple) -> Mapping[str, object]:
        started = time.perf_counter()
        try:
            return self._dispatch(frame)
        finally:
            self.self_time_s += time.perf_counter() - started

    def _dispatch(self, frame: Tuple) -> Mapping[str, object]:
        op = frame[0]
        plane = self._plane
        if op == "mtick":
            now = frame[1]
            rows = []
            for payload in frame[2]:
                bid = decode(payload)
                rows.append(
                    (bid.qid, bid.class_index, bid.origin_node, now,
                     bid.attempt)
                )
            plane.market_tick(now, rows)
            return {"ok": True}
        if op == "mboundary":
            return {"pending": plane.boundary(frame[1])}
        if op == "reconcile":
            digest = dict(plane.reconcile_digest())
            digest["self_time_s"] = self.self_time_s
            return digest
        if op == "reset":
            plane.reset(bool(frame[1]))
            self.self_time_s = 0.0
            return {"ok": True}
        if op == "collect":
            reply = dict(plane.collect())
            reply["maxrss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
            reply["self_time_s"] = self.self_time_s
            return reply
        raise ValueError("unknown market-shard frame %r" % (op,))


#: Worker-core registry: ``shard_inits[i]["kind"]`` picks the class.
_CORE_KINDS = {"market": _LocalMarketCore}


def _make_core(init: Mapping[str, object]):
    return _CORE_KINDS[init.get("kind", "market")](init)


def _serve(conn, core) -> None:
    """Worker main loop over a pipe or a :class:`_WireChannel`: one
    frame in, one reply out — except ``("post", inner)`` wrappers, which
    are handled without a reply (the one-way double-buffer path: the
    coordinator keeps routing the next tick while this worker chews the
    current one)."""
    while True:
        try:
            frame = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            return
        if frame[0] == "close":
            conn.send({"ok": True})
            conn.close()
            return
        if frame[0] == "post":
            core.handle(frame[1])
            continue
        conn.send(core.handle(frame))


def _shard_worker(conn, init: Mapping[str, object]) -> None:
    """Forked pipe worker: build the core from ``init``, then serve."""
    _serve(conn, _make_core(init))


def _wire_default(obj):
    """``json.dumps`` fallback for numpy values in wire frames."""
    if isinstance(obj, _np.ndarray):
        return obj.tolist()
    if isinstance(obj, _np.generic):
        return obj.item()
    raise TypeError(
        "cannot serialise %r for the shard wire" % type(obj).__name__
    )


class _WireChannel:
    """One JSON-frame byte stream over a connected socket.

    Frames are ``json.dumps`` payloads wrapped in the protocol layer's
    length-prefix framing (:func:`repro.protocol.transport.encode_frame`
    / :class:`~repro.protocol.transport.FrameDecoder`), so both ends
    reassemble partial reads deterministically.  JSON round-trips floats
    exactly (shortest-repr), which is what keeps tcp mode bit-identical
    to pipes.  ``send``/``recv``/``poll``/``fileno``/``close`` mirror a
    pipe connection, so workers and the transport drive both alike.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque = deque()

    def send(self, obj) -> None:
        payload = json.dumps(obj, default=_wire_default).encode("utf-8")
        self._sock.sendall(encode_frame(payload))

    def recv(self):
        while not self._frames:
            data = self._sock.recv(1 << 16)
            if not data:
                raise EOFError("shard wire closed")
            self._frames.extend(self._decoder.feed(data))
        return json.loads(self._frames.popleft())

    def poll(self, timeout: float) -> bool:
        """Whether a whole frame (or EOF) arrives within ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while not self._frames:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self._sock], [], [], left)[0]:
                return False
            data = self._sock.recv(1 << 16)
            if not data:
                return True  # `recv` raises EOFError
            self._frames.extend(self._decoder.feed(data))
        return True

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _tcp_shard_worker(host: str, port: int, index: int) -> None:
    """TCP worker main loop: connect, identify, receive the init frame,
    then serve frames exactly like the pipe worker.

    The worker learns *everything* — including its shard spec — over the
    socket, so the same loop could run on another machine given only the
    coordinator's address.
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = _WireChannel(sock)
    channel.send(["hello", index])
    _serve(channel, _make_core(channel.recv()))


# -- the transport ------------------------------------------------------------

#: Seconds :meth:`ShardTransport.close` waits, over all workers together,
#: for close acks and exits before terminating whatever is still alive.
_CLOSE_TIMEOUT_S = 5.0

#: Seconds a tcp :class:`ShardTransport` waits, over all workers
#: together, for every worker to connect and say hello before it
#: terminates the pool and raises :class:`TimeoutError`.
_HANDSHAKE_TIMEOUT_S = 10.0


def _left(deadline: float) -> float:
    """Seconds until ``deadline`` (``time.monotonic`` clock), floored at 0."""
    return max(0.0, deadline - time.monotonic())


def _hello_index(hello, channels: Sequence[Optional[_WireChannel]]) -> int:
    """The shard index a tcp worker's ``["hello", i]`` frame claims.

    Anything may connect to the listener, so the frame is checked before
    it wires a channel: ``i`` must be an int in ``[0, n)`` that no
    earlier worker claimed.  Raises :class:`ValueError` otherwise.
    """
    if (
        isinstance(hello, list)
        and len(hello) == 2
        and hello[0] == "hello"
        and type(hello[1]) is int
        and 0 <= hello[1] < len(channels)
        and channels[hello[1]] is None
    ):
        return hello[1]
    raise ValueError("invalid shard hello %r" % (hello,))


class ShardTransport:
    """The sharded engine's frame transport to its shard workers.

    Not a :class:`~repro.protocol.transport.Transport`: peers are shard
    indices and the engine moves whole frames, never single protocol
    messages.  Two verbs: :meth:`post` is the one-way double-buffered
    dispatch, and :meth:`exchange` the pipelined sync barrier — all
    frames are written before any reply is read, and replies are read in
    shard order, so the merge order (and therefore every downstream
    float) never depends on worker scheduling.

    ``mode="fork"`` forks one daemon worker per shard over
    :func:`multiprocessing.Pipe`; ``mode="inline"`` runs the identical
    cores in-process (codec included) — the equivalence tests pin fork
    == inline bit-for-bit.  ``mode="tcp"`` forks the same workers but
    moves every frame as length-prefixed JSON over localhost sockets
    (the :mod:`repro.protocol.transport` framing helpers), the
    machine-spanning wire: workers receive even their shard spec over
    the socket, so only the fork itself is process-local.
    """

    def __init__(
        self, shard_inits: Sequence[Mapping[str, object]], mode: str = "fork"
    ) -> None:
        if mode not in ("fork", "inline", "tcp"):
            raise ValueError(
                "transport mode must be 'fork', 'inline' or 'tcp'"
            )
        self._mode = mode
        self._num_shards = len(shard_inits)
        #: Wall-clock milliseconds spent blocked at sync barriers
        #: (coordinator waiting on shard replies).
        self.barrier_wait_ms = 0.0
        #: One-way frames dispatched without a reply barrier (the
        #: double-buffered tick pipeline; see :meth:`post`).
        self.posted_frames = 0
        self._child_peak_kb = 0
        self._closed = False
        if mode == "fork":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self._conns = []
            self._procs = []
            for init in shard_inits:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, init),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        elif mode == "tcp":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(max(1, len(shard_inits)))
            host, port = listener.getsockname()
            self._procs = []
            for index in range(len(shard_inits)):
                proc = ctx.Process(
                    target=_tcp_shard_worker,
                    args=(host, port, index),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            channels: List[Optional[_WireChannel]] = [None] * len(
                shard_inits
            )
            accepted: List[_WireChannel] = []
            deadline = time.monotonic() + _HANDSHAKE_TIMEOUT_S
            try:
                for _ in shard_inits:
                    # Neither a worker that never connects nor a peer
                    # that never says hello may stall the handshake.
                    ready = select.select([listener], [], [], _left(deadline))
                    if not ready[0]:
                        raise TimeoutError(
                            "tcp shard handshake: %d of %d workers connected"
                            " within %.1f s"
                            % (len(accepted), len(shard_inits),
                               _HANDSHAKE_TIMEOUT_S)
                        )
                    sock, _addr = listener.accept()
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    channel = _WireChannel(sock)
                    accepted.append(channel)
                    if not channel.poll(_left(deadline)):
                        raise TimeoutError(
                            "tcp shard handshake: no hello within %.1f s"
                            % _HANDSHAKE_TIMEOUT_S
                        )
                    channels[_hello_index(channel.recv(), channels)] = channel
            except BaseException:
                # A mis-wired pool must not outlive the failed handshake.
                for channel in accepted:
                    channel.close()
                self._terminate()
                raise
            finally:
                listener.close()
            self._conns = channels
            for channel, init in zip(channels, shard_inits):
                channel.send(init)
        else:
            self._cores = [_make_core(init) for init in shard_inits]

    @property
    def num_shards(self) -> int:
        """Number of shard peers behind this transport."""
        return self._num_shards

    @property
    def mode(self) -> str:
        """``"fork"``, ``"inline"`` or ``"tcp"``."""
        return self._mode

    def exchange(
        self, frames: Sequence[Optional[Tuple]]
    ) -> List[Optional[Mapping[str, object]]]:
        """One pipelined barrier: frame *i* to shard *i*, replies in order.

        ``None`` frames skip their shard.  With workers, every frame is
        written before the first reply is read, so shards overlap their
        work; the time spent blocked on replies accumulates into
        :attr:`barrier_wait_ms`.
        """
        if self._mode == "inline":
            start = time.perf_counter()
            replies: List[Optional[Mapping[str, object]]] = [
                None if frame is None else core.handle(frame)
                for core, frame in zip(self._cores, frames)
            ]
            self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
            return replies
        conns = self._conns
        for conn, frame in zip(conns, frames):
            if frame is not None:
                conn.send(frame)
        start = time.perf_counter()
        replies = [
            None if frame is None else conn.recv()
            for conn, frame in zip(conns, frames)
        ]
        self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
        return replies

    def post(self, frames: Sequence[Optional[Tuple]]) -> None:
        """One-way dispatch: frame *i* to shard *i*, no replies read.

        The double-buffer verb: the coordinator keeps routing tick *t+1*
        while the workers chew tick *t*; OS pipe/socket buffers provide
        the backpressure.  Workers process frames strictly in arrival
        order, so any later :meth:`exchange` barrier observes every
        posted frame's effects — a sync frame *is* the pipeline flush.
        Inline mode handles the frames synchronously (same cores, no
        pipeline), preserving bit-identity across modes.
        """
        posted = 0
        if self._mode == "inline":
            for core, frame in zip(self._cores, frames):
                if frame is not None:
                    core.handle(frame)
                    posted += 1
        else:
            for conn, frame in zip(self._conns, frames):
                if frame is not None:
                    conn.send(("post", frame))
                    posted += 1
        self.posted_frames += posted

    def note_child_peak_kb(self, peak_kb: int) -> None:
        """Record the workers' peak RSS (from a collect barrier)."""
        if peak_kb > self._child_peak_kb:
            self._child_peak_kb = peak_kb

    def child_peak_kb(self) -> int:
        """Peak worker-process RSS in KiB (0 in inline mode).

        Both child-bearing modes report: forked-pipe workers *and* tcp
        workers fold their ``ru_maxrss`` through the collect barrier —
        `bench --mem` sums this into the kernel's footprint.
        """
        return self._child_peak_kb if self._mode != "inline" else 0

    def _terminate(self) -> None:
        """Kill and reap every worker still alive."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=_CLOSE_TIMEOUT_S)

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Each worker gets a ``close`` frame and, within one shared
        :data:`_CLOSE_TIMEOUT_S` budget, the chance to ack and exit; a
        worker still busy (or hung) inside an earlier frame is then
        terminated, so no child outlives the transport.
        """
        if self._closed:
            return
        self._closed = True
        if self._mode == "inline":
            return
        deadline = time.monotonic() + _CLOSE_TIMEOUT_S
        for conn in self._conns:
            try:
                # Neither leg may block: a hung worker stops draining its
                # pipe, so even the send waits for room within the budget.
                if select.select([], [conn], [], _left(deadline))[1]:
                    conn.send(("close",))
                    if conn.poll(_left(deadline)):
                        conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=_left(deadline))
        self._terminate()


# -- the merged result --------------------------------------------------------


class ShardedRunResult:
    """Outcome of one sharded run, merged across shards.

    Outcomes live as nine parallel numpy columns, globally sorted by
    ``(finish_ms, qid)`` *before* any reduction — the same array
    therefore feeds every float sum regardless of how the fleet was
    partitioned, which is what makes the summary statistics
    shard-count-invariant bit-for-bit.
    """

    def __init__(
        self,
        columns,
        dropped: int,
        messages: int,
        shards: int,
        collector: MetricsCollector,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self._columns = columns
        self._dropped = dropped
        self._messages = messages
        self._shards = shards
        self._collector = collector
        self._metrics = metrics

    @classmethod
    def from_metrics(
        cls, metrics: MetricsCollector, messages: int
    ) -> "ShardedRunResult":
        """Wrap a single-process run (the ``shards=1`` delegation)."""
        return cls(
            columns=None,
            dropped=metrics.dropped,
            messages=messages,
            shards=1,
            collector=metrics,
            metrics=metrics,
        )

    # -- summary -------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Shard count of the run (1 = single-process delegation)."""
        return self._shards

    @property
    def completed(self) -> int:
        """Queries that finished."""
        if self._metrics is not None:
            return self._metrics.completed
        return len(self._columns[0])

    @property
    def dropped(self) -> int:
        """Queries still unserved when the run ended."""
        return self._dropped

    @property
    def messages(self) -> int:
        """Protocol messages the run moved (network messages at
        ``shards=1``; codec-serialised bid requests plus two legs per
        shard reconciliation otherwise)."""
        return self._messages

    def mean_response_ms(self) -> float:
        """Average response time over the globally sorted outcomes."""
        if self._metrics is not None:
            return self._metrics.mean_response_ms()
        n = len(self._columns[0])
        if not n:
            return math.nan
        return float(_np.sum(self._columns[7] - self._columns[3])) / n

    def percentile_response_ms(self, fraction: float) -> float:
        """Response-time percentile with the collector's index rule."""
        if self._metrics is not None:
            return self._metrics.percentile_response_ms(fraction)
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        n = len(self._columns[0])
        if not n:
            return math.nan
        ordered = _np.sort(self._columns[7] - self._columns[3])
        return float(ordered[min(n - 1, int(fraction * n))])

    def batch_summary(self) -> Dict[str, float]:
        """The tick/shard counters (shard keys only on sharded runs)."""
        return self._collector.batch_summary()

    def outcome_digest(self) -> str:
        """SHA-256 over every field of every outcome, completion order.

        The exact format of ``tests/test_golden_trace._outcome_digest``
        (``%r`` shortest round-trip floats), over the
        ``(finish_ms, qid)``-sorted columns — two runs hash equal iff
        every recorded bit is equal.
        """
        import hashlib

        digest = hashlib.sha256()
        if self._metrics is not None:
            for o in self._metrics.outcomes:
                digest.update(
                    (
                        "%d,%d,%d,%r,%r,%d,%r,%r,%d;"
                        % (
                            o.qid,
                            o.class_index,
                            o.origin_node,
                            o.arrival_ms,
                            o.assigned_ms,
                            o.node_id,
                            o.start_ms,
                            o.finish_ms,
                            o.resubmissions,
                        )
                    ).encode()
                )
            return digest.hexdigest()
        # ``.tolist()`` first: ``%r`` of a numpy scalar is
        # ``np.float64(...)`` on numpy >= 2, not the bare float repr.
        cols = [c.tolist() for c in self._columns]
        for row in zip(*cols):
            digest.update(("%d,%d,%d,%r,%r,%d,%r,%r,%d;" % row).encode())
        return digest.hexdigest()

    def payload(self) -> Dict[str, object]:
        """Full golden-style payload (includes shard-dependent counters)."""
        payload = self.invariant_payload()
        payload["messages"] = self.messages
        payload["batch_summary"] = self.batch_summary()
        return payload

    def invariant_payload(self) -> Dict[str, object]:
        """The shard-count-invariant slice of :meth:`payload`.

        Message counts and shard counters legitimately change with the
        partition (bids broadcast to more shards cost more messages);
        the *market outcome* must not.  This is what the sharded golden
        pins across shard counts and ``--jobs`` settings.
        """
        return {
            "completed": self.completed,
            "dropped": self.dropped,
            "mean_response_ms": self.mean_response_ms(),
            "p99_response_ms": self.percentile_response_ms(0.99),
            "outcome_digest": self.outcome_digest(),
        }


# -- the sharded federation ---------------------------------------------------


class ShardedFederation:
    """Front of the sharded engine: owns the worker pool and the planes.

    Construction mirrors :func:`repro.sim.federation.build_federation`
    minus the allocator (the mechanism is chosen per :meth:`run`, so one
    worker pool serves qa-nt and greedy back to back — the bench kernel
    relies on this).  ``shards=1`` takes the single-process engine
    verbatim; ``shards>1`` partitions the market into ``shards`` shard
    planes plus the coordinator's residual plane, as described in the
    module docstring.  ``market`` names that layout; ``"local"`` is the
    only one.  ``reconcile_interval`` is the R of the
    price-reconciliation barrier; it never changes the market outcome.
    """

    _MECHANISMS = ("qa-nt", "greedy")

    def __init__(
        self,
        specs,
        placement,
        classes,
        cost_model,
        config: Optional[FederationConfig] = None,
        shards: int = 1,
        mode: str = "fork",
        market: str = "local",
        reconcile_interval: int = 1,
        parameters: Optional[QantParameters] = None,
        activation_threshold: Optional[float] = 2.0,
        allowance_factor: float = 2.0,
    ) -> None:
        if shards <= 0:
            raise ValueError("need at least one shard")
        if market != "local":
            raise ValueError("market must be 'local', not %r" % (market,))
        if reconcile_interval < 1:
            raise ValueError("reconcile_interval must be >= 1")
        self._reconcile_interval = int(reconcile_interval)
        #: Per-shard aggregate frame-handling self-time of the last run
        #: (filled by the collect barrier; ``repro profile --json`` v2).
        self._shard_self_time_s: List[float] = []
        self._specs = specs
        self._placement = placement
        self._classes = classes
        self._cost_model = cost_model
        self._config = config or FederationConfig()
        self._shards = shards
        self._params = parameters or QantParameters()
        self._threshold = activation_threshold
        self._allowance_factor = allowance_factor
        self._transport: Optional[ShardTransport] = None
        if shards == 1:
            self._plan = None
            return
        candidates_by_class = {
            qc.index: tuple(sorted(qc.candidate_nodes(placement)))
            for qc in classes
        }
        node_ids = list(placement.node_ids)
        self._plan = plan_shards(candidates_by_class, node_ids, shards)
        num_classes = len(classes)
        # Per class, the candidate lanes and their costs (the quote
        # mirror's view); per node, the full cost row the planes load.
        self._cand: Dict[int, object] = {}
        self._lane_costs: Dict[int, object] = {}
        cost_rows: Dict[int, List[float]] = {
            nid: [math.inf] * num_classes for nid in node_ids
        }
        for qc in classes:
            cand = candidates_by_class[qc.index]
            costs = [
                cost_model.execution_time_ms(qc, specs[nid]) for nid in cand
            ]
            self._cand[qc.index] = _np.array(cand, dtype=_np.int64)
            self._lane_costs[qc.index] = _np.array(costs, dtype=float)
            for nid, cost in zip(cand, costs):
                cost_rows[nid][qc.index] = cost
        # Per-node allowance: one period of capacity plus headroom for
        # the costliest class the node can evaluate (the single-process
        # engine's allowance rule).
        allowance_by_node: Dict[int, float] = {}
        for nid in node_ids:
            finite = [c for c in cost_rows[nid] if not math.isinf(c)]
            allowance_by_node[nid] = (
                self._config.period_ms
                + allowance_factor * max(finite, default=0.0)
            )
        shard_inits = self._build_planes(
            candidates_by_class, cost_rows, allowance_by_node, num_classes
        )
        # Cross-shard quote mirror: refreshed by every reconciliation
        # barrier, read by :meth:`stale_quotes` — never by the market
        # arithmetic itself (exactness does not depend on R).
        self._mirror_busy = _np.zeros(len(node_ids), dtype=float)
        self._mirror_V: Dict[int, List[float]] = {}
        self._mirror_R: Dict[int, List[float]] = {}
        self._reconcile_barriers = 0
        self._reconcile_lag_max = 0
        self._staleness_max = 0.0
        self._boundaries_since_reconcile = 0
        self._transport = ShardTransport(shard_inits, mode=mode)

    def _build_planes(
        self,
        candidates_by_class: Mapping[int, Sequence[int]],
        cost_rows: Mapping[int, List[float]],
        allowance_by_node: Mapping[int, float],
        num_classes: int,
    ) -> List[Dict[str, object]]:
        """Partition the market into shard planes + the residual plane.

        Ownership is decided per affinity *component* (classes coupled
        by a shared bidder must share one plane's latch/busy state), via
        :func:`split_market_classes`.  Shard-owned components become one
        JSON-safe ``_MarketPlane`` init per shard; split components form
        the coordinator's in-process residual plane.  Candidate tuples
        keep their global ascending order, so every plane's lanes (and
        argmin tie-breaks) match one global market's.
        """
        self._owner = split_market_classes(candidates_by_class, self._plan)
        plane_classes: List[List[int]] = [[] for _ in range(self._shards)]
        residual_classes: List[int] = []
        for k in sorted(self._owner):
            s = self._owner[k]
            if s >= 0:
                plane_classes[s].append(k)
            else:
                residual_classes.append(k)
        self._plane_classes = plane_classes
        self._residual_classes = residual_classes
        self._active_plane = [bool(ks) for ks in plane_classes]
        params = self._params

        def plane_init(class_indices: Sequence[int]) -> Dict[str, object]:
            nodes = sorted(
                {
                    nid
                    for k in class_indices
                    for nid in candidates_by_class[k]
                }
            )
            return {
                "node_ids": nodes,
                "num_classes": num_classes,
                "costs": [cost_rows[nid] for nid in nodes],
                "allowances": [allowance_by_node[nid] for nid in nodes],
                "latency_seeds": [
                    derive_shard_seed(
                        self._config.seed, ("shard-node-latency", nid)
                    )
                    for nid in nodes
                ],
                "base_ms": self._config.latency.base_ms,
                "jitter_ms": self._config.latency.jitter_ms,
                "floor": params.price_floor,
                "cap": params.price_cap,
                "adjustment": params.adjustment,
                "supply_method": params.supply_method,
                "carry_over": params.carry_over,
                "threshold": self._threshold,
                "classes": [
                    [k, list(candidates_by_class[k])] for k in class_indices
                ],
            }

        inits = [plane_init(ks) for ks in plane_classes]
        self._plane_nodes = [list(init["node_ids"]) for init in inits]
        self._residual = _MarketPlane(plane_init(residual_classes))
        return [{"kind": "market", "plane": init} for init in inits]

    # -- lifecycle -----------------------------------------------------------

    @property
    def plan(self) -> Optional[ShardPlan]:
        """The node partition (None at ``shards=1``)."""
        return self._plan

    @property
    def transport(self) -> Optional[ShardTransport]:
        """The shard transport (None at ``shards=1``)."""
        return self._transport

    def close(self) -> None:
        """Shut the worker pool down (safe to call twice)."""
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "ShardedFederation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- driving -------------------------------------------------------------

    def run(self, trace, mechanism: str = "qa-nt") -> ShardedRunResult:
        """Execute ``trace`` under ``mechanism`` and merge the outcomes."""
        if mechanism not in self._MECHANISMS:
            raise ValueError(
                "sharded federations support %s, not %r"
                % ("/".join(self._MECHANISMS), mechanism)
            )
        if not trace:
            raise ValueError("cannot run an empty workload trace")
        if self._shards == 1:
            return self._run_single(trace, mechanism)
        return self._run_planes(trace, mechanism)

    def _run_single(self, trace, mechanism: str) -> ShardedRunResult:
        """The ``shards=1`` delegation: literally the one-process engine."""
        metrics, messages = run_single_mechanism(
            self._specs,
            self._placement,
            self._classes,
            self._cost_model,
            trace,
            mechanism,
            self._config,
            parameters=self._params,
            activation_threshold=self._threshold,
            allowance_factor=self._allowance_factor,
        )
        return ShardedRunResult.from_metrics(metrics, messages)

    # -- the plane coordinator ------------------------------------------------

    def _run_planes(self, trace, mechanism: str) -> ShardedRunResult:
        """The ``shards>1`` engine: route, post, reconcile, merge.

        The coordinator here is *slim*: it owns a routing table and the
        residual plane (components split across shards); every
        shard-owned class is priced, matched and executed entirely
        shard-side from one-way ``mtick`` frames of encoded
        ``BidRequest`` payloads — the double-buffered pipeline.  Every R
        period boundaries a sync reconciliation barrier pulls per-class
        price/supply digests and busy watermarks back into the
        cross-shard quote mirror (and flushes the pipeline).  Outcomes
        merge globally sorted by ``(finish_ms, qid)`` before any
        reduction.
        """
        transport = self._transport
        qa = mechanism == "qa-nt"
        collector = MetricsCollector()
        self._messages = 0
        residual_queries = 0
        transport.barrier_wait_ms = 0.0
        transport.posted_frames = 0
        transport.exchange([("reset", qa)] * self._plan.num_shards)
        self._residual.reset(qa)
        self._mirror_busy[:] = 0.0
        self._mirror_V = {}
        self._mirror_R = {}
        self._reconcile_barriers = 0
        self._reconcile_lag_max = 0
        self._staleness_max = 0.0
        self._boundaries_since_reconcile = 0
        if any(
            trace[i].time_ms > trace[i + 1].time_ms
            for i in range(len(trace) - 1)
        ):
            trace = sorted(trace, key=lambda e: e.time_ms)
        horizon = max(e.time_ms for e in trace)
        period = self._config.period_ms
        next_boundary = period
        qid = 0
        owner = self._owner
        num_shards = self._plan.num_shards
        i, total = 0, len(trace)
        while i < total:
            t = trace[i].time_ms
            j = i
            while j < total and trace[j].time_ms == t:
                j += 1
            # The single-process engine schedules the period tick ahead
            # of same-timestamp arrivals; boundary-first matches it.
            while qa and next_boundary <= t:
                self._period_boundary(next_boundary)
                next_boundary += period
            batch = trace[i:j]
            collector.record_batch_tick(len(batch))
            per_shard: List[List[Tuple]] = [[] for _ in range(num_shards)]
            residual_rows: List[Tuple] = []
            for n, e in enumerate(batch):
                k = e.class_index
                row = (qid + n, k, e.origin_node, t, 0)
                s = owner.get(k, -1)
                if s >= 0:
                    per_shard[s].append(row)
                else:
                    residual_rows.append(row)
            qid += len(batch)
            frames: List[Optional[Tuple]] = [None] * num_shards
            for s, rows_s in enumerate(per_shard):
                if rows_s:
                    payloads = [
                        encode(
                            BidRequest(
                                qid=r[0],
                                class_index=r[1],
                                origin_node=r[2],
                                attempt=r[4],
                            )
                        )
                        for r in rows_s
                    ]
                    frames[s] = ("mtick", t, payloads)
                    self._messages += len(payloads)
            if any(frame is not None for frame in frames):
                transport.post(frames)
            if residual_rows:
                residual_queries += len(residual_rows)
                self._residual.market_tick(t, residual_rows)
            i = j
        # Drain: a sync reconcile flushes the pipeline and reports every
        # plane's backlog; boundaries then tick while any plane still
        # holds pending queries (shard retries run autonomously — the
        # sync mboundary reply is just the pending count).
        end_of_run = horizon + self._config.drain_ms
        if qa:
            pendings = self._reconcile()
            global_pending = self._residual.pending_count + sum(pendings)
            while global_pending and next_boundary <= end_of_run:
                replies = transport.exchange(
                    [
                        ("mboundary", next_boundary) if active else None
                        for active in self._active_plane
                    ]
                )
                shard_pending = sum(
                    reply["pending"]
                    for reply in replies
                    if reply is not None
                )
                res_pending = self._residual.boundary(next_boundary)
                global_pending = shard_pending + res_pending
                next_boundary += period
        # Final collect barrier: outcome columns, worker RSS, self-time.
        replies = transport.exchange([("collect",)] * num_shards)
        cols = [[] for _ in range(9)]
        assigned_per_shard = []
        self_times = []
        exchanges = self._residual.exchanges
        dropped = self._residual.pending_count
        peak_kb = 0
        for reply in replies:
            for c, part in zip(cols, reply["columns"]):
                c.extend(part)
            assigned_per_shard.append(reply["assigned"])
            exchanges += reply["exchanges"]
            dropped += reply["pending"]
            self_times.append(float(reply.get("self_time_s", 0.0)))
            if reply["maxrss_kb"] > peak_kb:
                peak_kb = reply["maxrss_kb"]
        for c, part in zip(cols, self._residual.collect()["columns"]):
            c.extend(part)
        transport.note_child_peak_kb(peak_kb)
        self._shard_self_time_s = self_times
        int_cols = (0, 1, 2, 5, 8)
        columns = [
            _np.array(c, dtype=_np.int64 if n in int_cols else float)
            for n, c in enumerate(cols)
        ]
        order = _np.lexsort((columns[0], columns[7]))
        columns = [c[order] for c in columns]
        total_assigned = sum(assigned_per_shard)
        imbalance = 1.0
        if assigned_per_shard and total_assigned:
            imbalance = max(assigned_per_shard) / (
                total_assigned / len(assigned_per_shard)
            )
        collector.apply_batch_stats(vector_exchanges=exchanges)
        collector.apply_shard_stats(
            cross_shard_bids=residual_queries,
            barrier_wait_ms=transport.barrier_wait_ms,
            shard_imbalance=imbalance,
            shards=num_shards,
            reconcile_barriers=self._reconcile_barriers,
            reconcile_interval=self._reconcile_interval,
            reconcile_lag_ticks_max=self._reconcile_lag_max,
            price_staleness_max=self._staleness_max,
            overlapped_frames=transport.posted_frames,
            local_classes=sum(len(ks) for ks in self._plane_classes),
            residual_classes=len(self._residual_classes),
        )
        return ShardedRunResult(
            columns=columns,
            dropped=dropped,
            messages=self._messages,
            shards=num_shards,
            collector=collector,
        )

    def _period_boundary(self, now: float) -> None:
        """One period boundary: posted to every active plane (one-way),
        run in-process on the residual plane, reconciled every R-th."""
        self._transport.post(
            [
                ("mboundary", now) if active else None
                for active in self._active_plane
            ]
        )
        self._residual.boundary(now)
        self._boundaries_since_reconcile += 1
        if self._boundaries_since_reconcile >= self._reconcile_interval:
            self._reconcile()

    def _reconcile(self) -> List[int]:
        """The price-reconciliation barrier (sync).

        Pulls each active plane's per-class price/supply digest and busy
        watermarks into the coordinator's mirror, folds the residual
        plane's digest on the same cadence, and returns the per-shard
        pending counts.  Because workers process frames in order, this
        barrier also proves every previously posted one-way frame has
        been applied — it *is* the pipeline flush.
        """
        replies = self._transport.exchange(
            [
                ("reconcile",) if active else None
                for active in self._active_plane
            ]
        )
        if self._boundaries_since_reconcile > self._reconcile_lag_max:
            self._reconcile_lag_max = self._boundaries_since_reconcile
        self._boundaries_since_reconcile = 0
        pendings: List[int] = []
        digests: List[Tuple[Sequence[int], Mapping[str, object]]] = []
        for s, reply in enumerate(replies):
            if reply is None:
                pendings.append(0)
                continue
            pendings.append(int(reply["pending"]))
            digests.append((self._plane_nodes[s], reply))
            self._messages += 2
        digests.append(
            (self._residual.node_ids, self._residual.reconcile_digest())
        )
        staleness = self._staleness_max
        for nodes, digest in digests:
            for k, vals in digest["prices"]:
                old = self._mirror_V.get(k)
                if old is not None:
                    for a, b in zip(old, vals):
                        d = abs(b - a)
                        if d > staleness:
                            staleness = d
                self._mirror_V[int(k)] = [float(v) for v in vals]
            for k, vals in digest["supply"]:
                self._mirror_R[int(k)] = [float(v) for v in vals]
            busy = self._mirror_busy
            for nid, b in zip(nodes, digest["busy"]):
                busy[nid] = b
        self._staleness_max = staleness
        self._reconcile_barriers += 1
        return pendings

    # -- cross-shard visibility ------------------------------------------------

    def stale_quotes(
        self, class_index: int, now: float = 0.0
    ) -> List[Tuple[int, float]]:
        """Bounded-staleness quotes for ``class_index`` from the mirror.

        ``(node_id, estimated_completion_ms)`` per candidate lane,
        computed from the busy watermarks of the *last reconciliation
        barrier* — at most R period boundaries old.  This is the
        cross-shard view a remote matcher would price against; the
        market arithmetic itself never reads it (exactness does not
        depend on R).
        """
        if self._plan is None:
            raise RuntimeError("stale quotes require a sharded federation")
        cand = self._cand[class_index]
        est = _np.maximum(self._mirror_busy[cand], now)
        est = est + self._lane_costs[class_index]
        return [
            (int(nid), float(e))
            for nid, e in zip(cand.tolist(), est.tolist())
        ]

    def stale_prices(self, class_index: int) -> Optional[List[float]]:
        """Per-lane prices of ``class_index`` as of the last barrier
        (None before the first reconciliation)."""
        if self._plan is None:
            raise RuntimeError("stale prices require a sharded federation")
        vals = self._mirror_V.get(class_index)
        return None if vals is None else list(vals)

    def shard_self_time_s(self) -> List[float]:
        """Per-shard aggregate frame-handling self-time of the last run
        (seconds, fixed shard order; empty before any sharded run)."""
        return list(self._shard_self_time_s)
