"""Sharded federation: partitioning, determinism, goldens, transport.

Three properties carry the whole design (see DESIGN.md §7):

* ``shards=1`` is *byte-identical* to the single-process engine — the
  sharded front delegates outright, so every existing golden keeps
  pinning it;
* ``shards>1`` is *invariant* across shard counts, worker modes and
  reconciliation intervals — each affinity component prices inside one
  market plane, and per-node state (latency RNG streams, busy clocks)
  is keyed by node id, never by shard layout;
* arrivals reach their plane as real protocol traffic — encoded
  ``BidRequest`` messages through the ``repro.protocol`` codec, inside
  ``ShardTransport`` frames.
"""

import functools
import json
import multiprocessing
import pathlib
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation import GreedyAllocator, QantAllocator
from repro.core.qant import QantParameters
from repro.experiments.scaling import (
    quantise_trace,
    reconcile_scaling_cell,
    sharded_scaling_cell,
)
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.sim import (
    FederationConfig,
    MetricsCollector,
    ShardedFederation,
    ShardTransport,
    derive_shard_seed,
    plan_shards,
    split_market_classes,
)
from repro.sim import shards as shards_module
from repro.sim.faults import derive_fault_seed
from repro.sim.shards import _CORE_KINDS, _hello_index, _WireChannel
from repro.workload.trace import zipf_trace

from test_golden_trace import _outcome_digest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _small_world():
    world = two_query_world(num_nodes=30, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=2_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    return world, trace


def _sharded(world, shards, mode="inline", interval=1):
    return ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=2),
        shards=shards,
        mode=mode,
        reconcile_interval=interval,
    )


# ---------------------------------------------------------------------------
# partitioner


def test_derive_shard_seed_matches_fault_scheme():
    """Shard RNG seeds reuse the fault layer's sha256 derivation."""
    assert derive_shard_seed(7, ("shard-node-latency", 3)) == derive_fault_seed(
        7, ("shard-node-latency", 3)
    )
    assert derive_shard_seed(7, ("a",)) != derive_shard_seed(8, ("a",))


def test_plan_shards_groups_overlapping_bidder_sets():
    """Classes whose bidder sets overlap land on one shard (affinity)."""
    candidates = {0: (0, 1, 2), 1: (2, 3), 2: (5, 6)}
    plan = plan_shards(candidates, node_ids=range(8), num_shards=2)
    shard_of = plan.node_to_shard
    # 0-3 share classes 0/1 transitively; 5-6 share class 2.
    assert len({shard_of[n] for n in (0, 1, 2, 3)}) == 1
    assert len({shard_of[n] for n in (5, 6)}) == 1
    # Every node is placed exactly once.
    placed = [n for shard in plan.shard_nodes for n in shard]
    assert sorted(placed) == list(range(8))


def test_plan_shards_is_deterministic_and_balanced():
    candidates = {k: tuple(range(k, k + 3)) for k in range(0, 30, 3)}
    a = plan_shards(candidates, range(40), 4)
    b = plan_shards(candidates, range(40), 4)
    assert a == b
    sizes = [len(shard) for shard in a.shard_nodes]
    assert max(sizes) - min(sizes) <= 1
    assert a.imbalance() >= 1.0


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ValueError):
        plan_shards({}, range(4), 0)
    with pytest.raises(ValueError):
        plan_shards({}, range(4), 5)


# ---------------------------------------------------------------------------
# shards=1 — byte identity with the single-process engine


def test_shards1_byte_identical_to_single_process():
    world, trace = _small_world()
    for mechanism, factory in (
        ("qa-nt", QantAllocator),
        ("greedy", GreedyAllocator),
    ):
        direct = run_mechanism(
            world, trace, mechanism, factory, FederationConfig(seed=2)
        )
        result = _sharded(world, shards=1).run(trace, mechanism)
        assert result.outcome_digest() == _outcome_digest(
            direct.metrics.outcomes
        )
        assert result.completed == direct.metrics.completed
        assert result.messages == direct.messages
        assert result.mean_response_ms() == pytest.approx(
            direct.metrics.mean_response_ms(), abs=0.0
        )


# ---------------------------------------------------------------------------
# shards>1 — invariance across shard counts and worker modes


def test_invariant_payload_across_shard_counts_and_modes():
    """The sharded market's decisions do not depend on the partition.

    Inline vs fork pins the wire codec round trip (inline shards speak
    the same encoded frames); 2 vs 3 shards pins the merge order and the
    node-keyed RNG streams.
    """
    world, trace = _small_world()
    for mechanism in ("qa-nt", "greedy"):
        payloads = []
        for shards, mode in ((2, "inline"), (3, "inline"), (2, "fork")):
            with _sharded(world, shards, mode) as federation:
                payloads.append(
                    federation.run(trace, mechanism).invariant_payload()
                )
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["completed"] > 0


def test_rerun_on_same_federation_is_identical():
    """Worker reuse across runs must not leak state between runs."""
    world, trace = _small_world()
    with _sharded(world, 2, "fork") as federation:
        first = federation.run(trace, "qa-nt").invariant_payload()
        second = federation.run(trace, "qa-nt").invariant_payload()
    assert first == second


def test_shard_counters_surface_in_batch_summary():
    world, trace = _small_world()
    with _sharded(world, 2) as federation:
        summary = federation.run(trace, "qa-nt").batch_summary()
    assert summary["shards"] == 2.0
    assert summary["cross_shard_bids"] > 0
    assert summary["barrier_wait_ms"] >= 0.0
    assert summary["shard_imbalance"] >= 1.0
    # The single-process path must NOT grow these keys: existing goldens
    # serialise batch_summary() and would break.
    single = MetricsCollector().batch_summary()
    for key in ("cross_shard_bids", "barrier_wait_ms", "shard_imbalance"):
        assert key not in single


# ---------------------------------------------------------------------------
# the 1,000-node golden (shard-count/jobs invariant by construction)


def _sharded_1000node_payload(shards: int, mode: str) -> str:
    world = two_query_world(num_nodes=1_000, seed=0)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.5,
            horizon_ms=2_000.0,
            frequency_hz=0.05,
            seed=10,
        ),
        25.0,
    )
    payload = {}
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=2),
        shards=shards,
        mode=mode,
    ) as federation:
        for mechanism in ("qa-nt", "greedy"):
            payload[mechanism] = federation.run(
                trace, mechanism
            ).invariant_payload()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_sharded_1000node_matches_golden():
    """The 4-shard forked 1,000-node pair reproduces the stored payload."""
    assert _sharded_1000node_payload(4, "fork") == (
        GOLDEN_DIR / "sharded_1000node_seed0.json"
    ).read_text()


@pytest.mark.slow
def test_sharded_1000node_golden_is_shard_count_invariant():
    """The same golden re-verifies at a different shard count and mode —
    the "identical across --jobs/shard-count re-runs" acceptance pin."""
    assert _sharded_1000node_payload(2, "inline") == (
        GOLDEN_DIR / "sharded_1000node_seed0.json"
    ).read_text()


# ---------------------------------------------------------------------------
# transport


def test_sharded_scaling_cell_shape():
    payload = sharded_scaling_cell(
        "qa-nt", 2, 0, 0, num_nodes=30, mode="inline"
    )
    for key in (
        "shards",
        "completed",
        "wall_ms",
        "cross_shard_bids",
        "shard_imbalance",
    ):
        assert key in payload
    assert payload["shards"] == 2.0
    # The shards=1 origin delegates to the single-process engine; the
    # sweep aggregator indexes every cell by one uniform key set, so the
    # origin must carry (zeroed) shard counters too.  (Its *metrics* are
    # the legacy engine's, not the tick-barrier plane's — invariance
    # across counts holds among the multi-process points, shards >= 2.)
    origin = sharded_scaling_cell(
        "qa-nt", 1, 0, 0, num_nodes=30, mode="inline"
    )
    assert set(origin) == set(payload)
    assert origin["shards"] == 1.0
    assert origin["cross_shard_bids"] == 0.0
    assert origin["barrier_wait_ms"] == 0.0
    assert origin["shard_imbalance"] == 1.0


# ---------------------------------------------------------------------------
# local market planes — ownership, exactness, reconciliation


@functools.lru_cache(maxsize=1)
def _zipf_small():
    """The affinity-rich local-market fixture: most classes shard-local."""
    world = zipf_world(num_nodes=50, num_classes=20, seed=0)
    trace = tuple(
        zipf_trace(
            20,
            mean_interarrival_ms=120.0,
            horizon_ms=60_000.0,
            origin_nodes=list(world.placement.node_ids),
            max_queries=400,
            seed=10,
        )
    )
    return world, trace


@functools.lru_cache(maxsize=4)
def _local_baseline(mechanism: str):
    """Canonical invariant payload: 2 inline shards, reconcile every tick."""
    world, trace = _zipf_small()
    with _sharded(world, 2, "inline", 1) as federation:
        return federation.run(list(trace), mechanism).invariant_payload()


def test_split_market_classes_component_granular():
    """Ownership is decided per affinity component, never per class."""
    candidates = {0: (0, 1), 1: (1, 2), 2: (5, 6), 3: (7,)}
    plan = plan_shards(candidates, node_ids=range(8), num_shards=2)
    owner = split_market_classes(candidates, plan)
    assert set(owner) == {0, 1, 2, 3}
    shard_of = plan.node_to_shard
    # Classes 0 and 1 share node 1: one component, one verdict for both.
    assert owner[0] == owner[1]
    for k, cand in candidates.items():
        shards_touched = {shard_of[n] for n in cand}
        if owner[k] >= 0:
            assert shards_touched == {owner[k]}
        else:
            assert len(shards_touched) > 1


def test_market_layout_other_than_local_is_rejected():
    """Shard-local planes are the only sharded engine."""
    world, __ = _small_world()
    for market in ("coordinator", "global"):
        with pytest.raises(ValueError, match="market"):
            ShardedFederation(
                world.specs,
                world.placement,
                world.classes,
                world.cost_model,
                shards=2,
                mode="inline",
                market=market,
            )


#: Supply configurations the planes must honour (every batched eq. 4
#: method, carry-over on and off).
SUPPLY_VARIANTS = {
    "proportional": QantParameters(),
    "proportional-nocarry": QantParameters(carry_over=False),
    "greedy": QantParameters(supply_method="greedy"),
    "greedy-fractional": QantParameters(supply_method="greedy-fractional"),
    "fractional": QantParameters(supply_method="fractional"),
}


def _supply_payload(name: str, shards: int, mode: str) -> str:
    world, trace = _zipf_small()
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=2),
        shards=shards,
        mode=mode,
        parameters=SUPPLY_VARIANTS[name],
    ) as federation:
        payload = federation.run(list(trace), "qa-nt").invariant_payload()
    return json.dumps(payload, sort_keys=True)


def test_planes_honour_supply_parameters():
    """Each supply method and carry-over setting runs its own eq. 4 on
    the planes, so every configuration reaches a different outcome."""
    payloads = {
        name: _supply_payload(name, 2, "inline") for name in SUPPLY_VARIANTS
    }
    assert len(set(payloads.values())) == len(SUPPLY_VARIANTS)
    assert payloads["proportional"] == json.dumps(
        _local_baseline("qa-nt"), sort_keys=True
    )


@pytest.mark.parametrize("name", sorted(SUPPLY_VARIANTS))
def test_supply_parameters_are_shard_and_mode_invariant(name):
    reference = _supply_payload(name, 2, "inline")
    for shards in (2, 4):
        for mode in ("inline", "fork"):
            assert _supply_payload(name, shards, mode) == reference


def test_exact_supply_is_rejected_by_planes():
    """The knapsack DP has no batched form; planes refuse it up front
    (``shards=1`` keeps running it on the scalar path)."""
    world, __ = _zipf_small()
    with pytest.raises(ValueError, match="exact"):
        ShardedFederation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            shards=2,
            mode="fork",
            parameters=QantParameters(supply_method="exact"),
        )
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", ["inline", "fork", "tcp"])
def test_local_market_invariant_across_transport_modes(mode):
    """Pipe, socket and inline planes make identical decisions — the tcp
    leg pins the JSON-frame wire's float round-trip on every CI run."""
    world, trace = _zipf_small()
    with _sharded(world, 2, mode, interval=4) as federation:
        payload = federation.run(list(trace), "qa-nt").invariant_payload()
    assert payload == _local_baseline("qa-nt")
    assert payload["completed"] > 0


@given(
    shards=st.sampled_from([2, 4, 8]),
    mode=st.sampled_from(["inline", "fork", "tcp"]),
    interval=st.sampled_from([1, 4, 16]),
    mechanism=st.sampled_from(["qa-nt", "greedy"]),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_local_market_invariance_property(shards, mode, interval, mechanism):
    """Invariant payload is identical across shard counts, transport
    modes and reconciliation intervals: reconciliation bounds *quote*
    staleness for cross-shard observers, never market arithmetic."""
    world, trace = _zipf_small()
    with _sharded(world, shards, mode, interval) as federation:
        payload = federation.run(list(trace), mechanism).invariant_payload()
    assert payload == _local_baseline(mechanism)


def test_reconcile_counters_surface_in_batch_summary():
    world, trace = _zipf_small()
    with _sharded(world, 2, "inline", interval=4) as federation:
        summary = federation.run(list(trace), "qa-nt").batch_summary()
    assert summary["reconcile_interval"] == 4.0
    assert summary["reconcile_barriers"] >= 1.0
    assert 1.0 <= summary["reconcile_lag_ticks_max"] <= 4.0
    assert summary["price_staleness_max"] >= 0.0
    assert summary["overlapped_frames"] > 0.0
    assert summary["local_classes"] > 0.0
    assert summary["local_classes"] + summary["residual_classes"] == 20.0
    # Single-process runs must NOT grow these keys: their goldens
    # serialise batch_summary() and would break.
    with _sharded(world, 1) as federation:
        single = federation.run(list(trace), "qa-nt").batch_summary()
    for key in ("reconcile_barriers", "price_staleness_max"):
        assert key not in single
        assert key not in MetricsCollector().batch_summary()


def test_stale_quotes_and_prices_from_last_barrier():
    world, trace = _zipf_small()
    with _sharded(world, 2, "inline", interval=4) as federation:
        federation.run(list(trace), "qa-nt")
        candidates = sorted(world.classes[0].candidate_nodes(world.placement))
        quotes = federation.stale_quotes(0, now=0.0)
        assert [nid for nid, __ in quotes] == candidates
        assert all(est >= 0.0 for __, est in quotes)
        prices = federation.stale_prices(0)
        assert prices is not None and len(prices) == len(candidates)
    # The bounded-staleness mirror only exists on sharded fronts.
    with _sharded(world, 1) as federation:
        with pytest.raises(RuntimeError):
            federation.stale_quotes(0)
        with pytest.raises(RuntimeError):
            federation.stale_prices(0)


def test_shard_self_time_feeds_profile_schema_v2():
    from repro.profiling import read_profile_payload

    world, trace = _zipf_small()
    with _sharded(world, 2, "fork", interval=4) as federation:
        federation.run(list(trace), "qa-nt")
        times = federation.shard_self_time_s()
    assert len(times) == 2
    assert all(t >= 0.0 for t in times)
    assert sum(times) > 0.0
    # v1 payloads stay readable; v2 keeps the shards section.
    v1 = {"schema_version": 1, "kind": "profile", "rows": []}
    assert read_profile_payload(v1)["shards"] == []


def test_tcp_workers_report_child_rss():
    """`bench --mem` coverage for socket workers: the collect barrier
    folds every tcp child's ru_maxrss into ``child_peak_kb()``."""
    world, trace = _zipf_small()
    with _sharded(world, 2, "tcp", interval=4) as federation:
        federation.run(list(trace), "qa-nt")
        transport = federation.transport
        assert transport.child_peak_kb() > 0
        def fn():
            return None

        fn.child_peak_kb = transport.child_peak_kb
        from repro.bench.harness import measure_peak

        assert measure_peak(fn) >= transport.child_peak_kb()


# ---------------------------------------------------------------------------
# frame ordering under scripted worker delays


class _SleepyEchoCore:
    """Scripted-delay worker double: answers any frame with its own
    identity after sleeping its scripted delay."""

    def __init__(self, init):
        self._ident = int(init["ident"])
        self._delay_s = float(init["delay_s"])

    def handle(self, frame):
        time.sleep(self._delay_s)
        return {"ident": self._ident, "echo": frame[1]}


@pytest.fixture
def sleepy_kind():
    _CORE_KINDS["test-sleepy"] = _SleepyEchoCore
    yield "test-sleepy"
    del _CORE_KINDS["test-sleepy"]


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_out_of_order_replies_keep_fixed_shard_merge(mode, sleepy_kind):
    """A slow shard 0 lets shard 1's reply reach the coordinator first;
    the exchange barrier must still return replies in shard order."""
    inits = [
        {"kind": sleepy_kind, "ident": 0, "delay_s": 0.25},
        {"kind": sleepy_kind, "ident": 1, "delay_s": 0.0},
    ]
    transport = ShardTransport(inits, mode=mode)
    try:
        started = time.perf_counter()
        replies = transport.exchange([("ping", "a"), ("ping", "b")])
        elapsed = time.perf_counter() - started
        assert [(r["ident"], r["echo"]) for r in replies] == [
            (0, "a"),
            (1, "b"),
        ]
        # Both frames were in flight together: the barrier costs
        # max(delays), not their sum (double-buffering's guarantee).
        assert elapsed < 2 * 0.25
    finally:
        transport.close()


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_close_bounds_a_hung_worker_and_reaps_it(
    mode, sleepy_kind, monkeypatch
):
    """A worker stuck inside a posted frame never acks ``close``: the
    transport gives up after its close budget and terminates it."""
    monkeypatch.setattr(shards_module, "_CLOSE_TIMEOUT_S", 0.5)
    inits = [
        {"kind": sleepy_kind, "ident": 0, "delay_s": 60.0},
        {"kind": sleepy_kind, "ident": 1, "delay_s": 0.0},
    ]
    transport = ShardTransport(inits, mode=mode)
    transport.post([("hang", None), ("work", None)])
    started = time.perf_counter()
    transport.close()
    assert time.perf_counter() - started < 0.5 + 2.0
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# tcp handshake validation


@pytest.mark.parametrize(
    "hello",
    [
        ["hello", 2],
        ["hello", -1],
        ["hello", 0],
        ["hello", "1"],
        ["hello", True],
        ["hi", 1],
        ["hello"],
        {"hello": 1},
    ],
)
def test_hello_index_rejects_bad_claims(hello):
    """Out-of-range, negative, duplicate or malformed claims never wire."""
    claimed = [object(), None]  # shard 0 is already taken
    with pytest.raises(ValueError, match="hello"):
        _hello_index(hello, claimed)
    assert _hello_index(["hello", 1], claimed) == 1


def _impostor_tcp_worker(host, port, index):
    """A tcp worker that claims shard 0 whatever its real index."""
    channel = _WireChannel(socket.create_connection((host, port)))
    channel.send(["hello", 0])
    try:
        channel.recv()
    except (EOFError, OSError):
        pass


def test_tcp_duplicate_hello_fails_fast_and_reaps_workers(monkeypatch):
    monkeypatch.setattr(
        shards_module, "_tcp_shard_worker", _impostor_tcp_worker
    )
    started = time.perf_counter()
    with pytest.raises(ValueError, match="hello"):
        ShardTransport([{}, {}], mode="tcp")
    assert time.perf_counter() - started < 5.0
    assert multiprocessing.active_children() == []


def _vanishing_tcp_worker(host, port, index):
    """A tcp worker that exits before it ever connects."""


def _silent_tcp_worker(host, port, index):
    """A tcp worker that connects and never says hello."""
    sock = socket.create_connection((host, port))
    time.sleep(60.0)
    sock.close()


@pytest.mark.parametrize(
    "worker, match",
    [
        (_vanishing_tcp_worker, "0 of 2 workers connected"),
        (_silent_tcp_worker, "no hello"),
    ],
)
def test_tcp_handshake_is_bounded_and_reaps_workers(
    worker, match, monkeypatch
):
    """A worker that dies before connecting, or a peer that never says
    hello, fails the handshake within its budget; no child survives."""
    monkeypatch.setattr(shards_module, "_HANDSHAKE_TIMEOUT_S", 0.5)
    monkeypatch.setattr(shards_module, "_tcp_shard_worker", worker)
    started = time.perf_counter()
    with pytest.raises(TimeoutError, match=match):
        ShardTransport([{}, {}], mode="tcp")
    assert time.perf_counter() - started < 0.5 + 2.0
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the local-market golden (shard/mode/R invariant by construction)


def _localmarket_zipf_payload(shards: int, mode: str, interval: int) -> str:
    world, trace = _zipf_small()
    payload = {}
    with _sharded(world, shards, mode, interval) as federation:
        for mechanism in ("qa-nt", "greedy"):
            payload[mechanism] = federation.run(
                list(trace), mechanism
            ).invariant_payload()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_localmarket_zipf_matches_golden():
    """The 4-shard forked R=4 Zipf pair reproduces the stored payload."""
    assert _localmarket_zipf_payload(4, "fork", 4) == (
        GOLDEN_DIR / "localmarket_zipf_seed0.json"
    ).read_text()


@pytest.mark.slow
def test_localmarket_golden_is_config_invariant():
    """The same golden re-verifies over sockets at a different shard
    count and reconciliation cadence."""
    assert _localmarket_zipf_payload(2, "tcp", 16) == (
        GOLDEN_DIR / "localmarket_zipf_seed0.json"
    ).read_text()


def test_reconcile_scaling_cell_shape_and_invariance():
    cells = {
        interval: reconcile_scaling_cell(
            "qa-nt",
            interval,
            0,
            0,
            num_nodes=30,
            num_classes=10,
            shards=2,
            max_queries=120,
            mode="inline",
        )
        for interval in (1, 4)
    }
    for interval, cell in cells.items():
        assert cell["reconcile_interval"] == float(interval)
        assert cell["shards"] == 2.0
        assert cell["local_classes"] + cell["residual_classes"] == 10.0
        assert set(cell) == set(cells[1])
    # R moves barrier cadence and staleness, never the market outcome.
    for key in ("completed", "mean_response_ms", "p99_response_ms"):
        assert cells[1][key] == cells[4][key]
    assert cells[1]["reconcile_barriers"] >= cells[4]["reconcile_barriers"]
