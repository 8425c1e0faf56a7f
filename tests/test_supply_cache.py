"""Property tests for the price-epoch solver cache (hypothesis).

The perf work memoises density orderings and solved supply vectors inside
:class:`CapacitySupplySet`, keyed by an opaque ``cache_token`` that QA-NT
agents derive from their price epoch.  These tests drive random
interleavings of refusal raises (``quote`` with no supply left) and
``_lower_price`` — the only two operations that move prices — and assert the cached solve is always
*exactly* equal to a from-scratch solve on a fresh supply set at the same
prices.  Exact (``==``) equality is the right bar: token-keyed caching
must never change a single bit of any simulated decision.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qant import QantPricingAgent
from repro.core.supply import CapacitySupplySet, solve_supply

METHODS = ("fractional", "greedy", "greedy-fractional", "proportional", "exact")

# Costs >= 50ms on a <= 2s budget keep the exact DP grid small enough for
# hypothesis to run hundreds of solves per test.
costs_lists = st.lists(
    st.floats(min_value=50.0, max_value=1000.0), min_size=2, max_size=5
)
capacities = st.floats(min_value=100.0, max_value=2000.0)
# (kind, class pick, leftover) — class pick is reduced modulo K inside.
price_ops = st.lists(
    st.tuples(
        st.sampled_from(["raise", "lower"]),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.1, max_value=20.0),
    ),
    max_size=25,
)


def _apply(agent: QantPricingAgent, ops) -> None:
    if not agent.in_period:
        agent.begin_period()
    for kind, pick, leftover in ops:
        class_index = pick % agent.num_classes
        if kind == "raise":
            # With no whole unit of supply left, a quote is a refusal:
            # the steps 8-9 raise.
            agent.bid_state()[0][class_index] = 0.0
            agent.quote(class_index)
        else:
            agent._lower_price(class_index, leftover)


class TestEpochTokenCache:
    @settings(max_examples=40, deadline=None)
    @given(costs_lists, capacities, price_ops, st.sampled_from(METHODS))
    def test_cached_solve_equals_from_scratch(
        self, costs, capacity, ops, method
    ):
        shared = CapacitySupplySet(costs, capacity)
        agent = QantPricingAgent(shared)
        _apply(agent, ops)
        token = (agent._token_base, agent.price_epoch)
        prices = list(agent._price_values)
        first = shared.optimal_supply(prices, method, cache_token=token)
        second = shared.optimal_supply(prices, method, cache_token=token)
        fresh = CapacitySupplySet(costs, capacity).optimal_supply(
            prices, method
        )
        assert first == fresh
        # The second call at the same token must be the memoised hit.
        assert second is first

    @settings(max_examples=25, deadline=None)
    @given(costs_lists, capacities, price_ops, st.sampled_from(METHODS))
    def test_solving_after_every_update_stays_fresh(
        self, costs, capacity, ops, method
    ):
        """Populate the memo at every intermediate epoch: each price move
        must invalidate it, never serve the previous epoch's vector."""
        shared = CapacitySupplySet(costs, capacity)
        agent = QantPricingAgent(shared)
        for op in ops:
            _apply(agent, [op])
            token = (agent._token_base, agent.price_epoch)
            prices = list(agent._price_values)
            cached = solve_supply(shared, prices, method, cache_token=token)
            fresh = CapacitySupplySet(costs, capacity).optimal_supply(
                prices, method
            )
            assert cached == fresh

    @settings(max_examples=40, deadline=None)
    @given(costs_lists, capacities, price_ops)
    def test_epoch_and_max_price_invariants(self, costs, capacity, ops):
        agent = QantPricingAgent(CapacitySupplySet(costs, capacity))
        last_epoch = agent.price_epoch
        last_prices = list(agent._price_values)
        for op in ops:
            _apply(agent, [op])
            prices = list(agent._price_values)
            if prices == last_prices:
                # No actual change -> the epoch (cache key) must not move.
                assert agent.price_epoch == last_epoch
            else:
                assert agent.price_epoch > last_epoch
            # The incrementally maintained overload signal never drifts.
            assert agent.max_price == max(prices)
            last_epoch = agent.price_epoch
            last_prices = prices


class TestWithCapacityRebind:
    @settings(max_examples=40, deadline=None)
    @given(
        costs_lists,
        capacities,
        capacities,
        st.integers(min_value=0, max_value=10),
        st.sampled_from(METHODS),
    )
    def test_rebind_equals_fresh_construction(
        self, costs, cap_a, cap_b, price_scale, method
    ):
        prices = [
            0.5 + price_scale * 0.3 * (k + 1) for k in range(len(costs))
        ]
        base = CapacitySupplySet(costs, cap_a)
        rebound = base.with_capacity(cap_b)
        fresh = CapacitySupplySet(costs, cap_b)
        assert rebound.capacity_ms == fresh.capacity_ms
        assert rebound.optimal_supply(prices, method) == fresh.optimal_supply(
            prices, method
        )

    @settings(max_examples=25, deadline=None)
    @given(costs_lists, capacities, capacities, st.sampled_from(METHODS))
    def test_shared_cache_across_rebinds_keys_on_capacity(
        self, costs, cap_a, cap_b, method
    ):
        """The rebind shares the memo dict; a vector solved at capacity A
        must never be served for capacity B (the key includes capacity)."""
        prices = [float(k + 1) for k in range(len(costs))]
        token = (99, 0)
        base = CapacitySupplySet(costs, cap_a)
        rebound = base.with_capacity(cap_b)
        at_a = base.optimal_supply(prices, method, cache_token=token)
        at_b = rebound.optimal_supply(prices, method, cache_token=token)
        assert at_a == CapacitySupplySet(costs, cap_a).optimal_supply(
            prices, method
        )
        assert at_b == CapacitySupplySet(costs, cap_b).optimal_supply(
            prices, method
        )

    def test_same_capacity_rebind_returns_self(self):
        base = CapacitySupplySet([100.0, 200.0], 1000.0)
        assert base.with_capacity(1000.0) is base

    def test_negative_capacity_rejected(self):
        base = CapacitySupplySet([100.0, 200.0], 1000.0)
        with pytest.raises(ValueError):
            base.with_capacity(-1.0)
