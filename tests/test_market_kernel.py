"""Twin tests pinning the market kernel against the scalar references.

:mod:`repro.core.market_kernel` is the one array program every bulk
engine prices with (period engine, vector dispatcher, shard planes).
Its contract is bit-identity with the scalar QA-NT code it batches:

* :class:`~repro.core.market_kernel.SupplySolver` on sparse, mostly
  unevaluable cost rows with density ties equals
  :meth:`CapacitySupplySet.optimal_supply` bit for bit, for every
  batched method;
* :class:`~repro.core.market_kernel.Exchange` equals a loop of
  :meth:`QantPricingAgent.quote` calls followed by the lowest-id
  earliest-completion pick: offers, prices, refusal/accept counts, max
  prices, latches, price epochs, the winner and the saturation flag —
  on lane sets either side of ``SCALAR_MAX_LANES``, so both the scalar
  and the numpy form are pinned, and the two forms agree bit for bit
  on the same state at the crossover;
* :func:`~repro.core.market_kernel.earliest` equals the scalar
  strict-``<`` lowest-id pick, either side of the crossover;
* :func:`~repro.core.market_kernel.decay` equals ``end_period``'s
  steps 12–14.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.market_kernel import (
    BATCHED_METHODS,
    NO_OFFER,
    SATURATED,
    SCALAR_MAX_LANES,
    Exchange,
    Lanes,
    SupplySolver,
    carry_round,
    decay,
    earliest,
)
from repro.core.market import PriceVector
from repro.core.qant import QantParameters, QantPricingAgent
from repro.core.supply import CapacitySupplySet

METHODS = sorted(BATCHED_METHODS)

#: Few distinct values so equal densities (ties) are common.
COSTS = st.sampled_from([math.inf, math.inf, math.inf, 50.0, 100.0, 200.0])
PRICES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.7])
CAPACITIES = st.sampled_from([0.0, 49.0, 100.0, 730.5, 2_000.0])


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


@st.composite
def _solver_case(draw):
    num_classes = draw(st.integers(1, 12))
    num_rows = draw(st.integers(1, 6))
    costs = [
        [draw(COSTS) for __ in range(num_classes)] for __ in range(num_rows)
    ]
    prices = [
        [draw(PRICES) for __ in range(num_classes)] for __ in range(num_rows)
    ]
    caps = [draw(CAPACITIES) for __ in range(num_rows)]
    rows = sorted(
        draw(st.sets(st.integers(0, num_rows - 1), min_size=1))
    )
    return costs, prices, caps, rows


@pytest.mark.parametrize("method", METHODS)
@given(case=_solver_case())
@settings(max_examples=150, deadline=None)
def test_solver_matches_capacity_supply_set(method, case):
    costs, prices, caps, rows = case
    solver = SupplySolver(costs, method)
    idx = np.array(rows, dtype=np.intp)
    dense_prices = np.array(prices)
    compact = solver.solve(
        idx, solver.gather(dense_prices[idx], idx), np.array(caps)[idx]
    )
    got = solver.scatter(compact, idx)
    for slot, i in enumerate(rows):
        expected = CapacitySupplySet(costs[i], caps[i]).optimal_supply(
            prices[i], method
        )
        assert _bits(got[slot]) == _bits(expected)


@pytest.mark.parametrize("method", METHODS)
def test_solver_matches_scalar_at_subnormal_and_signed_zero_capacity(method):
    costs = [[1.5, 50.0]] * 3
    prices = [[1.0, 0.5]] * 3
    caps = [5e-324, -0.0, 0.0]
    solver = SupplySolver(costs, method)
    idx = np.arange(3, dtype=np.intp)
    got = solver.scatter(
        solver.solve(idx, solver.gather(np.array(prices), idx), np.array(caps)),
        idx,
    )
    for i in range(3):
        expected = CapacitySupplySet(costs[i], caps[i]).optimal_supply(
            prices[i], method
        )
        assert _bits(got[i]) == _bits(expected)


def test_solver_layout_is_compact_and_rejects_exact():
    costs = [[math.inf, 10.0, math.inf, 5.0], [math.inf] * 4]
    solver = SupplySolver(costs, "proportional")
    assert solver.cols.shape == (2, 2)
    assert solver.cols[0].tolist() == [1, 3]
    assert solver.valid.tolist() == [[True, True], [False, False]]
    with pytest.raises(ValueError, match="exact"):
        SupplySolver(costs, "exact")


@st.composite
def _exchange_case(draw):
    num_classes = draw(st.integers(1, 3))
    k = draw(st.integers(0, num_classes - 1))
    # Both sides of the scalar/numpy crossover.
    n = draw(st.integers(1, 2 * SCALAR_MAX_LANES + 1))
    agents = []
    for __ in range(n):
        costs = [draw(st.sampled_from([50.0, 100.0, 150.0]))
                 for __ in range(num_classes)]
        agents.append(
            dict(
                costs=costs,
                prices=[draw(st.sampled_from([0.5, 1.0, 1.9, 9.0, 10.0]))
                        for __ in range(num_classes)],
                remaining=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
                locked=draw(st.booleans()),
                busy=draw(st.sampled_from([0.0, 40.0, 100.0, 250.0])),
            )
        )
    # 1.1 and 10.0 (the cap) are max prices a raise can land on exactly.
    threshold = draw(st.sampled_from([None, 1.1, 2.0, 9.5, 10.0]))
    now = draw(st.sampled_from([0.0, 40.0, 120.0]))
    return k, agents, threshold, now


def _agents(specs, k, threshold, params):
    agents = []
    for spec in specs:
        agent = QantPricingAgent(
            CapacitySupplySet(spec["costs"], 0.0),
            params,
            initial_prices=PriceVector(spec["prices"]),
        )
        agent.begin_period()
        agent.bid_state()[0][k] = spec["remaining"]
        if spec["locked"] and threshold is not None:
            agent._enforce_locked_at = threshold
        agents.append(agent)
    return agents


def _kernel_side(agents, specs, k, threshold, params):
    """The agents' state gathered into kernel arrays (no agent moves)."""
    market = Exchange(
        np.array([spec["busy"] for spec in specs]),
        1.0 + params.adjustment,
        params.price_floor,
        params.price_cap,
        threshold,
    )
    market.maxp[:] = [agent.max_price for agent in agents]
    market.locked[:] = [
        agent._enforce_locked_at is not None for agent in agents
    ]
    lanes = Lanes(
        np.arange(len(agents), dtype=np.intp),
        np.array([spec["costs"][k] for spec in specs]),
    )
    lanes.R = np.array([agent.bid_state()[0][k] for agent in agents])
    lanes.V = np.array([agent.bid_state()[1][k] for agent in agents])
    lanes.F = np.zeros(len(agents), dtype=np.int64)
    lanes.ACC = np.zeros(len(agents), dtype=np.int64)
    return market, lanes


@given(case=_exchange_case())
@settings(max_examples=300, deadline=None)
def test_exchange_matches_scalar_quote_loop(case):
    k, specs, threshold, now = case
    params = QantParameters(price_cap=10.0)
    agents = _agents(specs, k, threshold, params)
    epochs0 = [agent._price_epoch for agent in agents]
    quoted_market, quoted = _kernel_side(agents, specs, k, threshold, params)
    market, lanes = _kernel_side(agents, specs, k, threshold, params)
    offers = quoted_market.quote(quoted)
    lane, finish = market(lanes, now)

    # Scalar side: one quote per bidder in ascending id order, then the
    # earliest-completion pick (strict `<`, lowest id wins ties) and the
    # accept when the winner holds a whole unit of supply.
    expected_offers = [agent.quote(k, threshold) for agent in agents]
    chosen, best = -1, math.inf
    for i, spec in enumerate(specs):
        if expected_offers[i]:
            estimate = max(spec["busy"], now) + spec["costs"][k]
            if estimate < best:
                chosen, best = i, estimate
    if chosen >= 0:
        if agents[chosen].supply_left(k) >= 1:
            agents[chosen].accept(k)
        assert (lane, finish) == (chosen, best)
    else:
        saturated = all(
            agent.bid_state()[1][k] == params.price_cap for agent in agents
        )
        assert lane == (SATURATED if saturated else NO_OFFER)

    assert offers.tolist() == expected_offers
    for kernel_market, kernel_lanes in ((quoted_market, quoted),
                                        (market, lanes)):
        assert _bits(kernel_lanes.V) == _bits(
            [agent.bid_state()[1][k] for agent in agents]
        )
        assert kernel_lanes.F.tolist() == [
            agent.bid_state()[2][k] for agent in agents
        ]
        assert _bits(kernel_market.maxp) == _bits(
            [agent.max_price for agent in agents]
        )
        assert kernel_market.locked.tolist() == [
            agent._enforce_locked_at is not None for agent in agents
        ]
        assert kernel_market.epochs.tolist() == [
            agent._price_epoch - e0 for agent, e0 in zip(agents, epochs0)
        ]
    assert _bits(lanes.R) == _bits(
        [agent.bid_state()[0][k] for agent in agents]
    )
    assert lanes.ACC.tolist() == [agent._accepted[k] for agent in agents]


def _crossover_state(width, state):
    """An Exchange and lanes in ``state``, rows interleaved with unused
    ones so lane index and market row differ."""
    cap = 10.0
    threshold = None if state in ("all-refuse", "saturated") else 2.0
    busy = np.array([float((37 * i) % 250) for i in range(2 * width + 1)])
    market = Exchange(busy, 1.1, 1e-3, cap, threshold)
    market.maxp[:] = 1.0
    lanes = Lanes(
        np.arange(1, 2 * width + 1, 2, dtype=np.intp),
        np.array([50.0 + 25.0 * (i % 4) for i in range(width)]),
    )
    lanes.R = np.array([[0.0, 0.5, 1.0, 3.0][i % 4] for i in range(width)])
    lanes.V = np.array([[0.5, 1.0, 1.9, 9.5][i % 4] for i in range(width)])
    lanes.F = np.arange(width, dtype=np.int64) % 3
    lanes.ACC = np.arange(width, dtype=np.int64) % 2
    if state == "saturated":
        lanes.R[:] = 0.0
        lanes.V[:] = cap
        market.maxp[:] = cap
    elif state == "all-refuse":
        lanes.R[:] = 0.5
    elif state == "latched":
        # Every refuser latched or already over the threshold: only
        # lanes with supply offer.
        market.locked[lanes.rows[::2]] = True
        market.maxp[lanes.rows[1::2]] = 2.5
    return market, lanes


@pytest.mark.parametrize("width", [SCALAR_MAX_LANES, SCALAR_MAX_LANES + 1])
@pytest.mark.parametrize(
    "state", ["offers", "latched", "all-refuse", "saturated"]
)
def test_scalar_and_numpy_exchange_agree_at_the_crossover(width, state):
    """Both forms of one exchange, on the same lane state, either side
    of the width that switches between them."""
    outcomes = []
    for form in ("_call_scalar", "_call_numpy"):
        market, lanes = _crossover_state(width, state)
        result = getattr(market, form)(lanes, 40.0)
        outcomes.append(
            (
                result,
                _bits(lanes.V), _bits(lanes.R),
                lanes.F.tolist(), lanes.ACC.tolist(),
                _bits(market.maxp), market.locked.tolist(),
                market.epochs.tolist(),
            )
        )
    assert outcomes[0] == outcomes[1]
    lane = outcomes[0][0][0]
    if state == "saturated":
        assert lane == SATURATED
    elif state == "all-refuse":
        assert lane == NO_OFFER
    else:
        assert lane >= 0


@given(
    width=st.integers(1, 2 * SCALAR_MAX_LANES + 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_earliest_matches_scalar_strict_less_pick(width, data):
    """Ties are common (few distinct values): the lowest offering lane
    must win them, whichever form the width selects."""
    busy = np.array(
        data.draw(st.lists(st.sampled_from([0.0, 40.0, 100.0]),
                           min_size=width, max_size=width))
    )
    costs = data.draw(st.lists(st.sampled_from([50.0, 60.0, 100.0]),
                               min_size=width, max_size=width))
    now = data.draw(st.sampled_from([0.0, 40.0, 70.0]))
    offers = data.draw(
        st.none()
        | st.lists(st.booleans(), min_size=width, max_size=width).filter(any)
    )
    lanes = Lanes(np.arange(width, dtype=np.intp), np.array(costs))
    chosen, best = -1, math.inf
    for i in range(width):
        if offers is None or offers[i]:
            estimate = max(busy[i], now) + costs[i]
            if estimate < best:
                chosen, best = i, estimate
    mask = None if offers is None else np.array(offers)
    lane, finish = earliest(busy, lanes, now, mask)
    assert (lane, _bits([finish])) == (chosen, _bits([best]))


@given(
    prices=st.lists(PRICES.filter(lambda p: p > 0), min_size=1, max_size=8),
    leftovers=st.lists(
        st.sampled_from([0.0, 0.4, 1.0, 3.0, 25.0]), min_size=8, max_size=8
    ),
)
@settings(max_examples=150, deadline=None)
def test_decay_matches_end_period(prices, leftovers):
    params = QantParameters()
    agent = QantPricingAgent(
        CapacitySupplySet([100.0] * len(prices), 0.0),
        params,
        initial_prices=PriceVector(prices),
    )
    agent.begin_period()
    remaining = agent.bid_state()[0]
    remaining[:] = leftovers[: len(prices)]
    got = decay(
        np.array(prices),
        np.array(remaining),
        params.adjustment,
        params.price_floor,
    )
    agent.end_period()
    assert _bits(got) == _bits(agent.bid_state()[1])


def test_carry_round_accumulates_credit():
    credit = np.zeros(3)
    optimal = np.array([0.6, 1.5, 0.0])
    assert carry_round(optimal, credit).tolist() == [0.0, 1.0, 0.0]
    assert carry_round(optimal, credit).tolist() == [1.0, 2.0, 0.0]
    assert carry_round(optimal).tolist() == [0.0, 1.0, 0.0]
    assert _bits(carry_round(np.array([-0.0]))) == _bits([0.0])
