"""Federation-wide batched QA-NT period-boundary engine.

At paper scale the dominant cost after the PR 3 bidding-path work is the
period boundary itself: every ``period_ms`` the allocator used to walk all
N agents in Python, closing the old period (steps 12–14 price decay),
rebinding the free-capacity budget, and re-solving eq. 4 — K-element
loops times N nodes times thousands of periods.  The boundary has no
cross-agent coupling (prices are private, each agent owns its supply set)
and draws no randomness, so it batches cleanly:

* **vectorised across nodes** — the N×K price and credit matrices and
  the free-capacity vector go through :mod:`repro.core.market_kernel`
  (steps 12–14 decay, eq. 4, carry-over rounding) as array ops;
* **incremental** — a row whose ``(price_epoch, free_capacity)`` pair is
  unchanged since its last solve reuses the cached optimal vector (the
  batched extension of the PR 2 ``(agent_token, price_epoch)`` memo with
  capacity folded into the key), and the decay only rewrites rows it
  actually changed;
* **quiescence fast-forward** — a node that received no request and sold
  nothing evolves by deterministic closed-loop decay toward its price
  floor.  Once every class is at the floor or inert (zero optimal supply
  with no pending carry-over credit) and every node is idle, the boundary
  is a fixed point: further untouched ticks are counted in O(1) and only
  materialised (``flush``) when someone next observes or perturbs the
  market.

Bit-identity contract: the engine reproduces the scalar
:meth:`~repro.core.qant.QantPricingAgent.begin_period` /
:meth:`~repro.core.qant.QantPricingAgent.end_period` arithmetic to the
last ulp (see :mod:`repro.core.market_kernel`), so the golden traces
pinned in ``tests/golden/`` do not move.

The agents' own Python lists stay authoritative for the *within*-period
hot paths (the allocator's vector dispatcher holds live references via
``bid_state``); the engine gathers them into its matrices at a boundary
only when the period saw any interaction, and scatters results back with
identity-preserving slice assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .market_kernel import BATCHED_METHODS, SupplySolver, carry_round, decay
from .qant import QantPricingAgent
from .supply import CapacitySupplySet
from .vectors import QueryVector

__all__ = [
    "BATCHED_METHODS",
    "PeriodEngineStats",
    "QantPeriodEngine",
]

@dataclass
class PeriodEngineStats:
    """Counters of the engine's incremental machinery (observability).

    ``solved_rows``/``reused_rows`` partition every (tick, agent) cell the
    engine materialised: a reused row served its plan from the
    ``(price_epoch, free_capacity)`` cache without re-solving eq. 4.
    ``deferred_ticks`` counts boundaries fast-forwarded in O(1) at the
    quiescent fixed point; ``replayed_ticks`` counts how many of those
    were later materialised by a :meth:`QantPeriodEngine.flush`.
    """

    ticks: int = 0
    deferred_ticks: int = 0
    replayed_ticks: int = 0
    solved_rows: int = 0
    reused_rows: int = 0


class QantPeriodEngine:
    """Batched period boundaries for a fleet of plain QA-NT agents.

    The engine owns the cross-period numeric state (prices, carry-over
    credit, cached optimal plans) as matrices and drives all N agents'
    ``end_period`` → capacity rebind → ``begin_period`` sequence per
    :meth:`advance` call.  Construct it *between* periods (at bind time)
    over agents that all share one :class:`~repro.core.qant.
    QantParameters`; agents that do not :meth:`accepts` must stay on the
    caller's scalar path.
    """

    def __init__(
        self,
        agents: Sequence[QantPricingAgent],
        allowances: Sequence[float],
        can_defer: bool = True,
    ):
        agents = list(agents)
        if not agents:
            raise ValueError("the period engine needs at least one agent")
        if len(allowances) != len(agents):
            raise ValueError("one backlog allowance per agent is required")
        params = agents[0].parameters
        num_classes = agents[0].num_classes
        for agent in agents:
            if not self.accepts(agent):
                raise ValueError(
                    "agent %r is not batchable (needs a plain "
                    "QantPricingAgent over a CapacitySupplySet with a "
                    "batched solver method)" % (agent,)
                )
            if agent.parameters != params:
                raise ValueError("all agents must share one QantParameters")
            if agent.num_classes != num_classes:
                raise ValueError("all agents must price the same K classes")
            if agent.in_period:
                raise ValueError("build the engine between periods")
        self._agents: List[QantPricingAgent] = agents
        self._num_classes = num_classes
        self._carry = params.carry_over
        self._lam = params.adjustment
        self._floor = params.price_floor
        self._can_defer = bool(can_defer)
        n = len(agents)
        self._allowances = np.array([float(a) for a in allowances])
        self._solver = SupplySolver(
            [agent.supply_set.cost_ms for agent in agents],
            params.supply_method,
        )
        # Mirrors of the agents' live state.  Between boundaries the
        # agents' lists are authoritative (the allocator mutates them
        # in-place); the matrices are re-gathered at the next boundary
        # iff the period saw any interaction.
        self._prices = np.array([agent._price_values for agent in agents])
        self._epochs = np.fromiter(
            (agent._price_epoch for agent in agents), dtype=np.int64, count=n
        )
        self._credit = np.array([agent._credit for agent in agents])
        self._planned = np.zeros((n, num_classes))
        # The (price_epoch, free_capacity) plan cache: row i's cached
        # optimal vector is valid while both coordinates are unchanged.
        self._prev_epochs = np.full(n, -1, dtype=np.int64)
        self._prev_capacity = np.full(n, -1.0)
        self._optimal = np.zeros((n, num_classes))
        self._started = False
        self._eligible = False
        self._deferred = 0
        self._zeros_int = [0] * num_classes
        self.stats = PeriodEngineStats()

    @staticmethod
    def accepts(agent: object) -> bool:
        """Whether ``agent`` can be managed by the batched path.

        Exactly a plain :class:`QantPricingAgent` (no subclass — a
        subclass may override the period methods the engine bypasses)
        over a :class:`CapacitySupplySet` with one of the
        :data:`BATCHED_METHODS` solvers.
        """
        return (
            type(agent) is QantPricingAgent
            and isinstance(agent.supply_set, CapacitySupplySet)
            and agent.parameters.supply_method in BATCHED_METHODS
        )

    # -- driving ------------------------------------------------------------

    @property
    def deferred_ticks_pending(self) -> int:
        """Boundaries fast-forwarded but not yet materialised."""
        return self._deferred

    def advance(
        self, interacted: bool, free_capacity: Callable[[], Sequence[float]]
    ) -> None:
        """Drive one period boundary for every managed agent.

        ``interacted`` must be True iff anything touched the market since
        the previous boundary (an assignment ran, a query completed) —
        it gates both the state re-gather and the quiescence fast path.
        ``free_capacity`` is only called when the boundary actually
        materialises, so quiescent ticks skip the per-node load probes
        entirely.
        """
        self.stats.ticks += 1
        if self._eligible and not interacted:
            # Quiescent fixed point: closed-loop decay is a no-op, every
            # plan is cached, no node can change load.  O(1).
            self._deferred += 1
            self.stats.deferred_ticks += 1
            return
        if self._deferred:
            self._replay()
        self._tick(
            np.asarray(free_capacity(), dtype=float), gather=interacted
        )

    def flush(self) -> None:
        """Materialise any fast-forwarded boundaries.

        Callers must flush before reading or perturbing agent state
        (assignments, tracers, end of run); after the flush every agent
        holds exactly the state the scalar per-tick loop would have
        produced.
        """
        if self._deferred:
            self._replay()

    # -- one full boundary ---------------------------------------------------

    def _tick(self, capacities: np.ndarray, gather: bool) -> None:
        agents = self._agents
        n = len(agents)
        prices = self._prices
        if gather or not self._started:
            # The period saw assignments: prices may have risen and
            # supply been consumed through the agents' live lists.  Every
            # price writer (scalar raises, the market-tick dispatcher's
            # sync, our own decay) bumps the agent's price epoch exactly
            # when a value changed, so rows whose epoch matches our
            # mirror are already bit-identical and skip the re-gather.
            new_epochs = np.fromiter(
                (agent._price_epoch for agent in agents),
                dtype=np.int64,
                count=n,
            )
            if self._started:
                stale = np.nonzero(new_epochs != self._epochs)[0].tolist()
            else:
                stale = range(n)
            for i in stale:
                prices[i] = agents[i]._price_values
            self._epochs = new_epochs
            remaining = np.array([agent._remaining for agent in agents])
        else:
            # Untouched period: nothing was sold, so the unsold leftover
            # is the full planned vector and prices match our matrix.
            remaining = self._planned

        # Steps 12-14, batched over every agent and class.
        if self._started:
            new_prices = decay(prices, remaining, self._lam, self._floor)
            changed = new_prices != prices
            row_counts = changed.sum(axis=1)
            changed_rows = np.nonzero(row_counts)[0]
            if changed_rows.size:
                new_lists = new_prices[changed_rows].tolist()
                for slot, i in enumerate(changed_rows.tolist()):
                    agent = agents[i]
                    # One epoch bump per changed class, exactly as the
                    # scalar loop; the lazy caches are dropped wholesale
                    # (recomputing max over only-lowered prices yields
                    # the same value the scalar path keeps or recomputes).
                    agent._price_epoch += int(row_counts[i])
                    agent._prices_cache = None
                    agent._max_price = None
                    agent._price_values[:] = new_lists[slot]
                self._epochs[changed_rows] += row_counts[changed_rows]
            prices = self._prices = new_prices

        # Free-capacity rebinds: same `with_capacity` sharing as the
        # scalar path, done only for rows whose budget actually moved
        # (`with_capacity` returns self on an equal budget anyway).  The
        # in-period guard of `rebind_supply_set` is deliberately skipped —
        # the engine *is* the period machinery.
        capacity_changed = capacities != self._prev_capacity
        for i in np.nonzero(capacity_changed)[0].tolist():
            agent = agents[i]
            agent._supply_set = agent._supply_set.with_capacity(
                float(capacities[i])
            )

        # Solve eq. 4 only where the (price_epoch, capacity) key moved.
        need = (self._epochs != self._prev_epochs) | capacity_changed
        n_need = int(np.count_nonzero(need))
        if n_need:
            rows = np.nonzero(need)[0]
            solver = self._solver
            counts = solver.solve(
                rows, solver.gather(prices[rows], rows), capacities[rows]
            )
            self._optimal[rows] = solver.scatter(counts, rows)
            self._prev_epochs[need] = self._epochs[need]
            self._prev_capacity[need] = capacities[need]
        self.stats.solved_rows += n_need
        self.stats.reused_rows += n - n_need

        planned = self._planned = carry_round(
            self._optimal, self._credit if self._carry else None
        )
        self._install()
        self._started = True

        # Fixed-point detection for the deferral fast path: with every
        # node idle (free capacity pinned at its allowance) and every
        # class either at the price floor (decay is a no-op regardless of
        # leftover) or inert (zero optimal supply and, with carry-over,
        # no credit within rounding reach of one whole query), future
        # untouched boundaries cannot change prices, epochs, capacities
        # or plans — only cycle the carry-over credit, which `_replay`
        # reproduces exactly.
        if self._can_defer and bool(
            (capacities == self._allowances).all()
        ):
            at_floor = prices <= self._floor
            if self._carry:
                inert = (self._optimal == 0.0) & (self._credit + 1e-9 < 1.0)
            else:
                inert = planned == 0.0
            self._eligible = bool((at_floor | inert).all())
        else:
            self._eligible = False

    def _replay(self) -> None:
        """Materialise the deferred boundaries in one batch.

        At the fixed point each skipped boundary is decay-no-op +
        cache-hit solve; only the carry-over credit cycles, so replaying
        n ticks is n vectorised credit updates (none at all without
        carry-over, where the planned vector is pinned).
        """
        count = self._deferred
        self._deferred = 0
        self.stats.replayed_ticks += count
        if not self._carry:
            return
        for __ in range(count):
            self._planned = carry_round(self._optimal, self._credit)
        self._install()

    def _install(self) -> None:
        """Scatter the boundary's results back into the agents.

        Slice assignment everywhere: the allocator's compiled bidder
        tuples hold the very list objects (`bid_state`), so their
        identity must survive — the same contract `begin_period` keeps.
        """
        planned_lists = self._planned.tolist()
        credit_lists = self._credit.tolist() if self._carry else None
        zeros_int = self._zeros_int
        from_trusted = QueryVector._from_trusted_tuple
        for i, agent in enumerate(self._agents):
            row = planned_lists[i]
            agent._planned = from_trusted(tuple(row))
            agent._remaining[:] = row
            agent._accepted[:] = zeros_int
            agent._refused[:] = zeros_int
            agent._in_period = True
            agent._enforce_locked_at = None
            if credit_lists is not None:
                agent._credit[:] = credit_lists[i]
