"""Vectorised market-tick dispatch for the QA-NT bidding fan-out.

:class:`MarketTickDispatcher` answers the request-for-bid exchange of
:meth:`repro.allocation.qant.QantAllocator.assign` with
:class:`repro.core.market_kernel.Exchange` over the fleet's ``slot_free``
mirror.  This module only moves state: it gathers each class's bidder
state into kernel :class:`~repro.core.market_kernel.Lanes` per period,
and :meth:`MarketTickDispatcher.sync` writes refusal/accept counts,
prices, price epochs, max prices and latches back to the live agents —
at every period boundary, before any scalar fallback (partial fan-outs
during outage windows) and from ``sync_market_state``, the observer
contract the period engine's deferral uses too.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as _np

from ..core.market_kernel import SATURATED, Exchange, Lanes

__all__ = [
    "BatchDispatchStats",
    "MarketTickDispatcher",
]


class BatchDispatchStats:
    """Counters of the vectorised bidding fan-out (see allocator stats)."""

    __slots__ = ("vector_exchanges", "scalar_fallbacks", "syncs", "gathers")

    def __init__(self) -> None:
        #: Request-for-bid exchanges answered on the vector path.
        self.vector_exchanges = 0
        #: Exchanges that had to drop to the scalar loop (partial
        #: fan-outs during outage windows).
        self.scalar_fallbacks = 0
        #: Scatter-backs of cached state into the live agent lists.
        self.syncs = 0
        #: Per-class state gathers (at most one per class per period).
        self.gathers = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "vector_exchanges": self.vector_exchanges,
            "scalar_fallbacks": self.scalar_fallbacks,
            "syncs": self.syncs,
            "gathers": self.gathers,
        }


class _ClassState(Lanes):
    """One class's kernel lanes plus its bidder tuples.

    The lane state (column ``class_index`` of each bidder's live lists)
    is gathered lazily per period and dropped to ``None`` at every
    :meth:`MarketTickDispatcher.sync`.
    """

    __slots__ = ("class_index", "bidders")

    def __init__(self, class_index, rows, costs, bidders) -> None:
        super().__init__(rows, costs)
        self.class_index = class_index
        self.bidders = bidders


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over a full candidate set.

    Built by :class:`~repro.allocation.qant.QantAllocator` only when the
    whole fleet is dispatchable: numpy + fleet arrays available, no
    message faults, no partial adoption, no private classification, and
    every bidder a plain :class:`~repro.core.qant.QantPricingAgent`.
    """

    def __init__(
        self,
        fleet,
        nodes: Mapping[int, object],
        bidders_by_class: Mapping[int, Tuple],
        activation_threshold: Optional[float],
        raise_factor: float,
        price_floor: float,
        price_cap: float,
    ) -> None:
        self._threshold = activation_threshold
        self.stats = BatchDispatchStats()
        row_of = fleet.row_of
        self._states: Dict[int, _ClassState] = {}
        for class_index, bidders in bidders_by_class.items():
            self._states[class_index] = _ClassState(
                class_index,
                _np.array(
                    [row_of[b[0]] for b in bidders], dtype=_np.intp
                ),
                _np.array(
                    [nodes[b[0]]._costs[class_index] for b in bidders],
                    dtype=float,
                ),
                bidders,
            )
        # Agent-global exchange state, one row per fleet slot.  Rows
        # whose node bids in no class keep a None agent and are never
        # touched.
        self._market = Exchange(
            fleet.slot_free, raise_factor, price_floor, price_cap,
            activation_threshold,
        )
        agents_by_row: List[object] = [None] * len(fleet.node_ids)
        for bidders in bidders_by_class.values():
            for b in bidders:
                agents_by_row[row_of[b[0]]] = b[1]
        self._agents_by_row = agents_by_row
        self._market_fresh = False

    # -- gather ---------------------------------------------------------------

    def _gather_market(self) -> None:
        """Snapshot every agent's max price and enforce latch.

        Reading ``agent.max_price`` materialises the lazily-tracked
        maximum; from here on the exchange maintains it incrementally,
        which stays exact because prices only rise within a period and
        every raise updates the running maximum.
        """
        market = self._market
        maxp = market.maxp
        locked = market.locked
        market.epochs[:] = 0
        for row, agent in enumerate(self._agents_by_row):
            if agent is None:
                continue
            maxp[row] = agent.max_price
            locked[row] = agent._enforce_locked_at is not None
        self._market_fresh = True

    def _live_state(self, class_index: int) -> _ClassState:
        st = self._states[class_index]
        if st.R is None:
            bidders = st.bidders
            st.R = _np.array([b[2][class_index] for b in bidders])
            st.V = _np.array([b[3][class_index] for b in bidders])
            st.F = _np.array(
                [b[4][class_index] for b in bidders], dtype=_np.int64
            )
            st.ACC = _np.array(
                [b[1]._accepted[class_index] for b in bidders],
                dtype=_np.int64,
            )
            self.stats.gathers += 1
        return st

    # -- the exchange ---------------------------------------------------------

    def exchange(
        self, class_index: int, now: float
    ) -> Tuple[Optional[int], bool]:
        """One full-fan-out request-for-bid exchange at time ``now``.

        Returns ``(chosen_node_id, saturated)``: the winning node (supply
        consumed, like the scalar accept) or ``None`` when every bidder
        refused, with ``saturated`` flagging the all-refuse case whose
        every price sits at the cap (the caller arms its saturation fast
        path exactly as the scalar loop would).
        """
        st = self._live_state(class_index)
        if not self._market_fresh:
            # Once per period, before its first exchange.
            self._gather_market()
        lane, __ = self._market(st, now)
        self.stats.vector_exchanges += 1
        if lane < 0:
            return None, lane == SATURATED
        return st.bidders[lane][0], False

    # -- scatter --------------------------------------------------------------

    def sync(self) -> None:
        """Write all cached state back into the live agent lists.

        After this returns, every agent holds exactly the state the
        scalar loop would have left behind, and the next exchange
        re-gathers from scratch.  Idempotent and cheap when nothing is
        cached.
        """
        synced = False
        for st in self._states.values():
            if st.R is None:
                continue
            synced = True
            k = st.class_index
            r_list = st.R.tolist()
            v_list = st.V.tolist()
            f_list = st.F.tolist()
            acc_list = st.ACC.tolist()
            for i, b in enumerate(st.bidders):
                b[2][k] = r_list[i]
                b[3][k] = v_list[i]
                b[4][k] = f_list[i]
                b[1]._accepted[k] = acc_list[i]
            st.R = st.V = st.F = st.ACC = None
        if self._market_fresh:
            synced = True
            threshold = self._threshold
            market = self._market
            deltas = market.epochs.tolist()
            maxps = market.maxp.tolist()
            lockeds = market.locked.tolist()
            for row, agent in enumerate(self._agents_by_row):
                if agent is None:
                    continue
                delta = deltas[row]
                if delta:
                    agent._price_epoch += delta
                    agent._prices_cache = None
                # The gather materialised the lazy maximum, so writing it
                # back unconditionally only ever restates the true value.
                agent._max_price = maxps[row]
                if (
                    threshold is not None
                    and lockeds[row]
                    and agent._enforce_locked_at is None
                ):
                    agent._enforce_locked_at = threshold
            self._market_fresh = False
        if synced:
            self.stats.syncs += 1
