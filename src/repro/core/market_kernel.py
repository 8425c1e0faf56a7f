"""The QA-NT market kernel: every array rule of the price dynamics, once.

The one program for paper §3–§5, shared by the period engine
(:class:`~repro.core.period_engine.QantPeriodEngine`), the tick
dispatcher (:class:`~repro.allocation.market_tick.MarketTickDispatcher`)
and every market plane of :mod:`repro.sim.shards`:

* :func:`refusal_raise` — steps 8–9;
* :class:`Exchange` — one request-for-bid exchange: offer test, refusal
  raise, max price and Section 5.1 latch (:meth:`Exchange.quote`),
  saturation test, earliest-completion match and the supply decrement;
* :func:`earliest` — the earliest-completion match (QA-NT and greedy);
* :func:`decay` — steps 12–14;
* :func:`carry_round` — the carry-over rounding;
* :class:`SupplySolver` — eq. 4 for the :data:`BATCHED_METHODS`.

The exchange and the match come in two forms of one rule, chosen by
the lane width alone: lane sets up to :data:`SCALAR_MAX_LANES`
candidates wide (the Zipf world's 5-candidate classes) run on Python
floats, where numpy's per-call overhead would dominate; wider ones
(the 50–1,000-candidate lanes of the tick dispatcher) run as numpy
array programs.  No caller picks a form.

Every float comes from the same IEEE-754 operation sequence as the
scalar references (``QantPricingAgent.quote``/``begin_period``/
``end_period`` and ``CapacitySupplySet``), in either form, so goldens
do not move whichever engine runs a market.  The one treacherous spot
is the proportional solver's ``(density/top) ** 2.0``: numpy rewrites
it into a multiply, which differs from CPython's libm ``pow`` in the
last ulp for ~0.1% of inputs, so the weights go through a scalar
Python pow loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "BATCHED_METHODS",
    "Exchange",
    "Lanes",
    "NO_OFFER",
    "SATURATED",
    "SCALAR_MAX_LANES",
    "SupplySolver",
    "carry_round",
    "decay",
    "earliest",
    "refusal_raise",
]

#: Eq. 4 methods solved here; the ``exact`` DP stays scalar.
BATCHED_METHODS = frozenset(
    {"proportional", "greedy", "greedy-fractional", "fractional"}
)

#: Mirrors the default ``sharpness`` of
#: :meth:`repro.core.supply.CapacitySupplySet._solve_proportional`.
_PROP_SHARPNESS = 2.0

#: :meth:`Exchange.__call__` outcomes without a winner: every bidder
#: refused (and, for SATURATED, every price sits at the cap).
NO_OFFER = -1
SATURATED = -2

#: Widest lane set priced on Python floats; wider ones run the numpy
#: program.  Measured with ``repro bench --filter market.`` (the
#: ``market.exchange`` and ``market.exchange_wide`` kernels): numpy's
#: per-call overhead dominates up to roughly this width.
SCALAR_MAX_LANES = 16


def refusal_raise(values, factor, floor, cap):
    """Steps 8-9 over refused lanes: ``(raised, changed)``.

    Scalar clamp order (floor, then cap); ``changed`` masks the lanes
    whose price actually moved.
    """
    raised = values * factor
    np.maximum(raised, floor, out=raised)
    np.minimum(raised, cap, out=raised)
    return raised, raised != values


def decay(prices, remaining, adjustment, floor):
    """Steps 12-14: ``p *= max(0, 1 - leftover * adjustment)``, floored,
    wherever supply went unsold (the scalar ``_lower_price``)."""
    factor = 1.0 - remaining * adjustment
    np.maximum(factor, 0.0, out=factor)
    decayed = prices * factor
    np.maximum(decayed, floor, out=decayed)
    return np.where(remaining > 0.0, decayed, prices)


def carry_round(optimal, credit=None):
    """Whole planned supply from an eq. 4 solution.

    With ``credit`` (carry-over on) fractions accumulate there in place
    until they make a whole query; without, they are floored away.
    ``+ 0.0`` turns trunc/floor's ``-0.0`` into the scalar ``+0.0``.
    """
    if credit is None:
        return np.floor(optimal + 1e-9) + 0.0
    credit += optimal
    planned = np.trunc(credit + 1e-9) + 0.0
    credit -= planned
    return planned


def earliest(busy, lanes, now, offers=None):
    """``(lane, finish)`` minimising ``max(busy[row], now) + cost`` over
    the offering lanes (all when ``offers`` is None).

    Any object with ``rows`` and ``costs`` arrays is a lane set.  The
    first-occurrence argmin over ascending node ids is the scalar
    strict-``<`` lowest-id tie-break.  Lane sets up to
    :data:`SCALAR_MAX_LANES` wide run the same arithmetic on Python
    floats (:func:`_earliest_scalar`).
    """
    rows = lanes.rows
    if len(rows) <= SCALAR_MAX_LANES:
        return _earliest_scalar(
            busy[rows].tolist(), lanes.costs.tolist(), now, offers
        )
    return _earliest_numpy(busy, lanes, now, offers)


def _earliest_numpy(busy, lanes, now, offers):
    """:func:`earliest` as one numpy program (``offers`` a mask)."""
    est = np.maximum(busy[lanes.rows], now)
    est += lanes.costs
    if offers is not None:
        est[~offers] = np.inf
    lane = int(est.argmin())
    return lane, float(est[lane])


def _earliest_scalar(busy, costs, now, offers):
    """:func:`earliest` over per-lane ``busy``/``costs`` lists: the same
    ``max`` (a tie keeps the busy clock), the same ``+``, and ``min`` +
    ``index`` as the first-occurrence argmin."""
    est = [(b if b >= now else now) + c for b, c in zip(busy, costs)]
    if offers is not None:
        est = [e if o else np.inf for e, o in zip(est, offers)]
    finish = min(est)
    return est.index(finish), finish


class Lanes:
    """One class's candidates: static market ``rows`` (ascending node
    id) and ``costs``; this period's remaining supply ``R``, prices
    ``V``, refusal counts ``F`` and accept counts ``ACC``."""

    __slots__ = ("rows", "costs", "R", "V", "F", "ACC")

    def __init__(self, rows, costs) -> None:
        self.rows = rows
        self.costs = costs
        self.R = self.V = self.F = self.ACC = None


class Exchange:
    """Request-for-bid exchanges over one market's rows.

    Holds the per-row state all classes share — an agent has one max
    price, price epoch and enforce latch across its classes: ``busy``
    (the busy-clock mirror, read only), ``maxp``, ``locked`` and
    ``epochs`` (price changes since the owner last zeroed it).
    """

    __slots__ = (
        "busy", "maxp", "locked", "epochs",
        "factor", "floor", "cap", "threshold",
    )

    def __init__(self, busy, factor, floor, cap, threshold) -> None:
        self.busy = busy
        self.maxp = np.zeros(len(busy), dtype=float)
        self.locked = np.zeros(len(busy), dtype=bool)
        self.epochs = np.zeros(len(busy), dtype=np.int64)
        self.factor, self.floor, self.cap = factor, floor, cap
        self.threshold = threshold

    def quote(self, lanes: Lanes):
        """The offer mask: :meth:`QantPricingAgent.quote` for every lane.

        A lane with a whole unit of supply offers; the others refuse,
        count it and raise their price, and still offer while unlatched
        and below the Section 5.1 activation threshold.
        """
        R = lanes.R
        V = lanes.V
        offers = R >= 1.0
        refuse = np.nonzero(~offers)[0]
        if refuse.size:
            rows_r = lanes.rows[refuse]
            lanes.F[refuse] += 1
            new, changed = refusal_raise(
                V[refuse], self.factor, self.floor, self.cap
            )
            V[refuse] = new
            m = self.maxp[rows_r]
            if changed.any():
                self.epochs[rows_r] += changed
                # `maximum` matches the scalar `new > m` keep-or-replace:
                # ties return the shared (positive) value bit-for-bit.
                m = np.maximum(m, new)
                self.maxp[rows_r] = m
            threshold = self.threshold
            if threshold is not None:
                passed = ~self.locked[rows_r]
                passed &= m < threshold
                self.locked[rows_r] = ~passed
                offers[refuse] = passed
        return offers

    def _quote_scalar(self, lanes: Lanes, supply):
        """:meth:`quote` on Python floats, as a list of offer flags.

        ``supply`` is the lanes' ``R`` as a list.  The same clamp
        (floor, then cap) and ``!=`` change test; once any price moved,
        every refuser's max price takes the same keep-or-replace
        ``maximum``; then the same latch.  State is written back one
        cell at a time.
        """
        offers = [r >= 1.0 for r in supply]
        if all(offers):
            return offers
        refuse = [lane for lane, offer in enumerate(offers) if not offer]
        rows = lanes.rows.tolist()
        V, F, epochs = lanes.V, lanes.F, self.epochs
        prices = V.tolist()
        factor, floor, cap = self.factor, self.floor, self.cap
        moved = False
        for lane in refuse:
            F[lane] += 1
            old = prices[lane]
            new = old * factor
            if new < floor:
                new = floor
            if new > cap:
                new = cap
            V[lane] = prices[lane] = new
            if new != old:
                epochs[rows[lane]] += 1
                moved = True
        threshold = self.threshold
        if not moved and threshold is None:
            return offers
        maxp, locked = self.maxp, self.locked
        for lane in refuse:
            row = rows[lane]
            m = maxp.item(row)
            if moved and prices[lane] > m:
                m = maxp[row] = prices[lane]
            if threshold is not None and not locked.item(row):
                if m < threshold:
                    offers[lane] = True
                else:
                    locked[row] = True
        return offers

    def __call__(self, lanes: Lanes, now: float) -> Tuple[int, float]:
        """One exchange: ``(lane, finish)`` of the winner (its supply
        consumed, like the scalar accept), else ``(NO_OFFER |
        SATURATED, inf)``.

        Lane sets up to :data:`SCALAR_MAX_LANES` wide run on Python
        floats (:meth:`_call_scalar`), wider ones as one numpy program
        (:meth:`_call_numpy`); both are the same IEEE-754 sequence.
        """
        if len(lanes.rows) <= SCALAR_MAX_LANES:
            return self._call_scalar(lanes, now)
        return self._call_numpy(lanes, now)

    def _call_numpy(self, lanes: Lanes, now: float) -> Tuple[int, float]:
        offers = self.quote(lanes)
        if not offers.any():
            if bool((lanes.V == self.cap).all()):
                return SATURATED, np.inf
            return NO_OFFER, np.inf
        lane, finish = _earliest_numpy(self.busy, lanes, now, offers)
        R = lanes.R
        if R[lane] >= 1.0:
            R[lane] -= 1.0
            lanes.ACC[lane] += 1
        return lane, finish

    def _call_scalar(self, lanes: Lanes, now: float) -> Tuple[int, float]:
        supply = lanes.R.tolist()
        offers = self._quote_scalar(lanes, supply)
        if not any(offers):
            cap = self.cap
            if all(v == cap for v in lanes.V.tolist()):
                return SATURATED, np.inf
            return NO_OFFER, np.inf
        lane, finish = _earliest_scalar(
            self.busy[lanes.rows].tolist(), lanes.costs.tolist(), now, offers
        )
        left = supply[lane]
        if left >= 1.0:
            lanes.R[lane] = left - 1.0
            lanes.ACC[lane] += 1
        return lane, finish


class SupplySolver:
    """Eq. 4 for rows of a fixed cost matrix, bit-equal to
    :meth:`CapacitySupplySet.optimal_supply`.

    The solve runs over a **compact column layout** built once from the
    costs: each row's evaluable classes first, ascending, padded to the
    widest row with unevaluable ones (``valid`` is False there).  The
    stable density sort puts ``-inf`` columns last, where they add
    exactly ``+0.0``, so dropping the columns no row evaluates is exact.
    ``gather``/``scatter`` convert row blocks to and from the dense
    ``(rows, K)`` layout.
    """

    def __init__(self, costs, method: str) -> None:
        if method not in BATCHED_METHODS:
            raise ValueError(
                "batched eq. 4 supports %s, not %r"
                % ("/".join(sorted(BATCHED_METHODS)), method)
            )
        costs = np.asarray(costs, dtype=float)
        finite = np.isfinite(costs)
        width = max(1, int(finite.sum(axis=1).max(initial=0)))
        self.cols = np.argsort(~finite, axis=1, kind="stable")[:, :width]
        self.costs = np.take_along_axis(costs, self.cols, axis=1)
        self.valid = np.isfinite(self.costs)
        self._num_classes = costs.shape[1]
        self._method = method

    def gather(self, dense, rows):
        """The compact block of ``dense`` (matrix rows ``rows``)."""
        return np.take_along_axis(dense, self.cols[rows], axis=1)

    def scatter(self, compact, rows):
        """The dense block of compact rows ``rows`` (padding writes the
        zeros its unevaluable classes hold anyway)."""
        dense = np.zeros((compact.shape[0], self._num_classes))
        np.put_along_axis(dense, self.cols[rows], compact, axis=1)
        return dense

    def solve(self, rows, prices, capacity):
        """Compact optimal supply of ``rows`` at compact ``prices``.

        Densities of evaluable, positively priced classes (others
        ``-inf``) sorted stably by ``(-density, k)`` — the scalar
        tuple-sort order, ties included.
        """
        # Scalar semantics: a subnormal budget supplies nothing.
        subnormal = (capacity > 0.0) & (capacity < np.finfo(float).tiny)
        capacity = np.where(subnormal, 0.0, capacity)
        costs = self.costs[rows]
        valid = self.valid[rows] & (prices > 0.0)
        density = np.where(valid, prices / costs, -np.inf)
        order = np.argsort(-density, axis=1, kind="stable")
        density_s = np.take_along_axis(density, order, axis=1)
        costs_s = np.take_along_axis(costs, order, axis=1)
        method = self._method
        if method == "proportional":
            counts_s = _solve_proportional_sorted(density_s, capacity, costs_s)
        elif method == "fractional":
            counts_s = np.zeros_like(density_s)
            has_any = density_s[:, 0] != -np.inf
            counts_s[:, 0] = np.where(has_any, capacity / costs_s[:, 0], 0.0)
        else:  # greedy / greedy-fractional
            counts_s = _solve_greedy_sorted(
                density_s, capacity, costs_s, method == "greedy-fractional"
            )
        counts = np.zeros_like(counts_s)
        np.put_along_axis(counts, order, counts_s, axis=1)
        return counts


def _solve_proportional_sorted(density_s, cap, costs_s):
    """Batched `_solve_proportional` over density-sorted rows."""
    valid = density_s != -np.inf
    top = density_s[:, 0]
    # Scalar semantics: no evaluable class, or a best density that
    # underflowed to zero, supplies nothing.
    ok = top > 0.0
    safe_top = np.where(ok, top, 1.0)
    ratio = density_s / safe_top[:, None]
    weights = np.zeros_like(ratio)
    mask = valid & ok[:, None]
    flat = ratio[mask]
    if flat.size:
        # Scalar pow on purpose (module docstring).
        sharpness = _PROP_SHARPNESS
        weights[mask] = [v ** sharpness for v in flat.tolist()]
    # `total += weight` in density order; trailing invalid columns
    # contribute an exact +0.0 so the fold matches the scalar sum.
    total = weights[:, 0].copy()
    for j in range(1, density_s.shape[1]):
        total += weights[:, j]
    nonzero = total > 0.0
    share = (cap[:, None] * weights) / np.where(nonzero, total, 1.0)[:, None]
    counts = share / costs_s
    counts[~nonzero] = 0.0
    counts[~mask] = 0.0
    return counts


def _solve_greedy_sorted(density_s, cap, costs_s, fractional_tail):
    """Batched `_solve_greedy` over density-sorted rows: columns best
    first, with the scalar `remaining < cost` skip guard masked in."""
    valid = density_s != -np.inf
    remaining = cap.copy()
    counts = np.zeros_like(density_s)
    for j in range(density_s.shape[1]):
        cost_j = costs_s[:, j]
        active = valid[:, j] & (remaining >= cost_j)
        if not active.any():
            continue
        fit = np.floor(remaining / cost_j + 1e-9)
        fit = np.where(active, fit, 0.0)
        counts[:, j] = fit
        # `fit * cost` with the cost masked to 0 on inactive rows: avoids
        # 0*inf while leaving active rows' arithmetic exact.
        remaining = remaining - fit * np.where(active, cost_j, 0.0)
    if fractional_tail:
        tail = valid[:, 0] & (remaining > 0.0)
        if tail.any():
            counts[:, 0] += np.where(tail, remaining / costs_s[:, 0], 0.0)
    return counts
