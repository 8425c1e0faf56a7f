"""Layer seams and the span tracer of the traced benchmark run.

The tracer attributes host time to the simulator's layers without
touching the program: it replaces the public functions at each layer
boundary with timing wrappers for the length of one traced run, and
puts the originals back afterwards.  Every wrapper records one span;
a span's *self time* is its duration minus the durations of the
wrapped spans it caused (its children), so the self times of all
spans add up to the time spent inside the outermost spans, and
``unattributed_s`` is whatever the traced wall spent outside them.

A seam that no longer exists (a later change renames or removes the
function) is reported as absent instead of raising: its time then
shows up in its parent's self time or as unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, module, owner class or None for a module function, name)``.
#: Layer names follow the modules they time and name the layer's self
#: time metric, ``<layer>_s``; one layer may own several seams, and
#: their spans pool into one self time and one call count.
SEAMS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("engine.self", "repro.sim.engine", "Simulator", "run"),
    ("allocation.assign", "repro.allocation.qant", "QantAllocator", "assign"),
    ("allocation.assign", "repro.allocation.qant", "QantAllocator", "assign_batch"),
    ("allocation.assign", "repro.allocation.greedy", "GreedyAllocator", "assign"),
    ("allocation.assign", "repro.allocation.base", "Allocator", "assign_batch"),
    (
        "allocation.tick_exchange",
        "repro.allocation.market_tick",
        "MarketTickDispatcher",
        "exchange",
    ),
    ("period_engine.advance", "repro.core.period_engine", "QantPeriodEngine", "advance"),
    ("network.fanout", "repro.sim.network", "Network", "fanout"),
    ("network.fanout", "repro.sim.network", "Network", "round_trip_ms_batch"),
    ("network.fanout", "repro.sim.network", "Network", "send"),
    ("node.enqueue", "repro.sim.node", "SimulatedNode", "enqueue"),
    ("shards.coordinator", "repro.sim.shards", "ShardedFederation", "run"),
    ("shards.post", "repro.sim.shards", "ShardTransport", "post"),
    ("shards.exchange", "repro.sim.shards", "ShardTransport", "exchange"),
    # The codec is wrapped where the sharded engine binds it, so both
    # the coordinator's encodes and the (inline) planes' decodes count.
    ("protocol.codec", "repro.sim.shards", None, "encode"),
    ("protocol.codec", "repro.sim.shards", None, "decode"),
    ("merge.digest", "repro.sim.shards", "ShardedRunResult", "invariant_payload"),
)

#: Every layer a seam can report, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(seam[0] for seam in SEAMS))


def seam_label(seam: Sequence[Optional[str]]) -> str:
    """``module.Owner.name`` of one seam, for reports."""
    _layer, module, owner, name = seam
    return ".".join(part for part in (module, owner, name) if part)


class Tracer:
    """In-memory span accumulator: self time and calls per layer.

    Spans nest through an explicit stack of child-time accumulators;
    the simulator is single-threaded, so one stack per tracer is exact.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []

    def reset(self) -> None:
        """Forget every span recorded so far."""
        self.self_s.clear()
        self.calls.clear()
        self._stack.clear()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with one span per call, attributed to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return traced


class Instrumentation:
    """Installs a tracer's wrappers over :data:`SEAMS`; a context manager.

    Wrappers go onto the owning class (or module) itself, so objects
    built while installed bind the wrapped functions.  Leaving the
    context restores exactly what was there: an inherited method that
    was wrapped on a subclass is deleted again, not left as a copy.
    """

    def __init__(
        self,
        tracer: Tracer,
        seams: Sequence[Tuple[str, str, Optional[str], str]] = SEAMS,
    ) -> None:
        self.tracer = tracer
        self.seams = tuple(seams)
        #: Labels of the seams that could not be found.
        self.absent: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        self.absent = []
        for seam in self.seams:
            layer, module_name, owner_name, name = seam
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(seam_label(seam))
                continue
            if not callable(fn):
                self.absent.append(seam_label(seam))
                continue
            own = vars(owner).get(name, _MISSING)
            self._undo.append((owner, name, own))
            setattr(owner, name, self.tracer.wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


_MISSING = object()
