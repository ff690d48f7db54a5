"""A minimal discrete-event simulation core.

Used by the BGP/BGPsec simulator, which needs MRAI timers and per-message
processing delays. The beaconing simulators are interval-stepped and drive
their own clock; they share only :func:`collector_paused`.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple


__all__ = ["SimulationClock", "Simulator", "collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """One unit of work (or, as a decorator, call) with the process-global
    cyclic collector off. The loops paused build no cycles, so reference
    counting frees what they drop. On exit a generation-0 collection settles
    the unit's surviving young objects; a no-op if the collector was off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


class SimulationClock:
    """Monotonic simulation time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        if when < self._now:
            raise ValueError(
                f"cannot move time backwards ({when} < {self._now})"
            )
        self._now = when


class Simulator:
    """Run scheduled actions in time order until the queue drains or a
    horizon hits."""

    def __init__(self) -> None:
        self.clock = SimulationClock()
        #: ``(when, sequence, action)`` entries: the sequence numbers are
        #: unique, so tuple comparison (in C) never reaches the action.
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._counter = itertools.count()
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_at(self, when: float, action: Callable[[], Any]) -> None:
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (when, next(self._counter), action))

    def __len__(self) -> int:
        """The number of events scheduled and not yet run."""
        return len(self._heap)

    @collector_paused()
    def run(self, *, until: Optional[float] = None) -> int:
        """Process events until drained or past the horizon ``until``, then
        move the clock to the horizon.

        Returns the number of events processed by this call.
        """
        heap = self._heap
        processed = 0
        while heap:
            if until is not None and heap[0][0] > until:
                break
            when, _, action = heapq.heappop(heap)
            self.clock.advance_to(when)
            action()
            processed += 1
        if until is not None and until > self.now:
            self.clock.advance_to(until)
        self.events_processed += processed
        return processed
