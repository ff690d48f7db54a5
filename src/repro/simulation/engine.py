"""A minimal discrete-event simulation core.

Used by the BGP/BGPsec simulator (which needs MRAI timers and per-message
processing delays) and available to any other time-driven component. The
beaconing simulators are interval-stepped and drive their own clock, but
share the :class:`SimulationClock` abstraction for consistency.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple


__all__ = ["Event", "EventQueue", "SimulationClock", "Simulator", "collector_paused"]


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


@dataclass(slots=True)
class Event:
    """A scheduled callback; the queue orders events by (time, scheduling
    order)."""

    when: float
    action: Callable[[], Any]
    canceled: bool = False
    #: Owning queue, so cancellation can keep the live-event count exact
    #: without scanning the heap.
    owner: Optional["EventQueue"] = field(default=None, repr=False)

    def cancel(self) -> None:
        if not self.canceled:
            self.canceled = True
            if self.owner is not None:
                self.owner._live -= 1


class EventQueue:
    """A cancelable priority queue of events."""

    def __init__(self) -> None:
        #: ``(when, sequence, event)`` entries: the sequence numbers are
        #: unique, so tuple comparison (in C) never reaches the event.
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: Number of non-canceled events; canceled events linger in the
        #: heap until popped, so ``len(heap)`` overcounts.
        self._live = 0

    def schedule(self, when: float, action: Callable[[], Any]) -> Event:
        event = Event(when, action, owner=self)
        heapq.heappush(self._heap, (when, next(self._counter), event))
        self._live += 1
        return event

    def pop_next(self) -> Optional[Event]:
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.canceled:
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].canceled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return self._live


class Simulator:
    """Run events in time order until the queue drains or a horizon hits."""

    def __init__(self) -> None:
        self.clock = SimulationClock()
        self.queue = EventQueue()
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, delay: float, action: Callable[[], Any]) -> Event:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.queue.schedule(self.now + delay, action)

    def schedule_at(self, when: float, action: Callable[[], Any]) -> Event:
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        return self.queue.schedule(when, action)

    @collector_paused()
    def run(self, *, until: Optional[float] = None) -> int:
        """Process events until drained or past the horizon ``until``, then
        move the clock to the horizon.

        Returns the number of events processed by this call.
        """
        processed = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self.queue.pop_next()
            assert event is not None
            self.clock.advance_to(event.when)
            event.action()
            processed += 1
        if until is not None and until > self.now:
            self.clock.advance_to(until)
        self.events_processed += processed
        return processed
