"""A minimal discrete-event simulation core.

Used by the BGP/BGPsec simulator (which needs MRAI timers and per-message
processing delays) and available to any other time-driven component. The
beaconing simulators are interval-stepped and drive their own clock, but
share the :class:`SimulationClock` abstraction for consistency.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..obs import NULL_TELEMETRY, Telemetry

__all__ = ["Event", "EventQueue", "SimulationClock", "Simulator"]


class SimulationClock:
    """Monotonic simulation time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        if when < self._now:
            raise ValueError(
                f"cannot move time backwards ({when} < {self._now})"
            )
        self._now = when


@dataclass(order=True)
class Event:
    """A scheduled callback; ordering is (time, sequence number)."""

    when: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    canceled: bool = field(default=False, compare=False)
    #: Owning queue, so cancellation can keep the live-event count exact
    #: without scanning the heap.
    owner: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        if not self.canceled:
            self.canceled = True
            if self.owner is not None:
                self.owner._live -= 1


class EventQueue:
    """A cancelable priority queue of events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        #: Number of non-canceled events; canceled events linger in the
        #: heap until popped, so ``len(heap)`` overcounts.
        self._live = 0

    def schedule(self, when: float, action: Callable[[], Any]) -> Event:
        event = Event(
            when=when, sequence=next(self._counter), action=action, owner=self
        )
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop_next(self) -> Optional[Event]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.canceled:
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].canceled:
            heapq.heappop(self._heap)
        return self._heap[0].when if self._heap else None

    def __len__(self) -> int:
        return self._live


class Simulator:
    """Run events in time order until the queue drains or a horizon hits."""

    #: Class-level default keeps pickled simulators and existing callers
    #: telemetry-free; :meth:`attach_telemetry` opts in.
    obs: Telemetry = NULL_TELEMETRY

    def __init__(
        self, start: float = 0.0, *, obs: Optional[Telemetry] = None
    ) -> None:
        self.clock = SimulationClock(start)
        self.queue = EventQueue()
        self.events_processed = 0
        if obs is not None:
            self.obs = obs

    def attach_telemetry(self, obs: Telemetry) -> None:
        self.obs = obs

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

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until drained, the horizon, or the event budget.

        Returns the number of events processed by this call.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
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
            # Only jump the clock to the horizon once the queue has drained
            # past it; stopping on the event budget with events still due
            # before ``until`` must leave the clock where it is, or the next
            # run() would try to move time backwards.
            next_time = self.queue.peek_time()
            if next_time is None or next_time > until:
                self.clock.advance_to(until)
        self.events_processed += processed
        if processed and self.obs.metrics.enabled:
            self.obs.metrics.counter("sim.events_processed").inc(processed)
        return processed
