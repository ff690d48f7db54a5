"""Clock abstraction for the measurement service.

The service never calls :func:`time.monotonic` or :func:`asyncio.sleep`
directly; every delay and timestamp goes through a clock object. Two
implementations share the same two-method surface:

* :class:`WallClock` — real time, for production serving and benchmarks;
* :class:`VirtualClock` — deterministic simulated time, driven explicitly
  by the test harness (:mod:`repro.service.harness`). No wall-clock sleep
  ever happens under a virtual clock: ``sleep()`` registers a timer in a
  heap and returns a future the driver resolves when it advances time.

Determinism contract: with a :class:`VirtualClock`, the interleaving of
every task in the service is a pure function of the program — timers fire
one at a time in (deadline, registration order) and the asyncio ready
queue is FIFO — so two runs of the same seeded scenario execute the exact
same schedule.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import List, Tuple

__all__ = ["Clock", "WallClock", "VirtualClock"]


class Clock:
    """The two-method clock surface the service depends on."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, delay: float):  # pragma: no cover - interface
        """Return an awaitable that completes ``delay`` seconds from now."""
        raise NotImplementedError


class WallClock(Clock):
    """Real time: ``time.monotonic`` + ``asyncio.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, delay: float):
        return asyncio.sleep(max(0.0, delay))


class VirtualClock(Clock):
    """Deterministic simulated time for the concurrency harness.

    ``sleep()`` never yields to the OS: it registers ``(deadline, seq)``
    in a heap and returns an :class:`asyncio.Future`. The harness driver
    alternates between letting the event loop settle (run every ready
    callback) and :meth:`fire_next`, which pops the earliest timer,
    advances :meth:`now` to its deadline and resolves its future. Ties on
    the deadline fire in registration order, so the schedule is total and
    reproducible.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Heap of (deadline, seq, future); cancelled futures are skipped
        #: lazily when popped.
        self._timers: List[Tuple[float, int, asyncio.Future]] = []
        #: Timers fired over the clock's lifetime (observability/debug).
        self.fired = 0

    # ------------------------------------------------------------ service

    def now(self) -> float:
        return self._now

    def sleep(self, delay: float) -> asyncio.Future:
        future = asyncio.get_event_loop().create_future()
        deadline = self._now + max(0.0, delay)
        heapq.heappush(self._timers, (deadline, self._seq, future))
        self._seq += 1
        return future

    # ------------------------------------------------------------- driver

    def _drop_cancelled(self) -> None:
        while self._timers and self._timers[0][2].cancelled():
            heapq.heappop(self._timers)

    def fire_next(self) -> bool:
        """Advance to the earliest live timer and resolve it.

        Returns False when no live timer is registered (time cannot move
        forward on its own — the driver treats that as quiescence or, with
        work still pending, as a deadlock).
        """
        self._drop_cancelled()
        if not self._timers:
            return False
        deadline, _, future = heapq.heappop(self._timers)
        self._now = max(self._now, deadline)
        future.set_result(None)
        self.fired += 1
        return True
