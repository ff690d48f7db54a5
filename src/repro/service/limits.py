"""Backpressure primitives: per-client token buckets and a bounded queue.

Both are deterministic under the single-loop concurrency model of
:mod:`repro.service` (see DESIGN.md §10): none of their operations awaits,
so each call is atomic with respect to every other task on the loop — the
buckets and the queue never need locks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque

__all__ = ["TokenBucket", "BoundedQueue", "QueueClosed"]


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second up to ``burst``.

    Refill is computed lazily from the supplied ``now`` (the service's
    clock), and is clamped monotonic: a ``now`` earlier than the last
    observed time refills nothing rather than going negative. Tokens never
    exceed ``burst``. With a virtual clock, admission decisions are a pure
    function of the (time, acquire) call sequence — the exact-replay
    property the invariant harness checks.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, *, now: float = 0.0) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = float(now)

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self.tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False (and no change) otherwise."""
        self._refill(now)
        if self.tokens + 1e-12 < tokens:
            return False
        self.tokens -= tokens
        return True


class QueueClosed(RuntimeError):
    """Raised by :meth:`BoundedQueue.get` after close() drained the queue."""


class BoundedQueue:
    """A FIFO queue with a hard capacity and non-blocking admission.

    ``try_put`` never blocks: it returns False when the queue is at
    capacity, which is the service's queue-depth admission control.
    ``get`` awaits until an item (or close) arrives.

    Items only ever live in the internal deque — waiter futures are pure
    wakeup signals, never carriers. A woken consumer loops back and pops
    from the deque (re-parking if another consumer got there first), so a
    consumer cancelled between wakeup and resumption can never lose an
    item: its unconsumed wakeup is passed to the next live waiter.
    Waiters wake in FIFO order and pops are FIFO, so delivery preserves
    admission order.

    ``close()`` refuses further items and wakes every parked consumer;
    consumers drain the remaining backlog, then ``get`` raises
    :class:`QueueClosed` — the graceful-drain path: the service stops
    admitting, workers finish the backlog, then exit their ``get`` loop.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._items: Deque = deque()
        self._waiters: Deque[asyncio.Future] = deque()
        self._closed = False
        #: Lifetime counters (the invariant harness reconciles them).
        self.accepted = 0
        self.delivered = 0

    # ------------------------------------------------------------- produce

    def _wake_one(self) -> bool:
        """Wake the oldest live waiter; False if none is parked."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return True
        return False

    def _wake_all(self) -> None:
        while self._wake_one():
            pass

    def try_put(self, item) -> bool:
        """Admit ``item``; False when closed or at capacity."""
        if self._closed or len(self._items) >= self.maxsize:
            return False
        self.accepted += 1
        self._items.append(item)
        self._wake_one()
        return True

    # ------------------------------------------------------------- consume

    async def get(self):
        """The oldest item; raises :class:`QueueClosed` after a drain."""
        while True:
            if self._items:
                self.delivered += 1
                item = self._items.popleft()
                if self._items:
                    # More stock than wakeups can be left after races;
                    # keep a parked consumer from missing it.
                    self._wake_one()
                return item
            if self._closed:
                raise QueueClosed("queue closed and drained")
            waiter = asyncio.get_event_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter.done() and not waiter.cancelled():
                    # This consumer absorbed a wakeup it can no longer
                    # use — hand it to the next live waiter.
                    self._wake_one()
                raise

    def close(self) -> None:
        """Refuse new items; gets drain the backlog, then fail."""
        self._closed = True
        self._wake_all()

    # -------------------------------------------------------------- state

    def qsize(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)
