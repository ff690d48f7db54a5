"""Deterministic concurrency harness for the measurement service.

The harness runs an entire concurrent scenario — service, worker pool,
thousands of client tasks — under a :class:`~repro.service.clock.
VirtualClock` with **zero wall-clock sleeps**:

* :func:`settle` lets the asyncio event loop run until no callback is
  ready (every task has parked on a future);
* :func:`run_virtual` alternates settling with firing the earliest
  virtual timer, so simulated time jumps event-to-event and the whole
  scenario executes in the minimum number of loop iterations;
* :func:`check_invariants` asserts the service's global correctness
  properties after a drain — response conservation, exact rate-limit
  accounting, counter reconciliation, and a quiescent shutdown.

Determinism: the asyncio ready queue is FIFO, virtual timers fire in
(deadline, registration) order, and nothing consults the wall clock, so
two runs of the same seeded scenario execute the identical interleaving.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Iterable

from .clock import VirtualClock
from .limits import TokenBucket
from .requests import Response, Status
from .service import MeasurementService

__all__ = [
    "DeadlockError",
    "settle",
    "run_virtual",
    "check_invariants",
]


class DeadlockError(RuntimeError):
    """The scenario still has pending tasks but no virtual timer to fire."""


async def settle(max_rounds: int = 100_000) -> int:
    """Yield to the event loop until it has no ready callback left.

    Uses the loop's ready queue when the implementation exposes it (the
    pure-Python selector loop CPython ships); otherwise falls back to a
    fixed number of yields. Returns the number of yields performed.
    """
    loop = asyncio.get_event_loop()
    ready = getattr(loop, "_ready", None)
    rounds = 0
    while True:
        await asyncio.sleep(0)
        rounds += 1
        if ready is not None:
            if not ready:
                return rounds
        elif rounds >= 64:
            return rounds
        if rounds >= max_rounds:
            raise RuntimeError(
                f"event loop failed to settle in {max_rounds} rounds"
            )


def run_virtual(
    main: Callable[[], Awaitable],
    *,
    clock: VirtualClock,
    max_steps: int = 10_000_000,
    flight=None,
):
    """Run ``main()`` to completion under ``clock``, driving time itself.

    The driver loop: settle the event loop; if the main task finished,
    return its result; otherwise fire the next virtual timer and repeat.
    If the main task is still pending with no timer registered, every
    task is parked on a future nobody will resolve — a real deadlock —
    and :class:`DeadlockError` is raised rather than hanging (with a
    flight-recorder post-mortem when a recorder is supplied).
    """

    async def _drive():
        task = asyncio.ensure_future(main())
        steps = 0
        try:
            while True:
                await settle()
                if task.done():
                    return task.result()
                if not clock.fire_next():
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    if flight is not None and flight.enabled:
                        flight.dump(
                            "deadlock",
                            detail={"virtual_time": clock.now()},
                        )
                    raise DeadlockError(
                        "main task pending with no virtual timer registered"
                    )
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(f"exceeded {max_steps} timer steps")
        finally:
            if not task.done():
                task.cancel()

    return asyncio.run(_drive())


def check_invariants(
    service: MeasurementService,
    responses: Iterable[Response],
    *,
    drained: bool = True,
) -> Dict[str, int]:
    """Assert the service's global invariants; returns summary counts.

    A failed invariant dumps a flight-recorder post-mortem (when the
    service's telemetry carries an enabled recorder) before re-raising.

    Checks, over the full scenario:

    1. **conservation** — every submission produced exactly one response;
       request ids are unique (no lost or duplicated responses);
    2. **admission reconciliation** — submitted == accepted + every
       rejection class, and accepted == every terminal execution class;
    3. **exact rate limiting** — replaying each client's journaled
       (time, decision) sequence through a fresh token bucket reproduces
       the service's accept/reject decisions bit for bit;
    4. **queue conservation** — the bounded queue delivered exactly what
       it accepted;
    5. **quiescent drain** — zero queued and zero in-flight requests
       (only meaningful after :meth:`MeasurementService.drain`).
    """
    try:
        return _check_invariants(service, responses, drained=drained)
    except AssertionError as exc:
        flight = service.obs.flight
        if flight.enabled:
            flight.dump("invariant_failure", detail={"error": str(exc)})
        raise


def _check_invariants(
    service: MeasurementService,
    responses: Iterable[Response],
    *,
    drained: bool,
) -> Dict[str, int]:
    responses = list(responses)
    stats = service.stats

    # 1. Conservation: unique ids, one response per submission.
    ids = [r.request_id for r in responses]
    assert len(ids) == len(set(ids)), "duplicated response request_ids"
    assert len(responses) == stats["submitted"], (
        f"{len(responses)} responses for {stats['submitted']} submissions"
    )

    # 2. Admission + completion reconciliation.
    rejected = (
        stats["rejected_queue_full"]
        + stats["rejected_rate_limited"]
        + stats["rejected_shutting_down"]
    )
    assert stats["submitted"] == stats["accepted"] + rejected
    completed = (
        stats["completed_ok"]
        + stats["completed_timeout"]
        + stats["completed_failed"]
    )
    if drained:
        assert stats["accepted"] == completed, (
            f"{stats['accepted']} accepted but {completed} completed"
        )
    by_status: Dict[Status, int] = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    for status in Status:
        key = (
            status.value
            if status.value.startswith("rejected")
            else f"completed_{status.value}"
        )
        assert by_status.get(status, 0) == stats[key], (
            f"response count for {status} disagrees with stats[{key}]"
        )

    # 3. Exact rate-limit replay from the journal.
    if service.config.journal:
        _replay_rate_limits(service)

    # 4. Queue conservation.
    queue = service._queue
    assert queue.accepted == queue.delivered + queue.qsize()

    # 5. Quiescent drain.
    if drained:
        assert service.pending() == 0, "drain left pending requests"
        assert service.in_flight == 0, "drain left in-flight requests"
        assert queue.qsize() == 0, "drain left queued requests"

    # Metrics reconciliation: when a registry collected, its counters must
    # agree with the stats the invariants above validated.
    metrics = service.obs.metrics
    if metrics.enabled:
        totals = metrics.counter_totals("service.")
        assert totals.get("service.submitted", 0) == stats["submitted"]
        assert totals.get("service.accepted", 0) == stats["accepted"]
        assert totals.get("service.rejected", 0) == rejected
        assert totals.get("service.completed", 0) == completed

    return {
        "responses": len(responses),
        "accepted": stats["accepted"],
        "rejected": rejected,
        "completed": completed,
    }


def _replay_rate_limits(service: MeasurementService) -> None:
    """Replay the admission journal through fresh token buckets.

    The journal records every admission decision as (client, time,
    outcome). Rate limiting is exact when a fresh bucket, fed the same
    (time, acquire) sequence, reproduces precisely the rate-limit
    rejections the live service issued. Accepted and queue-full entries
    both consumed a token (the bucket is consulted before the queue);
    shutdown rejections never reached the bucket.
    """
    config = service.config
    buckets: Dict[str, TokenBucket] = {}
    for client_id, when, outcome in service.journal:
        if outcome == Status.REJECTED_SHUTTING_DOWN.value:
            continue
        bucket = buckets.get(client_id)
        if bucket is None:
            bucket = buckets[client_id] = TokenBucket(
                config.rate_per_client, config.burst_per_client, now=when
            )
        granted = bucket.try_acquire(when)
        expected = outcome != Status.REJECTED_RATE_LIMITED.value
        assert granted == expected, (
            f"rate-limit replay diverged for {client_id} at t={when}: "
            f"bucket {'granted' if granted else 'refused'} but service "
            f"recorded {outcome}"
        )
