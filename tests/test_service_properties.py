"""Property-based tests for the service's backpressure primitives:
randomized operation interleavings (fixed seeds, plain ``random.Random``
— no extra dependencies) against the token bucket's and bounded queue's
conservation/bound invariants, in the style of
``test_core_beacon_store_properties.py``."""

import asyncio
from random import Random

import pytest

from repro.service import BoundedQueue, QueueClosed, TokenBucket

EPS = 1e-9


# ---------------------------------------------------------------- TokenBucket


@pytest.mark.parametrize("seed", range(10))
def test_token_bucket_random_sequences_preserve_invariants(seed):
    rng = Random(seed)
    rate = rng.choice([0.0, 0.5, 2.0, 50.0])
    burst = rng.choice([1.0, 3.0, 20.0])
    bucket = TokenBucket(rate, burst, now=0.0)
    now = 0.0
    history = []
    for _ in range(400):
        # Mostly forward time steps, occasionally a repeat or a step back
        # (the bucket must clamp: earlier `now` never refills).
        roll = rng.random()
        if roll < 0.75:
            now += rng.random() * 0.2
        elif roll < 0.9:
            pass  # same instant
        else:
            now = max(0.0, now - rng.random() * 0.1)
        granted = bucket.try_acquire(now)
        history.append((now, granted))
        assert -EPS <= bucket.tokens <= burst + EPS
        if granted is False:
            # A refusal leaves the bucket untouched and really means
            # less than one token.
            assert bucket.tokens + 1e-12 < 1.0

    # Exact replay: a fresh bucket fed the same ``now`` sequence
    # reproduces every decision — the property the invariant harness
    # relies on for rate-limit verification.
    replay = TokenBucket(rate, burst, now=0.0)
    for now, granted in history:
        assert replay.try_acquire(now) == granted


def test_token_bucket_refill_is_exact():
    bucket = TokenBucket(rate=10.0, burst=5.0, now=0.0)
    for _ in range(5):
        assert bucket.try_acquire(0.0)
    assert not bucket.try_acquire(0.0)
    # 0.1s at 10 tokens/s refills exactly one token.
    assert not bucket.try_acquire(0.0999)
    assert bucket.try_acquire(0.1)
    assert not bucket.try_acquire(0.1)
    # Refill caps at burst no matter how long the idle gap.
    granted = [bucket.try_acquire(1000.0) for _ in range(6)]
    assert granted == [True] * 5 + [False]


def test_token_bucket_clamps_backwards_time():
    bucket = TokenBucket(rate=1.0, burst=2.0, now=10.0)
    assert bucket.try_acquire(10.0)
    assert bucket.try_acquire(10.0)
    # Going back in time must not mint tokens.
    assert not bucket.try_acquire(5.0)
    assert bucket.tokens == pytest.approx(0.0)


def test_token_bucket_zero_rate_never_refills():
    bucket = TokenBucket(rate=0.0, burst=3.0, now=0.0)
    for _ in range(3):
        assert bucket.try_acquire(0.0)
    assert not bucket.try_acquire(1e9)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=-1.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.0)


# --------------------------------------------------------------- BoundedQueue


@pytest.mark.parametrize("seed", range(10))
def test_queue_random_interleavings_conserve_items(seed):
    """Random producer/consumer/cancel interleavings: the queue never
    exceeds its capacity, never loses or duplicates an item, and delivers
    in FIFO order."""

    async def scenario():
        rng = Random(seed)
        queue = BoundedQueue(maxsize=rng.randint(1, 6))
        produced = []
        consumed = []
        next_item = 0
        consumers = []

        async def consume():
            try:
                item = await queue.get()
            except QueueClosed:
                return
            consumed.append(item)

        for _ in range(300):
            op = rng.randrange(100)
            if op < 45:
                accepted_before = queue.accepted
                if queue.try_put(next_item):
                    produced.append(next_item)
                    assert queue.accepted == accepted_before + 1
                else:
                    assert queue.accepted == accepted_before
                next_item += 1
            elif op < 80:
                consumers.append(asyncio.ensure_future(consume()))
            elif op < 92:
                for _ in range(rng.randint(1, 3)):
                    await asyncio.sleep(0)
            else:
                # Cancel a random consumer — dead waiters must never
                # swallow an item.
                if consumers:
                    consumers[rng.randrange(len(consumers))].cancel()
            assert queue.qsize() <= queue.maxsize
            assert queue.accepted >= queue.delivered

        queue.close()
        assert not queue.try_put(next_item), "closed queue admitted an item"
        await asyncio.gather(*consumers, return_exceptions=True)
        # Drain whatever the surviving consumers did not take.
        while True:
            try:
                consumed.append(await queue.get())
            except QueueClosed:
                break

        assert consumed == produced, "items lost, duplicated, or reordered"
        assert queue.accepted == queue.delivered
        assert queue.qsize() == 0

    asyncio.run(scenario())


def test_queue_capacity_is_hard():
    async def scenario():
        queue = BoundedQueue(maxsize=2)
        assert queue.try_put("a")
        assert queue.try_put("b")
        assert not queue.try_put("c")
        assert await queue.get() == "a"
        assert queue.try_put("c")
        assert [await queue.get(), await queue.get()] == ["b", "c"]

    asyncio.run(scenario())


def test_queue_close_wakes_parked_consumers():
    async def scenario():
        queue = BoundedQueue(maxsize=2)
        getter = asyncio.ensure_future(queue.get())
        await asyncio.sleep(0)
        queue.close()
        with pytest.raises(QueueClosed):
            await getter
        with pytest.raises(QueueClosed):
            await queue.get()

    asyncio.run(scenario())


def test_queue_close_drains_backlog_first():
    async def scenario():
        queue = BoundedQueue(maxsize=4)
        for item in ("x", "y"):
            assert queue.try_put(item)
        queue.close()
        # The backlog admitted before close is still delivered, in order.
        assert await queue.get() == "x"
        assert await queue.get() == "y"
        with pytest.raises(QueueClosed):
            await queue.get()
        assert queue.accepted == queue.delivered == 2

    asyncio.run(scenario())
