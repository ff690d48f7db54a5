"""Virtual-clock unit tests for the measurement service: admission
control, exact rate limiting, timeout/backoff classification, result
pagination, graceful drain, and the deadlock detector. Every scenario
runs under :func:`repro.service.run_virtual` — zero wall-clock sleeps."""

import asyncio

import pytest

from repro.service import (
    DeadlockError,
    MeasurementService,
    Request,
    RequestKind,
    ServiceConfig,
    SessionConfig,
    Status,
    VirtualClock,
    check_invariants,
    run_virtual,
)
from repro.service.session import build_session_network


@pytest.fixture(scope="module")
def network():
    return build_session_network(SessionConfig(scale="mini"))


@pytest.fixture
def endpoints(network):
    return sorted(network.topology.non_core_asns())


def run_scenario(network, scenario, config=None):
    """Build a service on a fresh virtual clock and drive ``scenario``."""
    clock = VirtualClock()
    service = MeasurementService(
        network, config=config or ServiceConfig(), clock=clock
    )

    async def main():
        await service.start()
        result = await scenario(service)
        await service.drain()
        return result

    return service, run_virtual(main, clock=clock)


# ----------------------------------------------------------------- happy path


def test_lookup_roundtrip(network, endpoints):
    src, dst = endpoints[0], endpoints[-1]

    async def scenario(service):
        return await service.request(
            RequestKind.LOOKUP_PATHS, "alice", src=src, dst=dst
        )

    service, response = run_scenario(network, scenario)
    assert response.status is Status.OK
    assert response.attempts == 1
    kind, count, best = response.payload
    assert kind == "paths" and count > 0 and len(best) >= 2
    # Latency is exactly the configured simulated service time.
    assert response.latency == pytest.approx(service.config.lookup_cost)
    check_invariants(service, [response])


def test_traffic_roundtrip(network, endpoints):
    src, dst = endpoints[1], endpoints[-2]

    async def scenario(service):
        return await service.request(
            RequestKind.SUBMIT_TRAFFIC, "bob", src=src, dst=dst,
            num_packets=4,
        )

    service, response = run_scenario(network, scenario)
    assert response.status is Status.OK
    kind, delivered, completed, latency = response.payload
    assert kind == "traffic"
    assert completed == 1 and delivered == 4 and latency > 0
    check_invariants(service, [response])


def test_fault_inject_and_recover(network):
    from repro.service.session import leaf_fault_links

    link_id = leaf_fault_links(network)[0]

    async def scenario(service):
        failed = await service.request(
            RequestKind.INJECT_FAULT, "ops", action="fail", link_id=link_id
        )
        recovered = await service.request(
            RequestKind.INJECT_FAULT, "ops", action="recover",
            link_id=link_id,
        )
        return failed, recovered

    service, (failed, recovered) = run_scenario(network, scenario)
    assert failed.status is Status.OK and recovered.status is Status.OK
    # Each fault transition bumps the revocation epoch.
    assert recovered.payload[3] > failed.payload[3]
    assert not network.revocations.is_revoked(link_id, network.now)
    check_invariants(service, [failed, recovered])


# ------------------------------------------------------------------ admission


def test_queue_full_rejections_are_immediate(network, endpoints):
    src, dst = endpoints[0], endpoints[-1]
    config = ServiceConfig(
        workers=1, queue_depth=2, burst_per_client=100.0,
        maintenance_interval=0.0,
    )

    async def scenario(service):
        # Submit without yielding: admission is synchronous, the workers
        # have not run yet, so exactly queue_depth requests fit.
        futures = [
            service.submit(Request(
                kind=RequestKind.LOOKUP_PATHS, client_id="carol",
                src=src, dst=dst,
            ))
            for _ in range(6)
        ]
        rejected_now = [f for f in futures if f.done()]
        assert len(rejected_now) == 4, "rejections must resolve at submit"
        return await asyncio.gather(*futures)

    service, responses = run_scenario(network, scenario, config)
    by_status = [r.status for r in responses]
    assert by_status.count(Status.OK) == 2
    assert by_status.count(Status.REJECTED_QUEUE_FULL) == 4
    assert service.stats["rejected_queue_full"] == 4
    # Rejections never consumed a worker attempt.
    assert all(r.attempts == 0 for r in responses if r.rejected)
    check_invariants(service, responses)


def test_rate_limiting_is_exact(network, endpoints):
    src, dst = endpoints[0], endpoints[1]
    config = ServiceConfig(
        rate_per_client=0.0, burst_per_client=2.0, queue_depth=32,
        maintenance_interval=0.0,
    )

    async def scenario(service):
        futures = [
            service.submit(Request(
                kind=RequestKind.LOOKUP_PATHS, client_id="dave",
                src=src, dst=dst,
            ))
            for _ in range(5)
        ]
        # A different client has its own bucket.
        futures.append(service.submit(Request(
            kind=RequestKind.LOOKUP_PATHS, client_id="erin",
            src=src, dst=dst,
        )))
        return await asyncio.gather(*futures)

    service, responses = run_scenario(network, scenario, config)
    dave = [r for r in responses if r.client_id == "dave"]
    assert [r.status for r in dave].count(Status.REJECTED_RATE_LIMITED) == 3
    assert responses[-1].status is Status.OK
    # check_invariants replays the journal through fresh buckets — the
    # exactness guarantee.
    check_invariants(service, responses)


# ------------------------------------------------------------ timeout/backoff


def test_timeout_retries_with_exponential_backoff(network, endpoints):
    src, dst = endpoints[0], endpoints[-1]
    config = ServiceConfig(
        request_timeout=0.1, max_attempts=3, backoff_base=0.05,
        backoff_factor=2.0, maintenance_interval=0.0,
    )

    async def scenario(service):
        return await service.request(
            RequestKind.LOOKUP_PATHS, "frank", src=src, dst=dst, cost=10.0
        )

    service, response = run_scenario(network, scenario, config)
    assert response.status is Status.TIMEOUT
    assert response.attempts == 3
    # 3 timed-out attempts (0.1 each) + backoffs 0.05 and 0.10 — exact
    # under the virtual clock.
    assert response.latency == pytest.approx(0.3 + 0.05 + 0.10)
    assert service.stats["retries"] == 2
    assert service.stats["timeouts_observed"] == 3
    check_invariants(service, [response])


def test_permanent_failures_do_not_retry(network):
    async def scenario(service):
        return await service.request(
            RequestKind.INJECT_FAULT, "grace", action="scramble", link_id=1
        )

    service, response = run_scenario(network, scenario)
    assert response.status is Status.FAILED
    assert response.attempts == 1, "domain errors must fail fast"
    assert "scramble" in response.error
    assert service.stats["retries"] == 0
    check_invariants(service, [response])


def test_fast_request_beats_timeout(network, endpoints):
    src, dst = endpoints[0], endpoints[-1]
    config = ServiceConfig(request_timeout=0.1, maintenance_interval=0.0)

    async def scenario(service):
        return await service.request(
            RequestKind.LOOKUP_PATHS, "heidi", src=src, dst=dst, cost=0.05
        )

    service, response = run_scenario(network, scenario, config)
    assert response.status is Status.OK and response.attempts == 1
    assert service.stats["timeouts_observed"] == 0
    check_invariants(service, [response])


# ----------------------------------------------------------------- pagination


def test_results_pagination_absolute_offsets(network, endpoints):
    src, dst = endpoints[0], endpoints[1]

    async def scenario(service):
        for _ in range(7):
            await service.request(
                RequestKind.LOOKUP_PATHS, "ivan", src=src, dst=dst
            )
        return None

    service, _ = run_scenario(network, scenario)
    first = service.results_page("ivan", offset=0, limit=3)
    assert first.total == 7 and first.first_offset == 0
    assert len(first.items) == 3 and first.next_offset == 3
    second = service.results_page("ivan", offset=first.next_offset, limit=3)
    assert second.next_offset == 6
    last = service.results_page("ivan", offset=second.next_offset, limit=3)
    assert len(last.items) == 1 and last.next_offset is None
    # Pages tile the log exactly once.
    ids = [item[0] for page in (first, second, last) for item in page.items]
    assert ids == sorted(ids) and len(set(ids)) == 7
    # Unknown clients and out-of-range offsets yield empty pages.
    assert service.results_page("nobody").items == ()
    assert service.results_page("ivan", offset=99).items == ()


def test_result_log_is_bounded_and_offsets_survive_drops(network, endpoints):
    src, dst = endpoints[0], endpoints[1]
    config = ServiceConfig(results_per_client=4, maintenance_interval=0.0)

    async def scenario(service):
        for _ in range(10):
            await service.request(
                RequestKind.LOOKUP_PATHS, "judy", src=src, dst=dst
            )
        return None

    service, _ = run_scenario(network, scenario, config)
    assert service.stats["results_dropped"] == 6
    page = service.results_page("judy", offset=0, limit=10)
    # The oldest surviving record is at absolute offset 6.
    assert page.first_offset == 6 and page.total == 10
    assert len(page.items) == 4 and page.next_offset is None


def test_get_results_request_kind(network, endpoints):
    src, dst = endpoints[0], endpoints[1]

    async def scenario(service):
        await service.request(
            RequestKind.LOOKUP_PATHS, "kate", src=src, dst=dst
        )
        return await service.request(
            RequestKind.GET_RESULTS, "kate", offset=0, limit=10
        )

    service, response = run_scenario(network, scenario)
    kind, total, first_offset, next_offset, items = response.payload
    assert kind == "results" and total == 1 and first_offset == 0
    assert next_offset == -1
    assert items[0][1] == RequestKind.LOOKUP_PATHS.value


# ---------------------------------------------------------------------- drain


def test_drain_finishes_backlog_and_rejects_new(network, endpoints):
    src, dst = endpoints[0], endpoints[-1]
    config = ServiceConfig(
        workers=1, queue_depth=8, request_timeout=0.0,
        maintenance_interval=0.0,
    )

    async def scenario(service):
        slow = [
            service.submit(Request(
                kind=RequestKind.LOOKUP_PATHS, client_id="liam",
                src=src, dst=dst, cost=0.5,
            ))
            for _ in range(3)
        ]
        drain_task = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0)
        late = await service.submit(Request(
            kind=RequestKind.LOOKUP_PATHS, client_id="liam",
            src=src, dst=dst,
        ))
        assert late.status is Status.REJECTED_SHUTTING_DOWN
        backlog = await asyncio.gather(*slow)
        await drain_task
        return backlog + [late]

    clock = VirtualClock()
    service = MeasurementService(network, config=config, clock=clock)

    async def main():
        await service.start()
        return await scenario(service)

    responses = run_virtual(main, clock=clock)
    # Every request admitted before the drain completed normally.
    assert [r.status for r in responses[:3]] == [Status.OK] * 3
    assert service.in_flight == 0 and service.pending() == 0
    check_invariants(service, responses)


def test_deadlock_detection():
    clock = VirtualClock()

    async def main():
        await asyncio.get_event_loop().create_future()  # never resolves

    with pytest.raises(DeadlockError):
        run_virtual(main, clock=clock)


def test_virtual_clock_fires_ties_in_registration_order():
    clock = VirtualClock()
    order = []

    async def sleeper(tag, delay):
        await clock.sleep(delay)
        order.append(tag)

    async def main():
        await asyncio.gather(
            sleeper("a", 1.0), sleeper("b", 1.0), sleeper("c", 0.5)
        )

    run_virtual(main, clock=clock)
    assert order == ["c", "a", "b"]
    assert clock.now() == pytest.approx(1.0)
