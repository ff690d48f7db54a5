"""Regression tests for interleaved use of the control plane from
concurrent service requests: the invalidation-during-lookup hazard, the
segment cache's copy-on-read and generation counter, and the revocation
epoch that makes cross-await staleness detectable."""

import pytest

from repro.control.path_server import SegmentCache
from repro.control.segments import PathSegment, SegmentType
from repro.service import (
    MeasurementService,
    Request,
    RequestKind,
    ServiceConfig,
    SessionConfig,
    Status,
    VirtualClock,
    run_virtual,
)
from repro.service.session import build_session_network


@pytest.fixture(scope="module")
def network():
    return build_session_network(SessionConfig(scale="mini"))


def make_segment(asns, now=0.0):
    return PathSegment(
        segment_type=SegmentType.DOWN,
        asns=tuple(asns),
        link_ids=tuple(range(1, len(asns))),
        issued_at=now,
        expires_at=now + 3600.0,
    )


# --------------------------------------------------------------- SegmentCache


def test_cache_get_returns_a_copy():
    cache = SegmentCache()
    segments = [make_segment([1, 2, 3])]
    cache.put("dst", segments, now=0.0)
    first = cache.get("dst", now=1.0)
    # A task suspended while holding a result cannot corrupt the entry.
    first.append("garbage")
    second = cache.get("dst", now=2.0)
    assert second == segments
    assert second is not first


def test_cache_generation_bumps_on_explicit_invalidation():
    cache = SegmentCache()
    cache.put("dst", [make_segment([1, 2])], now=0.0)
    generation = cache.generation
    cache.get("dst", now=1.0)  # reads never bump
    assert cache.generation == generation
    cache.invalidate("dst")
    assert cache.generation == generation + 1
    cache.clear()
    assert cache.generation == generation + 2
    # A stale reader comparing generations detects the interleaving.
    assert cache.get("dst", now=1.0) is None


def test_cache_invalidate_during_iteration_of_returned_list():
    cache = SegmentCache()
    segments = [make_segment([1, 2, 3]), make_segment([1, 4, 3])]
    cache.put("dst", segments, now=0.0)
    held = cache.get("dst", now=1.0)
    cache.invalidate("dst")  # interleaved invalidation
    # The held snapshot is still fully iterable and intact.
    assert [s.last_asn for s in held] == [3, 3]


# ----------------------------------------------------------- RevocationService


def test_revocation_epoch_tracks_every_state_change(network):
    revocations = network.revocations
    link_id = next(iter(network.topology.links())).link_id
    epoch = revocations.epoch
    revocations.revoke_link(link_id, now=network.now)
    assert revocations.epoch == epoch + 1
    assert revocations.clear(link_id)
    assert revocations.epoch == epoch + 2
    # Clearing a link with no pending revocation is not a state change.
    assert not revocations.clear(link_id)
    assert revocations.epoch == epoch + 2


# --------------------------------------------- invalidation-during-lookup


def leaf_and_endpoints(network):
    """A leaf destination, its sole attachment link, and a remote source."""
    topology = network.topology
    leaf_links = [l for l in topology.links() if l.location == "leaf"]
    # A leaf AS that is nobody's parent: every path to it crosses its one
    # provider link.
    parents = {l.a.asn for l in leaf_links}
    target = next(l for l in leaf_links if l.b.asn not in parents)
    dst = target.b.asn
    src = next(
        asn for asn in sorted(topology.non_core_asns())
        if asn != dst and topology.as_node(asn).isd != topology.as_node(dst).isd
    )
    return target.link_id, src, dst


def test_lookup_revalidates_after_interleaved_fault(network):
    """A fault injected while a lookup is suspended must not let the
    lookup return paths crossing the failed link (DESIGN.md §10)."""
    link_id, src, dst = leaf_and_endpoints(network)
    config = ServiceConfig(request_timeout=0.0, maintenance_interval=0.0)

    def run(inject_mid_flight):
        clock = VirtualClock()
        service = MeasurementService(network, config=config, clock=clock)

        async def main():
            await service.start()
            # The lookup resolves its candidates, then sleeps 0.5s.
            pending = service.submit(Request(
                kind=RequestKind.LOOKUP_PATHS, client_id="reader",
                src=src, dst=dst, cost=0.5,
            ))
            await clock.sleep(0.2)
            if inject_mid_flight:
                await service.request(
                    RequestKind.INJECT_FAULT, "chaos",
                    action="fail", link_id=link_id,
                )
            response = await pending
            await service.drain()
            return response

        try:
            return run_virtual(main, clock=clock)
        finally:
            network.recover_link(link_id)

    clean = run(inject_mid_flight=False)
    assert clean.status is Status.OK
    assert clean.payload[1] > 0, "control run must find paths"

    raced = run(inject_mid_flight=True)
    assert raced.status is Status.OK
    # The candidates computed before the fault all crossed the revoked
    # attachment link; re-validation must have filtered every one.
    assert raced.payload[1] == 0


def test_fresh_lookup_after_recovery_sees_paths_again(network):
    link_id, src, dst = leaf_and_endpoints(network)
    network.fail_link(link_id)
    filtered = network.usable_paths(src, dst)
    assert all(link_id not in p.link_ids for p in filtered)
    network.recover_link(link_id)
    paths = network.lookup_paths(src, dst)
    assert paths, "recovery must restore reachability"
