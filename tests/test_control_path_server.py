"""Tests for the path-server infrastructure and revocation service."""

from types import SimpleNamespace

import pytest

from repro.control import (
    Component,
    ControlMessageLog,
    CorePathServer,
    LocalPathServer,
    PathSegment,
    RevocationService,
    Scope,
    SegmentCache,
    SegmentType,
)
from repro.core import PCB
from repro.topology import Relationship, Topology


def down_segment(core=1, leaf=5, links=(10, 11), issued_at=0.0, lifetime=3600.0):
    pcb = PCB.originate(core, issued_at, lifetime)
    asn = 100
    for link in links[:-1]:
        pcb = pcb.extend(link, asn)
        asn += 1
    pcb = pcb.extend(links[-1], leaf)
    return PathSegment.from_pcb(pcb, SegmentType.DOWN)


def core_segment(local=1, remote=2, link=30):
    pcb = PCB.originate(remote, 0.0, 3600.0).extend(link, local)
    return PathSegment.from_pcb(pcb, SegmentType.CORE).reversed()


class TestSegmentCache:
    def test_miss_then_hit(self):
        cache = SegmentCache(ttl=100.0)
        assert cache.get(5, now=0.0) is None
        cache.put(5, [down_segment()], now=0.0)
        assert cache.get(5, now=50.0) is not None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_ttl_expiry(self):
        cache = SegmentCache(ttl=100.0)
        cache.put(5, [down_segment()], now=0.0)
        assert cache.get(5, now=150.0) is None

    def test_entry_never_outlives_segments(self):
        cache = SegmentCache(ttl=10_000.0)
        cache.put(5, [down_segment(lifetime=100.0)], now=0.0)
        assert cache.get(5, now=200.0) is None

    def test_invalidate(self):
        cache = SegmentCache()
        cache.put(5, [down_segment()], now=0.0)
        cache.invalidate(5)
        assert cache.get(5, now=1.0) is None

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            SegmentCache(ttl=0.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SegmentCache(max_entries=0)

    def test_capacity_evicts_least_recently_used(self):
        cache = SegmentCache(ttl=1000.0, max_entries=2)
        cache.put(1, [down_segment()], now=0.0)
        cache.put(2, [down_segment()], now=1.0)
        # Touch 1 so 2 becomes the LRU entry, then overflow.
        assert cache.get(1, now=2.0) is not None
        cache.put(3, [down_segment()], now=3.0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(2, now=4.0) is None
        assert cache.get(1, now=4.0) is not None
        assert cache.get(3, now=4.0) is not None

    def test_overflow_sweeps_expired_before_evicting(self):
        cache = SegmentCache(ttl=100.0, max_entries=2)
        cache.put(1, [down_segment()], now=0.0)
        cache.put(2, [down_segment()], now=150.0)
        # Entry 1 is already expired at the overflow point: the sweep
        # reclaims it and the live entry 2 survives.
        cache.put(3, [down_segment()], now=160.0)
        assert cache.expirations == 1
        assert cache.evictions == 0
        assert cache.get(2, now=170.0) is not None
        assert cache.get(3, now=170.0) is not None

    def test_refresh_marks_entry_recently_used(self):
        cache = SegmentCache(ttl=1000.0, max_entries=2)
        cache.put(1, [down_segment()], now=0.0)
        cache.put(2, [down_segment()], now=1.0)
        cache.put(1, [down_segment()], now=2.0)  # refresh, not insert
        cache.put(3, [down_segment()], now=3.0)  # evicts 2, the LRU
        assert cache.get(1, now=4.0) is not None
        assert cache.get(2, now=4.0) is None

    def test_sweep_counts_expired_entries(self):
        cache = SegmentCache(ttl=100.0)
        cache.put(1, [down_segment()], now=0.0)
        cache.put(2, [down_segment()], now=90.0)
        assert cache.sweep(now=120.0) == 1
        assert cache.expirations == 1
        assert len(cache) == 1

    def test_clear_preserves_counters(self):
        cache = SegmentCache()
        cache.put(1, [down_segment()], now=0.0)
        cache.get(1, now=1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestCorePathServer:
    def test_registration_and_lookup(self):
        server = CorePathServer(1, isd=1)
        segment = down_segment(core=1, leaf=5)
        assert server.register_down_segment(segment, now=1.0)
        assert server.down_segments(5, now=10.0) == [segment]

    def test_registration_logged_as_isd_scope(self):
        log = ControlMessageLog()
        server = CorePathServer(1, isd=1, log=log)
        server.register_down_segment(down_segment(), now=1.0)
        messages = log.messages(Component.PATH_REGISTRATION)
        assert len(messages) == 1
        assert messages[0].scope is Scope.ISD

    def test_expired_segment_rejected(self):
        server = CorePathServer(1, isd=1)
        assert not server.register_down_segment(
            down_segment(lifetime=10.0), now=100.0
        )

    def test_wrong_type_rejected(self):
        server = CorePathServer(1, isd=1)
        with pytest.raises(ValueError):
            server.register_down_segment(core_segment(), now=1.0)

    def test_cross_isd_lookup_is_global_and_cached(self):
        log = ControlMessageLog()
        local = CorePathServer(1, isd=1, log=log)
        remote = CorePathServer(2, isd=2, log=log)
        local.peers = {2: remote}
        remote.peers = {1: local}
        segment = down_segment(core=2, leaf=9)
        remote.register_down_segment(segment, now=0.0)
        first = local.lookup_down(9, dst_isd=2, now=1.0, requester=7)
        assert first == [segment]
        global_messages = [
            m
            for m in log.messages(Component.DOWN_SEGMENT_LOOKUP)
            if m.scope is Scope.GLOBAL
        ]
        assert len(global_messages) == 2  # request + response
        # Second lookup served from cache: no new global messages.
        local.lookup_down(9, dst_isd=2, now=2.0, requester=7)
        global_after = [
            m
            for m in log.messages(Component.DOWN_SEGMENT_LOOKUP)
            if m.scope is Scope.GLOBAL
        ]
        assert len(global_after) == 2

    def test_core_lookup(self):
        server = CorePathServer(1, isd=1)
        segment = core_segment(local=1, remote=2)
        server.store_core_segment(segment)
        assert server.lookup_core(2, now=1.0, requester=7) == [segment]

    def test_revoke_link_drops_segments(self):
        server = CorePathServer(1, isd=1)
        server.register_down_segment(down_segment(links=(10, 11)), now=0.0)
        server.register_down_segment(down_segment(links=(12, 13)), now=0.0)
        assert server.revoke_link(11, now=1.0) == 1
        assert len(server.down_segments(5, now=1.0)) == 1


class TestLocalPathServer:
    def make_pair(self):
        log = ControlMessageLog()
        core = CorePathServer(1, isd=1, log=log)
        local = LocalPathServer(7, isd=1, core_server=core, log=log)
        return log, core, local

    def test_down_lookup_via_core_then_cache(self):
        log, core, local = self.make_pair()
        segment = down_segment(core=1, leaf=5)
        core.register_down_segment(segment, now=0.0)
        assert local.lookup_down(5, dst_isd=1, now=1.0) == [segment]
        before = log.count(Component.DOWN_SEGMENT_LOOKUP)
        assert local.lookup_down(5, dst_isd=1, now=2.0) == [segment]
        assert log.count(Component.DOWN_SEGMENT_LOOKUP) == before  # cached

    def test_core_lookup_cached(self):
        log, core, local = self.make_pair()
        core.store_core_segment(core_segment(local=1, remote=2))
        local.lookup_core(2, now=1.0)
        before = log.count(Component.CORE_SEGMENT_LOOKUP)
        local.lookup_core(2, now=2.0)
        assert log.count(Component.CORE_SEGMENT_LOOKUP) == before

    def test_endpoint_lookup_is_as_scope(self):
        log, _core, local = self.make_pair()
        local.endpoint_lookup(now=1.0)
        messages = log.messages(Component.ENDPOINT_PATH_LOOKUP)
        assert len(messages) == 1
        assert messages[0].scope is Scope.AS


class TestRevocationService:
    def make(self):
        topo = Topology()
        topo.add_as(1, isd=1, is_core=True)
        topo.add_as(2, isd=1, is_core=True)
        topo.add_as(5, isd=1)
        link_a = topo.add_link(1, 2, Relationship.CORE)
        link_b = topo.add_link(1, 5, Relationship.PROVIDER_CUSTOMER)
        log = ControlMessageLog()
        servers = {
            1: CorePathServer(1, isd=1, log=log),
            2: CorePathServer(2, isd=1, log=log),
        }
        return topo, servers, log, link_a, link_b

    def test_revocation_is_intra_isd(self):
        topo, servers, log, link_a, _ = self.make()
        service = RevocationService(topo, servers, log)
        revocation = service.revoke_link(link_a.link_id, now=1.0)
        assert revocation.is_valid(2.0)
        assert not revocation.is_valid(1e9)
        messages = log.messages(Component.PATH_REVOCATION)
        assert messages
        assert all(m.scope in (Scope.ISD, Scope.AS) for m in messages)

    def test_scmp_notifications_only_to_affected(self):
        topo, servers, log, link_a, link_b = self.make()
        service = RevocationService(topo, servers, log)
        revocation = service.revoke_link(link_a.link_id, now=1.0)
        notified = service.notify_path_users(
            revocation,
            {
                100: [(link_a.link_id,)],
                200: [(link_b.link_id,)],
            },
            now=1.0,
        )
        assert [n.notified_endpoint for n in notified] == [100]

    def test_filter_paths_drops_revoked(self):
        topo, servers, log, link_a, link_b = self.make()
        service = RevocationService(topo, servers, log)
        service.revoke_link(link_a.link_id, now=1.0)
        paths = [
            SimpleNamespace(link_ids=(link_a.link_id,)),
            SimpleNamespace(link_ids=(link_b.link_id,)),
        ]
        assert service.filter_paths(paths, now=2.0) == paths[1:]
        # Revocations expire; the path becomes usable again.
        assert len(service.filter_paths(paths, now=1e9)) == 2
