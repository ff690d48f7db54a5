"""Behavioural tests for the baseline and diversity algorithms."""

import pytest

from repro.core import (
    BaselineAlgorithm,
    BeaconStore,
    DiversityAlgorithm,
    DiversityParams,
    PCB,
    SentRecord,
    SentRegistry,
)
from repro.topology import Relationship, Topology

LIFETIME = 6 * 3600.0


@pytest.fixture()
def diamond():
    """2 parallel links 1<->2 plus a path 1-3-2; all core links.

      1 ==(L1,L2)== 2
       \\           /
        (L3) 3 (L4)
    """
    topo = Topology("diamond")
    for asn in (1, 2, 3):
        topo.add_as(asn, is_core=True)
    topo.add_link(1, 2, Relationship.CORE, location="a")  # link 1
    topo.add_link(1, 2, Relationship.CORE, location="b")  # link 2
    topo.add_link(1, 3, Relationship.CORE)  # link 3
    topo.add_link(3, 2, Relationship.CORE)  # link 4
    return topo


def store_with(pcbs, now=0.0, limit=None):
    store = BeaconStore(limit)
    for pcb in pcbs:
        assert store.insert(pcb, now)
    return store


class TestBaseline:
    def test_sends_k_shortest_per_origin_per_interface(self, diamond):
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=2)
        # Origin 9 beacons arriving at AS 1 via three distinct paths.
        pcbs = [
            PCB.originate(9, 0.0, LIFETIME).extend(100 + i, 1)
            for i in range(3)
        ]
        store = store_with(pcbs)
        links = [l for l in diamond.as_node(1).links() if l.other(1) == 3]
        out = algo.select(store, links, now=600.0)
        assert len(out) == 2  # limit per interface
        assert all(t.receiver == 3 for t in out)
        assert all(t.pcb.path_asns()[-1] == 3 for t in out)

    def test_limit_is_per_interface_not_per_neighbor(self, diamond):
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=2)
        pcbs = [
            PCB.originate(9, 0.0, LIFETIME).extend(100 + i, 1)
            for i in range(3)
        ]
        store = store_with(pcbs)
        links_to_2 = diamond.links_between(1, 2)
        out = algo.select(store, links_to_2, now=600.0)
        assert len(out) == 4  # 2 per parallel interface

    def test_never_sends_to_as_on_path(self, diamond):
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=5)
        via_3 = PCB.originate(9, 0.0, LIFETIME).extend(100, 3).extend(3, 1)
        store = store_with([via_3])
        links = [l for l in diamond.as_node(1).links() if l.other(1) == 3]
        assert algo.select(store, links, now=600.0) == []

    def test_resends_every_interval(self, diamond):
        """The baseline is history-free: identical selections repeat."""
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=5)
        store = store_with([PCB.originate(9, 0.0, LIFETIME).extend(100, 1)])
        links = diamond.links_between(1, 2)[:1]
        first = algo.select(store, links, now=600.0)
        second = algo.select(store, links, now=1200.0)
        assert len(first) == len(second) == 1
        assert first[0].pcb.path_key() == second[0].pcb.path_key()

    def test_prefers_shortest_paths(self, diamond):
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=1)
        short = PCB.originate(9, 0.0, LIFETIME).extend(100, 1)
        long = (
            PCB.originate(9, 0.0, LIFETIME)
            .extend(101, 8)
            .extend(102, 7)
            .extend(103, 1)
        )
        store = store_with([long, short])
        links = diamond.links_between(1, 2)[:1]
        out = algo.select(store, links, now=600.0)
        assert out[0].pcb.link_ids()[0] == 100

    def test_expired_beacons_not_sent(self, diamond):
        algo = BaselineAlgorithm(1, diamond, dissemination_limit=5)
        store = store_with([PCB.originate(9, 0.0, 100.0).extend(100, 1)])
        links = diamond.links_between(1, 2)[:1]
        assert algo.select(store, links, now=500.0) == []


class TestDiversity:
    def make_algo(self, topo, **kwargs):
        params = kwargs.pop(
            "params",
            DiversityParams(alpha=1.0, beta=2.0, gamma=4.0,
                            score_threshold=0.05),
        )
        return DiversityAlgorithm(1, topo, params=params, **kwargs)

    def test_limit_is_per_neighbor_across_parallel_links(self, diamond):
        algo = self.make_algo(diamond, dissemination_limit=2)
        pcbs = [
            PCB.originate(9, 0.0, LIFETIME).extend(100 + i, 1)
            for i in range(4)
        ]
        store = store_with(pcbs)
        links_to_2 = diamond.links_between(1, 2)
        out = algo.select(store, links_to_2, now=600.0)
        assert len(out) == 2  # per neighbor, despite 2 parallel interfaces

    def test_selections_spread_over_parallel_links(self, diamond):
        """Link-disjointness pushes consecutive picks onto distinct links."""
        algo = self.make_algo(diamond, dissemination_limit=2)
        pcbs = [
            PCB.originate(9, 0.0, LIFETIME).extend(100 + i, 1)
            for i in range(4)
        ]
        store = store_with(pcbs)
        out = algo.select(store, diamond.links_between(1, 2), now=600.0)
        used_egress = {t.link.link_id for t in out}
        assert len(used_egress) == 2

    def test_suppresses_resends_next_interval(self, diamond):
        algo = self.make_algo(diamond, dissemination_limit=5)
        pcb = PCB.originate(9, 0.0, LIFETIME).extend(100, 1)
        store = store_with([pcb])
        links = diamond.links_between(1, 2)[:1]
        first = algo.select(store, links, now=600.0)
        assert len(first) == 1
        # Same store next interval: the path was just sent, score suppressed.
        second = algo.select(store, links, now=1200.0)
        assert second == []

    def test_refreshes_path_near_expiry(self, diamond):
        algo = self.make_algo(diamond, dissemination_limit=5)
        old = PCB.originate(9, 0.0, LIFETIME).extend(100, 1)
        store = store_with([old])
        links = diamond.links_between(1, 2)[:1]
        assert len(algo.select(store, links, now=600.0)) == 1
        # A newer instance of the same path arrives; old instance nearly out.
        near_expiry = LIFETIME - 600.0
        fresh = PCB.originate(9, near_expiry - 300.0, LIFETIME).extend(100, 1)
        store2 = store_with([fresh], now=near_expiry)
        out = algo.select(store2, links, now=near_expiry)
        assert len(out) == 1
        assert out[0].pcb.path_key() == old.extend(
            links[0].link_id, 2
        ).path_key()

    def test_never_sends_to_as_on_path(self, diamond):
        algo = self.make_algo(diamond)
        via_2 = PCB.originate(9, 0.0, LIFETIME).extend(100, 2).extend(1, 1)
        store = store_with([via_2])
        assert algo.select(store, diamond.links_between(1, 2), now=600.0) == []

    def test_counters_track_sent_paths(self, diamond):
        algo = self.make_algo(diamond, dissemination_limit=2)
        pcbs = [
            PCB.originate(9, 0.0, LIFETIME).extend(100 + i, 1)
            for i in range(2)
        ]
        store = store_with(pcbs)
        out = algo.select(store, diamond.links_between(1, 2), now=600.0)
        table = algo.history.table(9, 2)
        for transmission in out:
            for link_id in transmission.pcb.link_ids():
                assert table.counter(link_id) >= 1

    def test_expiry_releases_counters(self, diamond):
        algo = self.make_algo(diamond)
        pcb = PCB.originate(9, 0.0, 1200.0).extend(100, 1)
        store = store_with([pcb])
        links = diamond.links_between(1, 2)[:1]
        algo.select(store, links, now=600.0)
        table = algo.history.table(9, 2)
        assert table.counter(100) == 1
        # After expiry of the sent instance the counters are released.
        empty = BeaconStore()
        algo.select(empty, links, now=2000.0)
        assert table.counter(100) == 0

    def test_diversity_prefers_disjoint_path(self, diamond):
        """After sending via link 100, a path over fresh links outranks a
        second path overlapping link 100."""
        algo = self.make_algo(diamond, dissemination_limit=1)
        shared = PCB.originate(9, 0.0, LIFETIME).extend(100, 8).extend(101, 1)
        store = store_with([shared])
        links = diamond.links_between(1, 2)[:1]
        assert len(algo.select(store, links, now=600.0)) == 1
        # Next interval: overlapping vs disjoint candidates.
        overlapping = (
            PCB.originate(9, 0.0, LIFETIME).extend(100, 8).extend(102, 1)
        )
        disjoint = (
            PCB.originate(9, 0.0, LIFETIME).extend(103, 7).extend(104, 1)
        )
        store2 = store_with([overlapping, disjoint])
        out = algo.select(store2, links, now=1200.0)
        assert len(out) == 1
        assert out[0].pcb.link_ids()[:2] == (103, 104)

    def test_threshold_stops_selection(self, diamond):
        """With a saturating history, candidates fall below the threshold."""
        params = DiversityParams(
            alpha=8.0, beta=2.0, gamma=4.0, score_threshold=0.9,
        )
        algo = DiversityAlgorithm(1, diamond, dissemination_limit=5,
                                  params=params)
        links = diamond.links_between(1, 2)[:1]
        first_path = PCB.originate(9, 0.0, LIFETIME).extend(100, 1)
        second_path = PCB.originate(9, 0.0, LIFETIME).extend(105, 1)
        store = store_with([first_path, second_path])
        first = algo.select(store, links, now=600.0)
        assert len(first) == 2
        # A new aged path over exclusively already-used links: geometric
        # mean 2 ** (1/3) -> ds = 1 - 1.26 / MAX_ACCEPTABLE_GM ~ 0.75, and
        # the age exponent 8 * 3600 / LIFETIME takes the score to ~ 0.68,
        # below the threshold.
        reused = PCB.originate(9, 0.0, LIFETIME).extend(100, 8).extend(105, 1)
        store2 = store_with([reused])
        assert algo.select(store2, links, now=3600.0) == []


class TestSentRegistry:
    def test_add_and_lookup(self):
        registry = SentRegistry()
        record = SentRecord(
            path_key=(9, (1, 2)), egress_link_id=5, diversity_score=0.5,
            expires_at=100.0, neighbor=2,
        )
        registry.add(record)
        assert record.egress_link_id == 5
        assert record.origin == 9 and record.counted_links == (1, 2, 5)
        assert registry.record(2, (9, (1, 2)), 5) is record
        assert registry.path_records(2, (9, (1, 2))) == (record,)
        assert record.is_valid(50.0) and not record.is_valid(150.0)
        # Another egress link, another neighbor, another path: no record.
        assert registry.record(2, (9, (1, 2)), 6) is None
        assert registry.record(3, (9, (1, 2)), 5) is None
        assert registry.record(2, (9, (1,)), 5) is None
        assert registry.path_records(3, (9, (1, 2))) == ()

    def test_records_of_one_path_are_kept_per_egress_link(self):
        registry = SentRegistry()
        on_5, on_6, again_on_5 = (
            SentRecord(
                path_key=(9, (1,)), egress_link_id=egress,
                diversity_score=0.5, expires_at=issued + 100.0, neighbor=2,
            )
            for egress, issued in ((5, 0.0), (6, 0.0), (5, 50.0))
        )
        registry.add(on_5)
        registry.add(on_6)
        assert registry.path_records(2, (9, (1,))) == (on_5, on_6)
        registry.add(again_on_5)  # replaces the record for its link
        assert registry.record(2, (9, (1,)), 5) is again_on_5
        assert registry.record(2, (9, (1,)), 6) is on_6
        assert len(registry) == 2
        assert registry.purge_crossing(6) == [on_6]
        assert list(registry.records()) == [again_on_5]
        assert registry.purge_crossing(1) == [again_on_5]
        assert len(registry) == 0 and not registry._by_pair

    def test_purge_returns_expired(self):
        registry = SentRegistry()
        expiring = SentRecord(
            path_key=(9, (1,)), egress_link_id=5, diversity_score=0.5,
            expires_at=100.0, neighbor=2,
        )
        lasting = SentRecord(
            path_key=(9, (2,)), egress_link_id=5, diversity_score=0.5,
            expires_at=1000.0, neighbor=2,
        )
        registry.add(expiring)
        registry.add(lasting)
        expired = registry.purge_expired(now=500.0)
        assert expired == [expiring]
        assert len(registry) == 1

    def test_refresh_updates_timers(self):
        record = SentRecord(
            path_key=(9, ()), egress_link_id=1, diversity_score=0.5,
            expires_at=100.0, neighbor=2,
        )
        newer = PCB.originate(9, 500.0, 100.0)
        record.refresh(newer)
        assert record.expires_at == 600.0
        assert record.remaining_lifetime(510.0) == 90.0
        assert record.is_valid(550.0)
