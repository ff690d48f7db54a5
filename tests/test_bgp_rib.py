"""Unit tests for the BGP routing information bases and speaker logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp import AdjRIBIn, Advertisement, LocRIB, NeighborKind, Route, Speaker


def route(prefix=1, path=(5,), neighbor=9, kind=NeighborKind.CUSTOMER):
    return Route(
        prefix=prefix, as_path=tuple(path), neighbor=neighbor,
        learned_from=kind,
    )


def pending_towards(speaker, prefix):
    """The neighbors ``prefix`` awaits an advertisement to."""
    return sorted(n for n, prefixes in speaker.pending.items() if prefix in prefixes)


class TestAdjRIBIn:
    def test_update_replaces_per_neighbor_prefix(self):
        rib = AdjRIBIn()
        rib.update(route(path=(5,)))
        rib.update(route(path=(5, 4)))
        assert len(rib) == 1
        assert rib.routes_for_prefix(1)[0].as_path == (5, 4)

    def test_routes_from_neighbor(self):
        rib = AdjRIBIn()
        rib.update(route(prefix=1, neighbor=9))
        rib.update(route(prefix=2, neighbor=9))
        rib.update(route(prefix=1, neighbor=8))
        assert len(rib) == 3
        assert len(rib.routes_for_prefix(1)) == 2

    def test_rejects_self_originated(self):
        rib = AdjRIBIn()
        with pytest.raises(ValueError):
            rib.update(Route(prefix=1, as_path=(1,), neighbor=None))

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),  # prefix
                st.integers(10, 14),  # neighbor
                st.lists(st.integers(20, 30), min_size=1, max_size=4),
                st.sampled_from(NeighborKind),
            ),
            max_size=40,
        )
    )
    def test_holds_the_latest_route_per_neighbor(self, updates):
        rib, latest = AdjRIBIn(), {}
        for prefix, neighbor, path, kind in updates:
            learned = route(prefix, path, neighbor, kind)
            rib.update(learned)
            latest[prefix, neighbor] = learned
        assert len(rib) == len(latest)
        for prefix in range(0, 6):
            by_neighbor = {r.neighbor: r for r in rib.routes_for_prefix(prefix)}
            assert len(by_neighbor) == len(rib.routes_for_prefix(prefix))
            assert by_neighbor == {
                n: r for (p, n), r in latest.items() if p == prefix
            }


class TestLocRIB:
    def test_install_reports_change(self):
        rib = LocRIB()
        assert rib.install(route())
        assert not rib.install(route())  # identical: no change
        assert rib.install(route(path=(5, 4)))

    def test_one_best_per_prefix(self):
        rib = LocRIB()
        one, two = route(prefix=1), route(prefix=2)
        rib.install(one)
        rib.install(two)
        assert (rib.best(1), rib.best(2), rib.best(3)) == (one, two, None)


class TestSpeaker:
    def make_speaker(self):
        return Speaker(
            1,
            {2: NeighborKind.CUSTOMER, 3: NeighborKind.PEER,
             4: NeighborKind.PROVIDER},
            mrai=15.0,
        )

    def adv(self, sender, prefix=9, path=(9,)):
        return Advertisement(
            sender=sender, receiver=1, prefix=prefix, as_path=tuple(path)
        )

    def test_loop_detection_discards(self):
        speaker = self.make_speaker()
        changed = speaker.receive(self.adv(2, path=(9, 1, 2)))
        assert not changed
        assert speaker.loc_rib.best(9) is None
        assert speaker.updates_received == 1

    def test_update_from_stranger_rejected(self):
        speaker = self.make_speaker()
        with pytest.raises(ValueError):
            speaker.receive(self.adv(77))

    def test_decision_prefers_customer_route(self):
        speaker = self.make_speaker()
        speaker.receive(self.adv(4, path=(9, 4)))
        assert speaker.loc_rib.best(9).neighbor == 4
        speaker.receive(self.adv(2, path=(9, 8, 2)))
        # Customer route wins despite being longer.
        assert speaker.loc_rib.best(9).neighbor == 2

    def test_export_rules_shape_flush(self):
        speaker = self.make_speaker()
        speaker.receive(self.adv(4, path=(9, 4)))  # provider route
        speaker.enqueue(9)
        # Provider routes are exported only to customers.
        assert pending_towards(speaker, 9) == [2]
        advertisements = speaker.flush(2, now=100.0)
        assert len(advertisements) == 1
        assert advertisements[0].as_path == (9, 4, 1)
        assert speaker.flush(3, now=100.0) == []

    def test_mrai_blocks_immediate_reflush(self):
        speaker = self.make_speaker()
        speaker.receive(self.adv(4, path=(9, 4)))
        speaker.enqueue(9)
        assert speaker.flush(2, now=0.0)
        # A better route arrives; pending again, but MRAI not yet expired.
        speaker.receive(self.adv(3, path=(9, 3)))
        speaker.enqueue(9)
        assert speaker.flush(2, now=5.0) == []
        assert speaker.flush(2, now=15.0) != []

    def test_duplicate_paths_not_readvertised(self):
        speaker = self.make_speaker()
        speaker.receive(self.adv(4, path=(9, 4)))
        speaker.enqueue(9)
        assert speaker.flush(2, now=0.0)
        speaker.enqueue(9)  # same best path
        assert speaker.flush(2, now=30.0) == []

    def test_never_advertise_back_to_next_hop(self):
        speaker = self.make_speaker()
        speaker.receive(self.adv(2, path=(9, 2)))  # learned from customer 2
        speaker.enqueue(9)
        assert pending_towards(speaker, 9) == [3, 4]
        assert speaker.flush(2, now=0.0) == []

    def test_self_originated_exported_everywhere(self):
        speaker = self.make_speaker()
        speaker.originate(1)
        speaker.enqueue(1)
        assert pending_towards(speaker, 1) == [2, 3, 4]
