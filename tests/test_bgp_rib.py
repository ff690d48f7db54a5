"""Unit tests for the BGP routing information bases and speaker logic."""

import pytest

from repro.bgp import AdjRIBIn, Advertisement, LocRIB, NeighborKind, Route, Speaker


def route(prefix=1, path=(5,), neighbor=9, kind=NeighborKind.CUSTOMER):
    return Route(
        prefix=prefix, as_path=tuple(path), neighbor=neighbor,
        learned_from=kind,
    )


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


class TestLocRIB:
    def test_install_reports_change(self):
        rib = LocRIB()
        assert rib.install(route())
        assert not rib.install(route())  # identical: no change
        assert rib.install(route(path=(5, 4)))

    def test_remove_and_prefixes(self):
        rib = LocRIB()
        rib.install(route(prefix=1))
        rib.install(route(prefix=2))
        assert sorted(rib.prefixes()) == [1, 2]
        assert rib.remove(1) is not None
        assert rib.best(1) is None
        assert len(rib) == 1


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
        assert speaker.exportable_neighbors(9) == [2]
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
        assert 2 not in speaker.exportable_neighbors(9)

    def test_self_originated_exported_everywhere(self):
        speaker = self.make_speaker()
        speaker.originate(1)
        assert speaker.exportable_neighbors(1) == [2, 3, 4]
