"""Failure injection into the beaconing simulation (§4.1 revocations at
control-plane level: drop affected beacons, re-explore around the failure)."""

import pytest

from repro.core import BeaconStore, PCB
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import Relationship, Topology, generate_core_mesh


def square():
    """Core square 1-2-3-4-1: two disjoint routes between opposite corners."""
    topo = Topology("square")
    for asn in (1, 2, 3, 4):
        topo.add_as(asn, is_core=True)
    topo.add_link(1, 2, Relationship.CORE)
    topo.add_link(2, 3, Relationship.CORE)
    topo.add_link(3, 4, Relationship.CORE)
    topo.add_link(4, 1, Relationship.CORE)
    return topo


CONFIG = BeaconingConfig(
    interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)


def stored(sim):
    return [pcb for s in sim.servers.values() for pcb in s.store.all_beacons()]


class TestBeaconStoreRemoval:
    def test_remove_crossing_link(self):
        store = BeaconStore()
        crossing = PCB.originate(1, 0.0, 100.0).extend(10, 2).extend(11, 3)
        clean = PCB.originate(1, 0.0, 100.0).extend(12, 4)
        store.insert(crossing, now=1.0)
        store.insert(clean, now=1.0)
        assert store.remove_crossing(11) == 1
        assert store.beacons(1) == [clean]


class TestFailLink:
    def test_revokes_stored_beacons(self):
        topo = square()
        sim = BeaconingSimulation(topo, baseline_factory(), CONFIG)
        sim.run_intervals(4)
        link = topo.links_between(1, 2)[0]
        revoked = sim.fail_link(link.link_id)
        assert revoked > 0
        for asn in sim.participant_asns():
            for origin in sim.originator_asns():
                for pcb in sim.servers[asn].store.beacons(origin):
                    assert link.link_id not in pcb.link_ids()

    def test_failed_link_carries_no_more_beacons(self):
        topo = square()
        sim = BeaconingSimulation(topo, baseline_factory(), CONFIG)
        sim.run_intervals(2)
        link = topo.links_between(1, 2)[0]
        sim.fail_link(link.link_id)
        for _ in range(3):
            assert all(t.link.link_id != link.link_id for t in sim.step())
        assert sim.failed_links() == [link.link_id]

    def test_reexploration_restores_connectivity(self):
        """After the 1-2 link fails, beaconing re-discovers the long way
        round the square (1-4-3-2)."""
        topo = square()
        sim = BeaconingSimulation(topo, diversity_factory(), CONFIG)
        sim.run_intervals(3)
        link = topo.links_between(1, 2)[0]
        sim.fail_link(link.link_id)
        assert not any(
            link.link_id in p.link_ids() for p in sim.paths_at(2, 1)
        )
        sim.run_intervals(4)
        paths = sim.paths_at(2, 1)
        assert paths, "no re-explored path from 1 at AS 2"
        assert all(link.link_id not in p.link_ids() for p in paths)

    def test_in_flight_beacons_dropped(self):
        """A beacon sent over the link before it failed reaches no store."""
        topo = square()
        sim = BeaconingSimulation(topo, baseline_factory(), CONFIG)
        link_id = topo.links_between(1, 2)[0].link_id
        sent = sim.run_intervals(1).step()
        assert any(link_id in t.pcb.link_ids() for t in sent)
        sim.fail_link(link_id)
        sim.step()
        assert not any(link_id in pcb.link_ids() for pcb in stored(sim))

    def test_unknown_link_rejected(self):
        sim = BeaconingSimulation(square(), baseline_factory(), CONFIG)
        with pytest.raises(Exception):
            sim.fail_link(999)

    def test_diversity_counters_survive_failure(self):
        """Failing links must not corrupt the diversity algorithm's counter
        invariant (counters track valid *sent* records, not stores)."""
        topo = generate_core_mesh(6, seed=2)
        sim = BeaconingSimulation(topo, diversity_factory(), CONFIG)
        sim.run_intervals(3)
        victim = next(iter(topo.links())).link_id
        sim.fail_link(victim)
        sim.run_intervals(3)  # must not raise (e.g. counter underflow)
        assert sim.intervals_run == 6


class TestFailAS:
    def test_in_flight_beacons_dropped(self):
        """A beacon sent from or through the AS before it failed reaches
        no store."""
        sim = BeaconingSimulation(square(), baseline_factory(), CONFIG)
        sent = sim.run_intervals(1).step()
        assert any(t.sender == 2 for t in sent)
        sim.fail_as(2)
        sim.step()
        assert not any(pcb.contains_as(2) for pcb in stored(sim))
