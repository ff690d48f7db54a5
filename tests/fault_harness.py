"""Reusable invariant/differential harness for fault-injection tests.

``assert_invariants`` is the per-interval structural oracle: it walks every
beacon server of a (possibly degraded) beaconing simulation and checks the
properties that must hold after *any* prefix of a fault schedule —
revocation completeness (nothing stored or sent in the last interval
crosses a failed element), storage-limit compliance, loop-freeness, and
that every stored beacon is a valid walk of the topology. ``stepwise_run``
drives a :class:`~repro.faults.injector.FaultInjector` one interval at a
time and applies the oracle to each interval's record.
"""

from repro.faults import FaultInjector
from repro.simulation import BeaconingSimulation
from repro.topology import Relationship, Topology


def assert_invariants(sim: BeaconingSimulation, sent) -> None:
    """Structural invariants of a beaconing simulation under faults;
    ``sent`` is the record of the interval it last stepped."""
    failed_links = set(sim.failed_links())
    failed_ases = set(sim.failed_ases())
    for asn in sorted(sim.servers):
        server = sim.servers[asn]
        limit = server.store.storage_limit
        for origin in server.store.origins():
            count = server.store.count(origin)
            assert limit is None or count <= limit, (
                f"AS {asn} stores {count} beacons of origin {origin}, "
                f"limit {limit}"
            )
        for pcb in server.store.all_beacons():
            links = pcb.link_ids()
            asns = pcb.path_asns()
            crossed = failed_links.intersection(links)
            assert not crossed, (
                f"AS {asn} stores a beacon crossing failed link(s) "
                f"{sorted(crossed)}: {asns}"
            )
            downed = failed_ases.intersection(asns)
            assert not downed, (
                f"AS {asn} stores a beacon visiting failed AS(es) "
                f"{sorted(downed)}: {asns}"
            )
            assert len(set(asns)) == len(asns), f"AS loop in beacon {asns}"
            for (near, far), link_id in zip(zip(asns, asns[1:]), links):
                link = sim.topology.link(link_id)
                assert {near, far} == set(link.endpoints()), (
                    f"beacon hop {near}->{far} does not match link "
                    f"{link_id} {link.endpoints()}"
                )
        for link in server.egress_links:
            assert link.link_id not in failed_links, (
                f"AS {asn} still lists failed link {link.link_id} as egress"
            )
            assert link.other(asn) not in failed_ases, (
                f"AS {asn} still lists an egress link to failed AS "
                f"{link.other(asn)}"
            )
    for transmission in sent:
        crossed = failed_links.intersection(transmission.pcb.link_ids())
        assert not crossed, (
            f"sent beacon crosses failed link(s) {sorted(crossed)}"
        )
        assert transmission.sender not in failed_ases
        assert transmission.receiver not in failed_ases


def stepwise_run(injector: FaultInjector):
    """Run a fault schedule to completion, asserting the structural
    invariants after every beaconing interval. Returns the finalized
    :class:`~repro.faults.injector.FaultRunResult`."""
    for _ in range(injector.schedule.horizon):
        assert_invariants(injector.sim, injector.step())
    return injector.finalize()


def core_square() -> Topology:
    """Core square 1-2-3-4-1: two disjoint routes between opposite
    corners, the smallest topology where re-exploration is observable."""
    topo = Topology("square")
    for asn in (1, 2, 3, 4):
        topo.add_as(asn, is_core=True)
    topo.add_link(1, 2, Relationship.CORE)
    topo.add_link(2, 3, Relationship.CORE)
    topo.add_link(3, 4, Relationship.CORE)
    topo.add_link(4, 1, Relationship.CORE)
    return topo
