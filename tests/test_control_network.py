"""Integration tests for the full-stack ScionNetwork orchestration."""

import gc
import pickle
import tracemalloc

import pytest

from repro.control import Component, Scope, ScionNetwork
from repro.dataplane import ForwardingError, deliver
from repro.dataplane.packet import build_packet
from repro.simulation import BeaconingConfig, BeaconingMode
from repro.topology import Relationship, Topology


def two_isd_topology():
    """ISD 1: cores 1,2 + leaves 11,12 ; ISD 2: cores 3,4 + leaf 21.

    Peering link 12 -- 21 enables a cross-ISD peering shortcut.
    """
    topo = Topology("two-isds")
    spec = [
        (1, 1, True), (2, 1, True), (3, 2, True), (4, 2, True),
        (11, 1, False), (12, 1, False), (21, 2, False),
    ]
    for asn, isd, core in spec:
        topo.add_as(asn, isd=isd, is_core=core)
    topo.add_link(1, 2, Relationship.CORE)
    topo.add_link(2, 3, Relationship.CORE)
    topo.add_link(3, 4, Relationship.CORE)
    topo.add_link(1, 4, Relationship.CORE)
    topo.add_link(1, 11, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 11, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(11, 12, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(3, 21, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(12, 21, Relationship.PEER_PEER)
    return topo


FAST = dict(
    interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)


@pytest.fixture(scope="module")
def network():
    return ScionNetwork(
        two_isd_topology(),
        core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
        intra_config=BeaconingConfig(mode=BeaconingMode.INTRA_ISD, **FAST),
    ).run()


class TestLookups:
    def test_cross_isd_paths_exist(self, network):
        paths = network.lookup_paths(12, 21)
        assert paths
        for path in paths:
            assert path.source == 12
            assert path.destination == 21
            assert path.is_loop_free()

    def test_peering_shortcut_found_and_shortest(self, network):
        paths = network.lookup_paths(12, 21)
        assert paths[0].uses_peering
        assert paths[0].asns == (12, 21)

    def test_intra_isd_shortcut(self, network):
        """12 -> 11 is reachable without touching the ISD core."""
        paths = network.lookup_paths(12, 11)
        assert any(p.asns == (12, 11) for p in paths)

    def test_leaf_to_core_path(self, network):
        paths = network.lookup_paths(12, 3)
        assert paths
        assert all(p.destination == 3 for p in paths)

    def test_core_to_leaf_path(self, network):
        paths = network.lookup_paths(1, 21)
        assert paths
        assert all(p.source == 1 for p in paths)

    def test_core_to_core_path(self, network):
        paths = network.lookup_paths(1, 3)
        assert paths
        assert all(not p.is_shortcut for p in paths)

    def test_same_as_rejected(self, network):
        with pytest.raises(ValueError):
            network.lookup_paths(12, 12)

    def test_requires_run(self):
        net = ScionNetwork(two_isd_topology())
        with pytest.raises(RuntimeError):
            net.lookup_paths(12, 21)


class TestDataPlaneDelivery:
    def test_packets_follow_looked_up_paths(self, network):
        for src, dst in [(12, 21), (11, 21), (12, 3), (1, 21), (1, 3)]:
            trajectory = network.send_packet(src, dst)
            assert trajectory[0] == src
            assert trajectory[-1] == dst

    def test_explicit_path_selection(self, network):
        paths = network.lookup_paths(12, 21)
        non_peering = [p for p in paths if not p.uses_peering]
        assert non_peering
        trajectory = network.send_packet(12, 21, path=non_peering[0])
        assert trajectory == list(non_peering[0].asns)

    def test_a_network_that_forwarded_pickles_and_forwards_alike(self, network):
        """Routers keep derived state — a keyed hash state, which does not
        pickle, and their AS's interface table — that a pickle drops and
        loading rebuilds over the loaded topology."""
        path = network.lookup_paths(12, 21)[0]
        packet = build_packet(network.topology, 12, 21, path, timestamp=network.now)
        sent = network.send_packet(12, 21, path=path)
        assert deliver(
            network.topology, packet, now=network.now, routers=network.router_table
        ) == sent
        loaded = pickle.loads(pickle.dumps(network))
        assert len(loaded.router_table) == len(network.router_table)
        assert loaded.send_packet(12, 21, path=path) == sent
        assert deliver(
            loaded.topology, packet, now=loaded.now, routers=loaded.router_table
        ) == sent
        # The loaded routers read the loaded topology, live: an edit there
        # drops the packet in the copy and nowhere else.
        loaded.topology.remove_link(path.link_ids[0])
        with pytest.raises(ForwardingError, match="has no interface"):
            deliver(
                loaded.topology, packet, now=loaded.now,
                routers=loaded.router_table,
            )
        assert network.send_packet(12, 21, path=path) == sent


def fresh_network():
    return ScionNetwork(
        two_isd_topology(),
        core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
        intra_config=BeaconingConfig(mode=BeaconingMode.INTRA_ISD, **FAST),
    ).run()


def every_lookup(network):
    asns = sorted(network.topology.asns())
    return {
        (src, dst): network.lookup_paths(src, dst)
        for src in asns
        for dst in asns
        if src != dst
    }


class TestUpSegmentMemo:
    def test_reused_until_the_store_or_the_clock_moves(self):
        """Up-segments are promoted once per store version and intra-ISD
        ``now``: a lookup in between reuses them, and a change of the
        store's contents, of the store itself or of the time re-promotes."""
        network = fresh_network()
        sim = network.intra_sims[1]
        first = network._promoted_up_segments(11)
        assert first and network._promoted_up_segments(11) is first
        store = sim.servers[11].store
        kept = list(store.all_beacons())
        store.clear()
        assert network._promoted_up_segments(11) == ()
        assert not network.lookup_paths(11, 21)
        for pcb in kept:
            store.insert(pcb, sim.now - sim.config.interval)
        again = network._promoted_up_segments(11)
        assert again == first and again is not first
        # A restarted server's fresh store, at the same version number.
        fresh = sim.servers[11].store = type(store)(store.storage_limit)
        fresh.version = store.version
        assert network._promoted_up_segments(11) == ()
        sim.servers[11].store = store
        assert network._promoted_up_segments(11) == first
        sim.now += sim.config.pcb_lifetime
        assert network._promoted_up_segments(11) == ()

    def test_a_store_pickled_without_its_version_loads_and_looks_up(
        self, monkeypatch
    ):
        """A warm state cached before stores counted versions still loads,
        and every lookup over it answers as the network it was cut from."""
        from repro.core.beacon_store import BeaconStore

        network = fresh_network()
        expected = every_lookup(network)
        current = BeaconStore.__getstate__

        def without_version(store):
            state = current(store)
            del state["version"]
            return state

        monkeypatch.setattr(BeaconStore, "__getstate__", without_version)
        old_format = pickle.dumps(network)
        monkeypatch.undo()
        loaded = pickle.loads(old_format)
        store = loaded.intra_sims[1].servers[11].store
        assert store.version == 0
        assert every_lookup(loaded) == expected


class TestFailover:
    def test_failed_link_filtered_from_usable_paths(self):
        network = ScionNetwork(
            two_isd_topology(),
            core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
            intra_config=BeaconingConfig(
                mode=BeaconingMode.INTRA_ISD, **FAST
            ),
        ).run()
        before = network.usable_paths(12, 21)
        peering_link = network.topology.links_between(12, 21)[0]
        network.fail_link(peering_link.link_id)
        after = network.usable_paths(12, 21)
        assert len(after) < len(before)
        assert after, "multi-path failover must leave alternatives"
        assert all(
            peering_link.link_id not in p.link_ids for p in after
        )

    def test_delivery_still_works_after_failover(self):
        network = ScionNetwork(
            two_isd_topology(),
            core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
            intra_config=BeaconingConfig(
                mode=BeaconingMode.INTRA_ISD, **FAST
            ),
        ).run()
        peering_link = network.topology.links_between(12, 21)[0]
        network.fail_link(peering_link.link_id)
        alive = network.usable_paths(12, 21)
        trajectory = network.send_packet(12, 21, path=alive[0])
        assert trajectory[-1] == 21


class TestControlMessageAccounting:
    def test_lookups_produce_scoped_messages(self, network):
        network.lookup_paths(11, 21)
        log = network.log
        assert log.count(Component.PATH_REGISTRATION) > 0
        assert log.count(Component.ENDPOINT_PATH_LOOKUP) > 0
        assert log.count(Component.DOWN_SEGMENT_LOOKUP) > 0
        assert log.count(Component.CORE_SEGMENT_LOOKUP) > 0
        assert log.scopes(Component.PATH_REGISTRATION) == {Scope.ISD}
        assert log.scopes(Component.ENDPOINT_PATH_LOOKUP) == {Scope.AS}
        assert Scope.GLOBAL in log.scopes(Component.DOWN_SEGMENT_LOOKUP)

    def test_repeated_lookups_at_one_time_hold_no_new_memory(self, network):
        """The log tallies per (component, flow, time): lookups repeated at
        one ``network.now`` add messages to its counts, not to its size."""
        asns = sorted(network.topology.asns())
        pairs = [(a, b) for a in asns for b in asns if a != b]

        def one_pass():
            for src, dst in pairs:
                network.lookup_paths(src, dst)

        one_pass()
        messages = len(network.log)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(9):
                one_pass()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(network.log) - messages >= 9 * len(pairs)
        assert grown < 64 * 1024

    def test_a_dropped_network_is_not_cyclic_garbage(self):
        """No core path server references another: a used network that is
        dropped is freed by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            network = ScionNetwork(
                two_isd_topology(),
                core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
                intra_config=BeaconingConfig(
                    mode=BeaconingMode.INTRA_ISD, **FAST
                ),
            ).run()
            before = network.log.count(Component.DOWN_SEGMENT_LOOKUP)
            assert network.lookup_paths(11, 21)
            assert network.log.count(Component.DOWN_SEGMENT_LOOKUP) > before
            assert Scope.GLOBAL in network.log.scopes(
                Component.DOWN_SEGMENT_LOOKUP
            )
            del network
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_algorithm_selection(self):
        topo = two_isd_topology()
        baseline = ScionNetwork(
            topo,
            algorithm="baseline",
            core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
            intra_config=BeaconingConfig(
                mode=BeaconingMode.INTRA_ISD, **FAST
            ),
        )
        assert baseline.algorithm == "baseline"
        with pytest.raises(ValueError):
            ScionNetwork(topo, algorithm="ospf")

    def test_missing_isd_rejected(self):
        topo = Topology()
        topo.add_as(1, is_core=True)
        with pytest.raises(ValueError):
            ScionNetwork(topo)
