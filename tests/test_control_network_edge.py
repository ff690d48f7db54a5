"""Edge-case coverage for ScionNetwork: core-only topologies, single ISD,
and degenerate lookups."""

from types import SimpleNamespace

import pytest

from repro.control import ScionNetwork
from repro.simulation import BeaconingConfig, BeaconingMode
from repro.topology import Relationship, Topology, generate_core_mesh

FAST = dict(
    interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)


def core_only_network():
    topo = generate_core_mesh(6, seed=9)
    for asn in topo.asns():
        topo.as_node(asn).isd = 1
    return ScionNetwork(
        topo,
        core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
        intra_config=BeaconingConfig(mode=BeaconingMode.INTRA_ISD, **FAST),
    ).run()


class TestCoreOnlyTopology:
    def test_no_intra_isd_simulations(self):
        network = core_only_network()
        assert network.intra_sims == {}
        assert network.local_servers == {}

    def test_core_to_core_lookup_and_delivery(self):
        network = core_only_network()
        asns = sorted(network.topology.asns())
        paths = network.lookup_paths(asns[0], asns[-1])
        assert paths
        trajectory = network.send_packet(asns[0], asns[-1])
        assert trajectory[0] == asns[0]
        assert trajectory[-1] == asns[-1]

    def test_up_segments_empty_for_core(self):
        network = core_only_network()
        for asn in network.topology.core_asns():
            assert network.up_segments(asn) == []


class TestSingleIsdWithLeaves:
    def make(self):
        topo = Topology()
        topo.add_as(1, isd=1, is_core=True)
        topo.add_as(2, isd=1, is_core=True)
        topo.add_as(10, isd=1)
        topo.add_as(11, isd=1)
        topo.add_link(1, 2, Relationship.CORE)
        topo.add_link(1, 10, Relationship.PROVIDER_CUSTOMER)
        topo.add_link(2, 11, Relationship.PROVIDER_CUSTOMER)
        return ScionNetwork(
            topo,
            core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
            intra_config=BeaconingConfig(
                mode=BeaconingMode.INTRA_ISD, **FAST
            ),
        ).run()

    def test_same_isd_leaf_to_leaf(self):
        network = self.make()
        paths = network.lookup_paths(10, 11)
        assert paths
        assert network.send_packet(10, 11)[-1] == 11

    def test_leaf_to_own_core(self):
        network = self.make()
        paths = network.lookup_paths(10, 1)
        assert any(p.asns == (10, 1) for p in paths)

    def test_registration_happened_per_leaf(self):
        network = self.make()
        assert network.core_servers[1].down_segments(10, network.now)
        assert network.core_servers[2].down_segments(11, network.now)

    def test_refresh_registrations_advances_clock(self):
        network = self.make()
        before = network.now
        network.refresh_registrations(before + 600.0)
        assert network.now == before + 600.0


class TestRevocationFilter:
    """``filter_paths`` / ``usable_paths`` answer as the per-link scan does
    whether the revocation set is empty, holds only a lapsed revocation,
    or holds a live one."""

    @staticmethod
    def scan(service, paths, now):
        return [
            path
            for path in paths
            if not any(
                service.is_revoked(link_id, now) for link_id in path.link_ids
            )
        ]

    def test_empty_lapsed_and_live_revocations(self):
        network = TestSingleIsdWithLeaves().make()
        service = network.revocations
        paths = network.lookup_paths(10, 11)
        crossed = paths[0].link_ids[0]
        now = network.now

        assert service.revoked_links(now) == set()
        assert service.filter_paths(paths, now) == paths == self.scan(
            service, paths, now
        )
        assert service.filter_paths(iter(paths), now) == paths
        assert network.usable_paths(10, 11) == paths

        revocation = service.revoke_link(crossed, now)
        assert service.revoked_links(now) == {crossed}
        assert service.filter_paths(paths, now) == self.scan(
            service, paths, now
        ) == [p for p in paths if crossed not in p.link_ids]
        assert network.usable_paths(10, 11) == service.filter_paths(paths, now)

        lapsed = revocation.expires_at
        assert not revocation.is_valid(lapsed)
        assert service.revoked_links(lapsed) == set()
        assert service.filter_paths(paths, lapsed) == paths == self.scan(
            service, paths, lapsed
        )
        # Before the revocation was issued it does not apply either.
        assert service.filter_paths(paths, now - 1.0) == paths

    def test_filter_accepts_any_link_sequence(self):
        network = TestSingleIsdWithLeaves().make()
        service = network.revocations
        service.revoke_link(1, network.now)
        paths = [
            SimpleNamespace(link_ids=link_ids)
            for link_ids in ([1, 2], (2, 3), [3], ())
        ]
        assert service.filter_paths(paths, network.now) == paths[1:]
