"""Unit tests for the AS-level multigraph model."""

import pytest

from repro.topology import Link, Relationship, Topology, TopologyError


@pytest.fixture()
def triangle() -> Topology:
    topo = Topology("triangle")
    for asn in (1, 2, 3):
        topo.add_as(asn)
    topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER, location="Zurich")
    topo.add_link(2, 3, Relationship.PEER_PEER, location="London")
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER, location="Paris")
    return topo


class TestASManagement:
    def test_add_as_registers_node(self):
        topo = Topology()
        node = topo.add_as(42, isd=3, is_core=True, name="core")
        assert node.asn == 42
        assert node.isd == 3
        assert node.is_core
        assert topo.has_as(42)
        assert topo.num_ases == 1

    def test_add_as_is_idempotent_and_merges(self):
        topo = Topology()
        topo.add_as(1)
        node = topo.add_as(1, isd=2, is_core=True, name="x")
        assert topo.num_ases == 1
        assert node.isd == 2
        assert node.is_core
        assert node.name == "x"

    def test_add_as_does_not_demote_core(self):
        topo = Topology()
        topo.add_as(1, is_core=True)
        topo.add_as(1, is_core=False)
        assert topo.as_node(1).is_core

    def test_unknown_as_raises(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.as_node(99)

    def test_core_and_non_core_listing(self, triangle):
        triangle.as_node(1).is_core = True
        assert triangle.core_asns() == [1]
        assert sorted(triangle.non_core_asns()) == [2, 3]


class TestLinks:
    def test_link_endpoints_and_other(self, triangle):
        link = triangle.links_between(1, 2)[0]
        assert link.endpoints() == (1, 2)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(TopologyError):
            link.other(3)

    def test_interfaces_are_allocated_per_as(self, triangle):
        node1 = triangle.as_node(1)
        assert sorted(node1.interfaces) == [1, 2]
        node2 = triangle.as_node(2)
        assert sorted(node2.interfaces) == [1, 2]

    def test_parallel_links(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        first = topo.add_link(1, 2, Relationship.PEER_PEER, location="A")
        second = topo.add_link(1, 2, Relationship.PEER_PEER, location="B")
        assert first.link_id != second.link_id
        assert len(topo.links_between(1, 2)) == 2
        assert topo.degree(1) == 2
        assert topo.neighbors(1) == [2]

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_as(1)
        with pytest.raises(TopologyError):
            topo.add_link(1, 1, Relationship.PEER_PEER)

    def test_link_to_unknown_as_rejected(self):
        topo = Topology()
        topo.add_as(1)
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, Relationship.PEER_PEER)

    def test_duplicate_interface_rejected(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        topo.add_link(1, 2, Relationship.PEER_PEER, a_ifid=5, b_ifid=5)
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, Relationship.PEER_PEER, a_ifid=5)

    def test_provider_customer_orientation(self, triangle):
        link = triangle.links_between(1, 2)[0]
        assert link.is_provider(1)
        assert link.is_customer(2)
        assert not link.is_provider(2)
        peer = triangle.links_between(2, 3)[0]
        assert not peer.is_provider(2)
        assert not peer.is_customer(3)


class TestRelationshipNavigation:
    def test_providers_customers_peers(self, triangle):
        assert triangle.customers(1) == {2, 3}
        assert triangle.providers(2) == {1}
        assert triangle.providers(3) == {1}
        assert triangle.peers(2) == {3}
        assert triangle.peers(1) == set()

    def test_relationship_caida_round_trip(self):
        assert Relationship.from_caida(-1) is Relationship.PROVIDER_CUSTOMER
        assert Relationship.from_caida(0) is Relationship.PEER_PEER
        assert Relationship.PROVIDER_CUSTOMER.to_caida() == -1
        assert Relationship.PEER_PEER.to_caida() == 0
        with pytest.raises(TopologyError):
            Relationship.from_caida(5)
        with pytest.raises(TopologyError):
            Relationship.CORE.to_caida()


class TestRemoval:
    def test_remove_link_cleans_interfaces(self, triangle):
        link = triangle.links_between(1, 2)[0]
        triangle.remove_link(link.link_id)
        assert triangle.links_between(1, 2) == []
        assert 2 not in triangle.neighbors(1)
        triangle.validate()

    def test_remove_as_removes_incident_links(self, triangle):
        triangle.remove_as(1)
        assert not triangle.has_as(1)
        assert triangle.num_links == 1  # only 2-3 remains
        triangle.validate()

    def test_interface_ids_not_reused_after_removal(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        topo.add_as(3)
        link = topo.add_link(1, 2, Relationship.PEER_PEER)
        topo.remove_link(link.link_id)
        new = topo.add_link(1, 3, Relationship.PEER_PEER)
        # Allocation continues past the removed interface id.
        assert new.end(1).ifid != link.end(1).ifid


class TestExports:
    def test_subtopology_keeps_internal_links_only(self, triangle):
        sub = triangle.subtopology([1, 2])
        assert sorted(sub.asns()) == [1, 2]
        assert sub.num_links == 1
        sub.validate()

    def test_subtopology_preserves_interface_ids(self, triangle):
        original = triangle.links_between(1, 3)[0]
        sub = triangle.subtopology([1, 3])
        copied = sub.links_between(1, 3)[0]
        assert copied.end(1).ifid == original.end(1).ifid
        assert copied.end(3).ifid == original.end(3).ifid

    def test_is_connected(self, triangle):
        assert triangle.is_connected()
        triangle.add_as(4)
        assert not triangle.is_connected()
        assert Topology().is_connected()

    def test_validate_passes_on_consistent_topology(self, triangle):
        triangle.validate()


class TestAdjacencyIndexes:
    """The cached per-AS indexes the shard partitioner and fault
    injector query (``neighbor_set`` / ``incident_link_ids``)."""

    def test_neighbor_set_matches_neighbors(self, triangle):
        for asn in triangle.asns():
            assert triangle.neighbor_set(asn) == set(triangle.neighbors(asn))

    def test_neighbor_set_is_cached(self, triangle):
        first = triangle.neighbor_set(1)
        assert triangle.neighbor_set(1) is first  # same frozen object

    def test_incident_link_ids_sorted_and_cached(self, triangle):
        ids = triangle.incident_link_ids(2)
        assert list(ids) == sorted(
            link.link_id for link in triangle.as_node(2).links()
        )
        assert triangle.incident_link_ids(2) is ids

    def test_add_link_invalidates_both_endpoints(self, triangle):
        before_1 = triangle.neighbor_set(1)
        triangle.add_as(4)
        link = triangle.add_link(1, 4, Relationship.PEER_PEER)
        assert triangle.neighbor_set(1) == before_1 | {4}
        assert link.link_id in triangle.incident_link_ids(1)
        assert triangle.neighbor_set(4) == {1}

    def test_remove_link_invalidates_both_endpoints(self, triangle):
        link = triangle.links_between(2, 3)[0]
        triangle.neighbor_set(2), triangle.incident_link_ids(3)  # warm
        triangle.remove_link(link.link_id)
        assert 3 not in triangle.neighbor_set(2)
        assert link.link_id not in triangle.incident_link_ids(3)

    def test_remove_as_invalidates_former_neighbors(self, triangle):
        triangle.neighbor_set(1), triangle.incident_link_ids(1)  # warm
        triangle.remove_as(3)
        assert triangle.neighbor_set(1) == {2}
        assert len(triangle.incident_link_ids(1)) == 1

    def test_parallel_links_counted_once_in_neighbors(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        topo.add_link(1, 2, Relationship.PEER_PEER)
        topo.add_link(1, 2, Relationship.PEER_PEER)
        assert topo.neighbor_set(1) == {2}
        assert len(topo.incident_link_ids(1)) == 2

    def test_pickle_round_trip_rebuilds_indexes(self, triangle):
        import pickle

        triangle.neighbor_set(1)  # warm the cache before pickling
        clone = pickle.loads(pickle.dumps(triangle))
        assert clone.neighbor_set(1) == triangle.neighbor_set(1)
        clone.add_as(9)
        clone.add_link(1, 9, Relationship.PEER_PEER)
        assert 9 in clone.neighbor_set(1)
        assert 9 not in triangle.neighbor_set(1)
