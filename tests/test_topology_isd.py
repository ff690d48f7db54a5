"""Tests for ISD construction and topology sampling (Section 5.1 recipes)."""

from dataclasses import replace

import pytest

from repro.experiments import TEST_SCALE, build_large_isd
from repro.topology import (
    InternetGeneratorConfig,
    Relationship,
    Topology,
    assign_isds,
    customer_cone,
    generate_core_mesh,
    generate_internet,
    promote_core_links,
    prune_to_highest_degree,
    rank_by_customer_cone,
)


@pytest.fixture()
def hierarchy() -> Topology:
    """1 and 2 are providers of 3; 3 provides 4 and 5; 6 is isolated stub of 2."""
    topo = Topology("hierarchy")
    for asn in range(1, 7):
        topo.add_as(asn)
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(3, 4, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(3, 5, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 6, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(1, 2, Relationship.PEER_PEER)
    return topo


class TestCustomerCone:
    def test_direct_and_indirect_customers(self, hierarchy):
        assert customer_cone(hierarchy, 1) == {3, 4, 5}
        assert customer_cone(hierarchy, 2) == {3, 4, 5, 6}
        assert customer_cone(hierarchy, 3) == {4, 5}
        assert customer_cone(hierarchy, 4) == set()

    def test_cone_handles_cycles_gracefully(self):
        # Mutual provider-customer (exists in inferred datasets) terminates.
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
        topo.add_link(2, 1, Relationship.PROVIDER_CUSTOMER)
        assert customer_cone(topo, 1) == {2}

    def test_rank_by_customer_cone(self, hierarchy):
        ranked = rank_by_customer_cone(hierarchy)
        assert ranked[0] == 2  # largest cone (4 customers)
        assert ranked[1] == 1
        assert ranked[2] == 3


class TestPruning:
    def test_keeps_requested_count(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=200, seed=11))
        pruned = prune_to_highest_degree(topo, 50)
        assert pruned.num_ases == 50

    def test_pruning_keeps_high_degree_ases(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=200, seed=11))
        top10 = sorted(topo.asns(), key=topo.degree, reverse=True)[:10]
        pruned = prune_to_highest_degree(topo, 50)
        for asn in top10:
            assert pruned.has_as(asn)

    def test_pruning_is_incremental(self):
        # A chain 1-2-3-...: static pruning by initial degree would keep the
        # middle; incremental pruning peels leaves repeatedly.
        topo = Topology()
        for asn in range(1, 8):
            topo.add_as(asn)
        for asn in range(1, 7):
            topo.add_link(asn, asn + 1, Relationship.PEER_PEER)
        pruned = prune_to_highest_degree(topo, 3)
        assert pruned.num_ases == 3
        assert pruned.is_connected()

    def test_keep_all_is_copy(self, hierarchy):
        pruned = prune_to_highest_degree(hierarchy, 100)
        assert pruned.num_ases == hierarchy.num_ases
        assert pruned is not hierarchy

    def test_invalid_keep_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            prune_to_highest_degree(hierarchy, 0)

    def test_input_not_modified(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=100, seed=12))
        before = topo.num_ases
        prune_to_highest_degree(topo, 20)
        assert topo.num_ases == before


class TestBuildIsd:
    """§5.1's large ISD, as ``build_large_isd`` constructs it: the
    top-ranked ASes as cores plus their joint customer cone."""

    def test_members_are_cores_plus_cone(self, hierarchy):
        isd = build_large_isd(TEST_SCALE, hierarchy)
        assert sorted(isd.asns()) == [1, 2, 3, 4, 5, 6]
        assert set(isd.core_asns()) == {1, 2}
        assert all(isd.as_node(asn).isd == 1 for asn in isd.asns())

    def test_core_links_promoted(self, hierarchy):
        isd = build_large_isd(TEST_SCALE, hierarchy)
        links = isd.links_between(1, 2)
        assert len(links) == 1
        assert links[0].relationship is Relationship.CORE

    def test_non_core_links_unchanged(self, hierarchy):
        isd = build_large_isd(TEST_SCALE, hierarchy)
        link = isd.links_between(3, 4)[0]
        assert link.relationship is Relationship.PROVIDER_CUSTOMER

    def test_paper_recipe_top_rank_cores(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=300, seed=13))
        cores = rank_by_customer_cone(topo)[:5]
        scale = replace(TEST_SCALE, isd_cores=5, isd_max_ases=topo.num_ases)
        isd = build_large_isd(scale, topo)
        # The joint cone of the top transit providers covers most of the net.
        assert isd.num_ases > topo.num_ases // 2
        assert set(isd.core_asns()) == set(cores)


class TestAssignIsds:
    def test_partitions_all_ases(self):
        topo = generate_core_mesh(40, seed=3)
        mapping = assign_isds(topo, 4)
        assert set(mapping) == set(topo.asns())
        assert set(mapping.values()) == {1, 2, 3, 4}

    def test_marks_cores_and_sets_isd(self):
        topo = generate_core_mesh(20, seed=4)
        assign_isds(topo, 2)
        for asn in topo.asns():
            node = topo.as_node(asn)
            assert node.is_core
            assert node.isd in (1, 2)

    def test_isd_sizes_roughly_balanced(self):
        # 4x rather than a tighter bound: the assignment guarantees every
        # ISD is internally connected, and heavy-tailed meshes contain
        # peninsulas reachable through one cut AS that no connectivity-
        # preserving partition can balance further.
        topo = generate_core_mesh(60, seed=5)
        mapping = assign_isds(topo, 6)
        from collections import Counter

        sizes = Counter(mapping.values())
        assert max(sizes.values()) <= 4 * min(sizes.values())

    def test_rejects_bad_counts(self):
        topo = generate_core_mesh(5, seed=6)
        with pytest.raises(ValueError):
            assign_isds(topo, 0)
        with pytest.raises(ValueError):
            assign_isds(topo, 10)


class TestIsdInvariants:
    """Property tests for the ISD-assignment invariants the sharded
    beaconing kernel's partitioner builds on (see ``repro.shard``)."""

    def _topologies(self):
        for seed in (3, 5, 11):
            yield generate_core_mesh(30, seed=seed), 3
        internet = generate_internet(
            InternetGeneratorConfig(num_ases=300, seed=17)
        )
        yield prune_to_highest_degree(internet, 80), 8

    def test_every_as_in_exactly_one_isd(self):
        for topo, num_isds in self._topologies():
            mapping = assign_isds(topo, num_isds)
            assert set(mapping) == set(topo.asns())
            for asn in topo.asns():
                assert topo.as_node(asn).isd == mapping[asn]
            assert len(set(mapping.values())) == num_isds

    def test_isd_members_mutually_reachable_within_isd(self):
        # Connected input => every ISD's induced subgraph is connected:
        # members reach each other without leaving the ISD.
        for topo, num_isds in self._topologies():
            assert topo.is_connected()
            mapping = assign_isds(topo, num_isds)
            for isd in set(mapping.values()):
                members = [a for a, i in mapping.items() if i == isd]
                sub = topo.subtopology(members, name=f"isd-{isd}")
                assert sub.is_connected(), (
                    f"ISD {isd} disconnected ({len(members)} members)"
                )

    def test_boundary_links_symmetric(self):
        # Boundary enumeration is direction-independent: the cross-ISD
        # links seen from A's side are exactly those seen from B's side.
        for topo, num_isds in self._topologies():
            mapping = assign_isds(topo, num_isds)
            from_lower = set()
            from_upper = set()
            for asn in topo.asns():
                for neighbor in topo.neighbor_set(asn):
                    if mapping[asn] == mapping[neighbor]:
                        continue
                    links = {
                        link.link_id
                        for link in topo.links_between(asn, neighbor)
                    }
                    if asn < neighbor:
                        from_lower |= links
                    else:
                        from_upper |= links
            assert from_lower == from_upper
            assert from_lower  # multi-ISD partitions always have a boundary

    def test_balance_on_internet_core(self):
        # Realistic (CAIDA-like) cores are richly connected; there the
        # partition balances tightly as well as staying connected.
        internet = generate_internet(
            InternetGeneratorConfig(num_ases=300, seed=17)
        )
        core = prune_to_highest_degree(internet, 80)
        mapping = assign_isds(core, 8)
        from collections import Counter

        sizes = Counter(mapping.values())
        assert max(sizes.values()) <= 2 * min(sizes.values())


class TestPromoteCoreLinks:
    def test_promotes_only_core_core(self, hierarchy):
        hierarchy.as_node(1).is_core = True
        hierarchy.as_node(2).is_core = True
        converted = promote_core_links(hierarchy)
        assert converted == 1
        assert hierarchy.links_between(1, 2)[0].relationship is Relationship.CORE
        assert (
            hierarchy.links_between(1, 3)[0].relationship
            is Relationship.PROVIDER_CUSTOMER
        )

    def test_idempotent(self, hierarchy):
        hierarchy.as_node(1).is_core = True
        hierarchy.as_node(2).is_core = True
        promote_core_links(hierarchy)
        assert promote_core_links(hierarchy) == 0

    def test_preserves_interface_ids(self, hierarchy):
        hierarchy.as_node(1).is_core = True
        hierarchy.as_node(2).is_core = True
        before = hierarchy.links_between(1, 2)[0]
        promote_core_links(hierarchy)
        after = hierarchy.links_between(1, 2)[0]
        assert after.end(1).ifid == before.end(1).ifid
        assert after.end(2).ifid == before.end(2).ifid
