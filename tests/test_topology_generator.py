"""Tests for the synthetic Internet-like topology generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    InternetGeneratorConfig,
    Relationship,
    generate_core_mesh,
    generate_internet,
)
from repro.topology.generator import FIRST_ASN


class TestGenerateInternet:
    def test_deterministic_for_seed(self):
        config = InternetGeneratorConfig(num_ases=120, seed=5)
        first = generate_internet(config)
        second = generate_internet(InternetGeneratorConfig(num_ases=120, seed=5))
        assert first.num_ases == second.num_ases
        assert first.num_links == second.num_links
        first_edges = sorted(
            (link.a.asn, link.a.ifid, link.b.asn, link.b.ifid)
            for link in first.links()
        )
        second_edges = sorted(
            (link.a.asn, link.a.ifid, link.b.asn, link.b.ifid)
            for link in second.links()
        )
        assert first_edges == second_edges

    def test_different_seeds_differ(self):
        a = generate_internet(InternetGeneratorConfig(num_ases=120, seed=1))
        b = generate_internet(InternetGeneratorConfig(num_ases=120, seed=2))
        assert a.num_links != b.num_links or sorted(
            link.location for link in a.links()
        ) != sorted(link.location for link in b.links())

    def test_connected(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=200, seed=3))
        assert topo.is_connected()

    def test_every_non_tier1_as_has_a_provider(self):
        config = InternetGeneratorConfig(num_ases=150, num_tier1=8, seed=4)
        topo = generate_internet(config)
        tier1 = set(range(FIRST_ASN, FIRST_ASN + config.num_tier1))
        for asn in topo.asns():
            if asn not in tier1:
                assert topo.providers(asn), f"AS {asn} has no provider"

    def test_tier1_ases_have_no_providers(self):
        config = InternetGeneratorConfig(num_ases=150, num_tier1=8, seed=4)
        topo = generate_internet(config)
        for asn in range(FIRST_ASN, FIRST_ASN + config.num_tier1):
            assert not topo.providers(asn)

    def test_heavy_tailed_degree_distribution(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=400, seed=6))
        degrees = sorted((topo.degree(asn) for asn in topo.asns()), reverse=True)
        # The top decile should carry several times the median's degree.
        median = degrees[len(degrees) // 2]
        assert degrees[0] >= 5 * max(1, median)

    def test_parallel_links_exist(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=200, seed=7))
        parallel = [
            (a, b)
            for a in topo.asns()
            for b in topo.neighbors(a)
            if a < b and len(topo.links_between(a, b)) > 1
        ]
        assert parallel, "expected at least one multi-link adjacency"

    def test_parallel_links_have_distinct_locations(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=200, seed=7))
        for a in topo.asns():
            for b in topo.neighbors(a):
                if a < b:
                    locations = [l.location for l in topo.links_between(a, b)]
                    assert len(locations) == len(set(locations))

    def test_validation_rejects_bad_config(self):
        with pytest.raises(ValueError):
            generate_internet(InternetGeneratorConfig(num_ases=5, num_tier1=10))
        with pytest.raises(ValueError):
            generate_internet(InternetGeneratorConfig(parallel_link_p=0.0))
        with pytest.raises(ValueError):
            generate_internet(InternetGeneratorConfig(max_parallel_links=0))

    @settings(max_examples=10, deadline=None)
    @given(
        num_ases=st.integers(min_value=30, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_generated_topologies_are_valid_and_connected(self, num_ases, seed):
        topo = generate_internet(
            InternetGeneratorConfig(num_ases=num_ases, num_tier1=5, seed=seed)
        )
        topo.validate()
        assert topo.is_connected()
        assert topo.num_ases == num_ases


class TestGenerateCoreMesh:
    def test_all_core_and_core_links(self):
        topo = generate_core_mesh(30, seed=1)
        assert len(topo.core_asns()) == 30
        assert all(
            link.relationship is Relationship.CORE for link in topo.links()
        )

    def test_connected_and_mean_degree(self):
        topo = generate_core_mesh(40, mean_degree=5.0, seed=2)
        assert topo.is_connected()
        mean_degree = 2 * topo.num_links / topo.num_ases
        assert mean_degree >= 4.0

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_core_mesh(1)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_always_connected(self, n, seed):
        topo = generate_core_mesh(n, seed=seed)
        assert topo.is_connected()
        topo.validate()
