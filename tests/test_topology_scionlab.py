"""Tests for the SCIONLab-like testbed topology (Appendix B substrate)."""

from repro.topology import (
    Relationship,
    SCIONLAB_CORE_COUNT,
    scionlab_core,
)


class TestScionlabCore:
    def test_has_21_core_ases(self):
        topo = scionlab_core()
        assert topo.num_ases == SCIONLAB_CORE_COUNT == 21
        assert len(topo.core_asns()) == 21

    def test_sparse_mean_neighbor_degree(self):
        """Appendix B: 'on average, a core AS has 2 neighbors'."""
        topo = scionlab_core()
        mean = sum(len(topo.neighbors(asn)) for asn in topo.asns()) / topo.num_ases
        assert 2.0 <= mean <= 3.0

    def test_connected_core_mesh(self):
        topo = scionlab_core()
        assert topo.is_connected()
        assert all(l.relationship is Relationship.CORE for l in topo.links())

    def test_has_parallel_link(self):
        topo = scionlab_core()
        has_parallel = any(
            len(topo.links_between(a, b)) > 1
            for a in topo.asns()
            for b in topo.neighbors(a)
        )
        assert has_parallel

    def test_deterministic(self):
        a = scionlab_core()
        b = scionlab_core()
        assert a.num_links == b.num_links
        assert sorted(l.location for l in a.links()) == sorted(
            l.location for l in b.links()
        )

