"""Integration tests for the BGP convergence simulation."""

import pytest

from repro.bgp import (
    BGPChurnModel,
    BGPConfig,
    BGPSimulation,
    assign_prefix_counts,
    monthly_bgp_bytes,
    monthly_bgpsec_bytes,
)
from repro.topology import (
    InternetGeneratorConfig,
    Relationship,
    Topology,
    generate_internet,
)


@pytest.fixture()
def chain():
    """Provider chain 1 -> 2 -> 3 plus a peering 1 -- 4."""
    topo = Topology("chain")
    for asn in (1, 2, 3, 4):
        topo.add_as(asn)
    topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(1, 4, Relationship.PEER_PEER)
    return topo


@pytest.fixture(scope="module")
def internet_sim():
    topo = generate_internet(InternetGeneratorConfig(num_ases=80, seed=21))
    return topo, BGPSimulation(topo).run()


class TestConvergence:
    def test_chain_paths(self, chain):
        sim = BGPSimulation(chain).run()
        assert sim.converged
        assert sim.best_path(1, 3) == (3, 2, 1)
        assert sim.best_path(3, 1) == (1, 2, 3)
        assert sim.best_path(4, 2) == (2, 1, 4)

    def test_valley_freeness(self, chain):
        """AS 4 (peer of 1) must not reach 3 via a provider route of 1?
        It can: 3 is in 1's customer cone, so 1 exports it to peer 4."""
        sim = BGPSimulation(chain).run()
        assert sim.best_path(4, 3) == (3, 2, 1, 4)
        # But 2 must not learn 4's prefix via 3 (no valley): it learns it
        # through provider 1 only.
        assert sim.best_path(2, 4) == (4, 1, 2)

    def test_full_reachability_on_synthetic_internet(self, internet_sim):
        topo, sim = internet_sim
        assert sim.converged
        asns = topo.asns()
        for a in asns[::7]:
            for o in asns[::5]:
                if a != o:
                    assert sim.best_path(a, o) is not None

    def test_paths_are_valley_free(self, internet_sim):
        """Every converged path climbs providers, crosses at most one
        peer/provider-summit, then descends to customers."""
        topo, sim = internet_sim
        asns = topo.asns()
        for a in asns[::9]:
            for o in asns[::9]:
                if a == o:
                    continue
                path = sim.best_path(a, o)
                assert path is not None
                descending = False
                for u, v in zip(path, path[1:]):
                    # Traffic flows v -> u (path is origin-first); an edge
                    # where v is u's customer means we are past the summit.
                    if u in topo.providers(v) or u in topo.peers(v):
                        descending = True
                    else:
                        assert not descending, f"valley in {path}"

    def test_loop_free_paths(self, internet_sim):
        topo, sim = internet_sim
        asns = topo.asns()
        for a in asns[::11]:
            for o in asns[::11]:
                if a != o:
                    path = sim.best_path(a, o)
                    assert path is not None
                    assert len(path) == len(set(path))

    def test_update_counters_consistent(self, internet_sim):
        _, sim = internet_sim
        total = sim.total_updates()
        assert total > 0
        assert total == sum(
            sim.updates_received(asn) for asn in sim.speakers
        )
        for asn in list(sim.speakers)[:5]:
            per_origin = sim.updates_received_by_origin(asn)
            assert sum(per_origin.values()) == sim.updates_received(asn)


class TestMonthlyModels:
    def test_bgpsec_order_of_magnitude_above_bgp(self, internet_sim):
        topo, sim = internet_sim
        prefixes = assign_prefix_counts(topo, seed=3)
        model = BGPChurnModel(seed=3)
        monitors = topo.asns()[::6]
        ratios = []
        for monitor in monitors:
            bgp = monthly_bgp_bytes(sim, monitor, prefixes, model)
            bgpsec = monthly_bgpsec_bytes(sim, monitor, prefixes)
            assert bgp > 0 and bgpsec > 0
            ratios.append(bgpsec / bgp)
        median = sorted(ratios)[len(ratios) // 2]
        assert 3.0 <= median <= 100.0

    def test_churn_model_deterministic(self):
        model = BGPChurnModel(seed=5)
        assert model.events_per_month(42) == model.events_per_month(42)
        other = BGPChurnModel(seed=6)
        assert model.events_per_month(42) != other.events_per_month(42)

    def test_prefix_counts_positive_and_mean(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=60, seed=2))
        counts = assign_prefix_counts(topo, mean=10.0, seed=1)
        assert set(counts) == set(topo.asns())
        assert all(c >= 1 for c in counts.values())
        mean = sum(counts.values()) / len(counts)
        assert 5.0 <= mean <= 20.0


class TestConfigValidation:
    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            BGPConfig(mrai=-1.0)
        with pytest.raises(ValueError):
            BGPConfig(link_delay=0.0)
