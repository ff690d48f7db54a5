"""Integration tests for the BGP convergence simulation."""

import gc
import hashlib
import tracemalloc

import pytest

from repro.bgp import (
    BGPChurnModel,
    BGPSimulation,
    assign_prefix_counts,
    monthly_bgp_bytes,
    monthly_bgpsec_bytes,
)
from repro.experiments.common import build_internet
from repro.experiments.config import get_scale
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


@pytest.fixture(scope="module")
def traced_convergence():
    """The test-scale Internet's convergence per topology seed, run once
    under ``tracemalloc``: ``seed -> (topology, simulation, live, peak)``,
    shared by the pinned outputs and the bytes-per-route bounds."""
    runs = {}

    def converge(seed):
        if seed not in runs:
            topo = build_internet(get_scale("test").scaled(seed=seed))
            gc.collect()
            tracemalloc.start()
            try:
                sim = BGPSimulation(topo).run()
                gc.collect()
                live, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            runs[seed] = (topo, sim, live, peak)
        return runs[seed]

    return converge


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
                    peers = {peer for peer, _ in topo.peering_links(v)}
                    if u in topo.providers(v) or u in peers:
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
            speaker.updates_received for speaker in sim.speakers.values()
        )
        for asn in list(sim.speakers)[:5]:
            per_origin = sim.updates_received_by_origin(asn)
            assert sum(per_origin.values()) == (
                sim.speakers[asn].updates_received
            )


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
        counts = assign_prefix_counts(topo, seed=1)
        assert set(counts) == set(topo.asns())
        assert all(c >= 1 for c in counts.values())
        mean = sum(counts.values()) / len(counts)
        assert 5.0 <= mean <= 20.0


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestPinnedConvergence:
    """Literal outputs of the test-scale Internet's convergence: a change to
    the RIB, the speaker or the event queue must leave every update count,
    every per-origin counter and every best path where they are."""

    @pytest.mark.parametrize(
        "seed, updates, events, received, paths",
        [
            (
                7, 26634, 27949,
                "73bc922529ad5c8b86f71781953ad27a3d86bad8c42ba4486dad8225b3831ca7",
                "a383bf92fb9adfec54ed9b5d00cbd5909041e6eba548537e909cf020c1ce8cd6",
            ),
            (
                11, 28766, 30292,
                "152c5665c9d2c415883ed3fb5bc2c3a49847ccb5d1181f04d7ac7156b11bb943",
                "529e6294fa7c97944a0885a4e303cebb2f7d2362810269a116b5348043d562d1",
            ),
        ],
    )
    def test_test_scale_internet(
        self, traced_convergence, seed, updates, events, received, paths
    ):
        topo, sim, _, _ = traced_convergence(seed)
        self.check(topo, sim, updates, events, received, paths)

    def test_bench_scale_internet(self):
        """250 ASes: hubs hold many routes per prefix, which the test-scale
        Internet barely reaches."""
        topo = build_internet(get_scale("bench").scaled(seed=7))
        self.check(
            topo, BGPSimulation(topo).run(),
            124213, 127339,
            "71a01a34c9ac9a0ffcc4aa3a148d749b63d4f1f8f00b9a5e9e62afa026c66a1b",
            "b9a1d2302e1840841f81a33976798cb60b73c389d795e91cd7e994f13d807021",
        )

    @staticmethod
    def check(topo, sim, updates, events, received, paths):
        asns = sorted(topo.asns())
        assert sim.converged
        assert sim.total_updates() == updates
        assert sim.simulator.events_processed == events
        assert _digest([
            (asn, sorted(sim.speakers[asn].received_by_origin.items()))
            for asn in asns
        ]) == received
        assert _digest([
            (asn, origin, sim.best_path(asn, origin))
            for asn in asns
            for origin in asns
        ]) == paths


class TestOneCopyPerFact:
    """Convergence holds each export path once: every advertisement of a
    best route, and every Adj-RIB-In route learned from it, shares one
    tuple, so the RIBs cost a bounded number of bytes per route."""

    @pytest.fixture(scope="class", params=[7, 11])
    def traced(self, request, traced_convergence):
        return traced_convergence(request.param)[1:]

    def test_receivers_share_the_export_path(self, traced):
        sim, _, _ = traced
        checked = 0
        for asn, speaker in sim.speakers.items():
            for prefix, export_path in speaker._export_paths.items():
                for neighbor in speaker.neighbors:
                    rib = sim.speakers[neighbor].adj_rib_in
                    for route in rib.routes_for_prefix(prefix):
                        if route.neighbor == asn and route.as_path == export_path:
                            assert route.as_path is export_path
                            checked += 1
        assert checked > 20000

    def test_bytes_per_route(self, traced):
        sim, live, peak = traced
        routes = sum(len(s.adj_rib_in) for s in sim.speakers.values())
        assert live / routes <= 300
        assert peak / routes <= 450

