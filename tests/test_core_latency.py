"""Tests for the latency-aware extension (§4.2 'Optimizing for other
Criteria') and its latency-information channel."""

import pytest

from repro.core import BeaconStore, LatencyAwareAlgorithm, PCB
from repro.simulation import BeaconingConfig, BeaconingSimulation
from repro.topology import (
    LatencyModel,
    Relationship,
    Topology,
    generate_core_mesh,
)


@pytest.fixture()
def topo():
    t = Topology()
    for asn in (1, 2, 3):
        t.add_as(asn, is_core=True)
    t.add_link(1, 2, Relationship.CORE, location="short")   # link 1
    t.add_link(1, 2, Relationship.CORE, location="long")    # link 2
    t.add_link(1, 3, Relationship.CORE, location="mid")     # link 3
    return t


class TestLatencyModel:
    def test_deterministic_and_bounded(self, topo):
        model = LatencyModel(topo, seed=1)
        for link in topo.links():
            latency = model.latency_of(link.link_id)
            assert model.min_latency <= latency <= model.max_latency
            assert latency == model.latency_of(link.link_id)

    def test_different_links_differ(self, topo):
        model = LatencyModel(topo, seed=1)
        latencies = {model.latency_of(l.link_id) for l in topo.links()}
        assert len(latencies) == topo.num_links

    def test_path_latency_sums(self, topo):
        model = LatencyModel(topo)
        total = model.path_latency((1, 3))
        assert total == pytest.approx(
            model.latency_of(1) + model.latency_of(3)
        )

    def test_link_readded_under_its_id_is_rederived(self, topo):
        model = LatencyModel(topo, seed=1)
        before = model.latency_of(2)
        topo.remove_link(2)
        topo.add_link(1, 2, Relationship.CORE, location="moved", link_id=2)
        after = model.latency_of(2)
        assert after != before
        assert after == LatencyModel(topo, seed=1).latency_of(2)
        assert model.latency_of(2) == after

    def test_path_latency_is_the_plain_sum_of_its_links(self, topo):
        model = LatencyModel(topo, seed=3)
        link_ids = (1, 3, 2, 1, 3)
        expected = sum(model.latency_of(link_id) for link_id in link_ids)
        # Bit for bit, warm or cold, whatever the iterable.
        assert model.path_latency(link_ids) == expected
        assert model.path_latency(iter(link_ids)) == expected
        assert LatencyModel(topo, seed=3).path_latency(link_ids) == expected
        assert model.path_latency(()) == 0

    def test_validation(self, topo):
        with pytest.raises(ValueError):
            LatencyModel(topo, min_latency=0.0)
        with pytest.raises(ValueError):
            LatencyModel(topo, min_latency=0.1, max_latency=0.05)


class TestLatencyAwareAlgorithm:
    def make(self, topo, **kwargs):
        # Seed 1 derives parallel link 1 fast (6 ms) and link 2 slow (44 ms).
        model = LatencyModel(topo, seed=1)
        assert model.latency_of(1) < 0.01 < 0.04 < model.latency_of(2)
        kwargs.setdefault("dissemination_limit", 1)
        return LatencyAwareAlgorithm(1, topo, model, **kwargs), model

    def test_prefers_low_latency_egress(self, topo):
        algo, model = self.make(topo)
        store = BeaconStore()
        store.insert(PCB.originate(1, 0.0, 21600.0), now=0.0)
        out = algo.select(store, topo.links_between(1, 2), now=600.0)
        assert len(out) == 1
        assert out[0].link.link_id == 1  # the fast parallel link

    def test_quality_halves_at_reference(self, topo):
        _, model = self.make(topo)
        algo, _ = self.make(topo, reference_latency=model.latency_of(3))
        assert algo.quality((3,)) == pytest.approx(0.5)

    def test_suppresses_resends(self, topo):
        algo, _ = self.make(topo, dissemination_limit=5)
        store = BeaconStore()
        store.insert(PCB.originate(1, 0.0, 21600.0), now=0.0)
        links = topo.links_between(1, 2)
        first = algo.select(store, links, now=600.0)
        assert len(first) == 2  # both parallel links, once
        second = algo.select(store, links, now=1200.0)
        assert second == []

    def test_resends_across_a_recovered_link(self, topo):
        """``fail_link`` revokes the paths sent over the link; records of
        those now-invalid instances must not keep suppressing the re-send
        by Eq. 3 once the link is back."""
        model = LatencyModel(topo, seed=1)
        config = BeaconingConfig(
            interval=600.0, duration=8 * 600.0, pcb_lifetime=21600.0,
            storage_limit=10,
        )
        sim = BeaconingSimulation(
            topo, lambda asn, t: LatencyAwareAlgorithm(asn, t, model), config
        )
        sim.run_intervals(3)
        assert sim.metrics.interface_stats(1, 1).pcbs > 0
        assert (1,) in {p.link_ids() for p in sim.paths_at(2, 1)}
        assert sim.fail_link(1) > 0
        sim.step()
        assert (1,) not in {p.link_ids() for p in sim.paths_at(2, 1)}
        sim.recover_link(1)
        sim.reset_metrics()
        sim.step()
        # Both ends send across the recovered link at once ...
        assert sim.metrics.interface_stats(1, 1).pcbs > 0
        assert sim.metrics.interface_stats(1, 2).pcbs > 0
        # ... and the revoked path is back one delivery later.
        sim.step()
        assert (1,) in {p.link_ids() for p in sim.paths_at(2, 1)}

    def test_invalid_reference_rejected(self, topo):
        with pytest.raises(ValueError):
            LatencyAwareAlgorithm(1, topo, reference_latency=0.0)

    def test_end_to_end_lower_latency_paths_than_baseline(self):
        """On a mesh, latency-aware beaconing disseminates lower-latency
        path sets than the shortest-AS-path baseline."""
        from repro.simulation import baseline_factory

        topo = generate_core_mesh(10, seed=11, mean_degree=4.0)
        model = LatencyModel(topo, seed=11)
        config = BeaconingConfig(
            interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
            storage_limit=10,
        )

        def latency_factory(asn, topology):
            return LatencyAwareAlgorithm(asn, topology, model)

        base = BeaconingSimulation(topo, baseline_factory(), config).run()
        lat = BeaconingSimulation(topo, latency_factory, config).run()

        def best_latency(sim):
            total, count = 0.0, 0
            for receiver in sim.participant_asns():
                for origin in sim.originator_asns():
                    if origin == receiver:
                        continue
                    paths = sim.paths_at(receiver, origin)
                    if not paths:
                        continue
                    total += min(
                        model.path_latency(p.link_ids()) for p in paths
                    )
                    count += 1
            return total / count

        assert best_latency(lat) <= best_latency(base) * 1.02
