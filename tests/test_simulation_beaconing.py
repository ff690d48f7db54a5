"""Integration tests for the beaconing simulation (core and intra-ISD)."""

import pickle

import pytest

from repro.core import DiversityAlgorithm
from repro.simulation import (
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import Relationship, Topology, generate_core_mesh


def line_core(n=4):
    """Core ASes 1 - 2 - ... - n in a line."""
    topo = Topology("line")
    for asn in range(1, n + 1):
        topo.add_as(asn, is_core=True)
    for asn in range(1, n):
        topo.add_link(asn, asn + 1, Relationship.CORE)
    return topo


def small_isd():
    """Two cores on top of a three-level customer tree.

    cores 1,2 -> AS 3 -> ASes 4,5 ; core 2 -> AS 6.
    """
    topo = Topology("isd")
    topo.add_as(1, isd=1, is_core=True)
    topo.add_as(2, isd=1, is_core=True)
    for asn in (3, 4, 5, 6):
        topo.add_as(asn, isd=1)
    topo.add_link(1, 2, Relationship.CORE)
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(3, 4, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(3, 5, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 6, Relationship.PROVIDER_CUSTOMER)
    return topo


FAST = BeaconingConfig(
    interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)


class TestCoreBeaconing:
    def test_beacons_reach_every_core_as(self):
        sim = BeaconingSimulation(line_core(4), baseline_factory(), FAST).run()
        # After 6 intervals every AS knows a path to every other core AS.
        for receiver in (1, 2, 3, 4):
            for origin in (1, 2, 3, 4):
                if origin == receiver:
                    continue
                paths = sim.paths_at(receiver, origin)
                assert paths, f"{receiver} has no path to {origin}"

    def test_propagation_is_one_hop_per_interval(self):
        topo = line_core(4)
        sim = BeaconingSimulation(topo, baseline_factory(), FAST)
        sim.step()  # origin beacons sent to direct neighbors
        assert sim.paths_at(2, 1) == []
        sim.step()  # delivered at distance 1
        assert len(sim.paths_at(2, 1)) == 1
        assert sim.paths_at(3, 1) == []
        sim.step()  # delivered at distance 2
        assert len(sim.paths_at(3, 1)) >= 1

    def test_disseminated_paths_are_loop_free(self):
        topo = generate_core_mesh(10, seed=4)
        sim = BeaconingSimulation(topo, baseline_factory(), FAST).run()
        for receiver in sim.participant_asns():
            for origin in sim.originator_asns():
                for pcb in sim.paths_at(receiver, origin):
                    asns = pcb.path_asns()
                    assert len(asns) == len(set(asns))
                    assert asns[0] == origin
                    assert asns[-1] == receiver

    def test_paths_traverse_real_links(self):
        topo = generate_core_mesh(8, seed=5)
        sim = BeaconingSimulation(topo, diversity_factory(), FAST).run()
        for receiver in sim.participant_asns():
            for origin in sim.originator_asns():
                for pcb in sim.paths_at(receiver, origin):
                    asns = pcb.path_asns()
                    for (a, b), link_id in zip(
                        zip(asns, asns[1:]), pcb.link_ids()
                    ):
                        link = topo.link(link_id)
                        assert {a, b} == set(link.endpoints())

    def test_diversity_cheaper_than_baseline(self):
        topo = generate_core_mesh(10, seed=6)
        config = BeaconingConfig(storage_limit=20)
        base = BeaconingSimulation(topo, baseline_factory(), config).run()
        div = BeaconingSimulation(topo, diversity_factory(), config).run()
        assert div.metrics.total_bytes < base.metrics.total_bytes / 2

    def test_diversity_finds_more_distinct_paths(self):
        topo = generate_core_mesh(10, seed=7)
        config = BeaconingConfig(storage_limit=30)
        base = BeaconingSimulation(topo, baseline_factory(), config).run()
        div = BeaconingSimulation(topo, diversity_factory(), config).run()
        def total_paths(sim):
            return sum(
                len(sim.paths_at(r, o))
                for r in sim.participant_asns()
                for o in sim.originator_asns()
                if r != o
            )
        assert total_paths(div) > total_paths(base)

    def test_metrics_account_every_transmission(self):
        topo = line_core(3)
        sim = BeaconingSimulation(topo, baseline_factory(), FAST).run()
        per_interface = sum(
            stats.pcbs for stats in sim.metrics.interfaces().values()
        )
        assert per_interface == sim.metrics.total_pcbs > 0
        received = sum(
            sim.metrics.pcbs_received_by(asn)
            for asn in sim.participant_asns()
        )
        assert received == sim.metrics.total_pcbs

    def test_non_core_ases_excluded_from_core_beaconing(self):
        topo = small_isd()
        sim = BeaconingSimulation(topo, baseline_factory(), FAST)
        assert sim.participant_asns() == [1, 2]

    def test_requires_an_originator(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
        with pytest.raises(ValueError):
            BeaconingSimulation(
                topo, baseline_factory(),
                BeaconingConfig(mode=BeaconingMode.CORE),
            )


class TestIntraISDBeaconing:
    def config(self):
        return BeaconingConfig(
            interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
            storage_limit=10, mode=BeaconingMode.INTRA_ISD,
        )

    def test_all_leaves_learn_paths_to_cores(self):
        sim = BeaconingSimulation(
            small_isd(), baseline_factory(), self.config()
        ).run()
        for leaf in (4, 5):
            assert sim.paths_at(leaf, 1)
            assert sim.paths_at(leaf, 2)
        assert sim.paths_at(6, 2)

    def test_pcbs_flow_only_downward(self):
        sim = BeaconingSimulation(
            small_isd(), baseline_factory(), self.config()
        ).run()
        # Cores never receive intra-ISD beacons (nothing flows up or across).
        assert sim.paths_at(1, 2) == []
        assert sim.paths_at(2, 1) == []
        # Leaves never act as senders.
        for (_link_id, sender), _stats in sim.metrics.interfaces().items():
            assert sender in (1, 2, 3), f"leaf {sender} sent beacons"

    def test_multihomed_leaf_gets_paths_via_both_providers(self):
        sim = BeaconingSimulation(
            small_isd(), baseline_factory(), self.config()
        ).run()
        paths_to_1 = sim.paths_at(4, 1)
        # AS 4 reaches core 1 via 3, whose providers are 1 and 2.
        assert any(pcb.path_asns() == (1, 3, 4) for pcb in paths_to_1)

    def test_overhead_linear_in_interfaces(self):
        """Intra-ISD beaconing sends on provider->customer links only."""
        sim = BeaconingSimulation(
            small_isd(), baseline_factory(), self.config()
        ).run()
        downstream_links = {
            link.link_id
            for link in small_isd().links()
            if link.relationship is Relationship.PROVIDER_CUSTOMER
        }
        for (link_id, _sender), stats in sim.metrics.interfaces().items():
            assert link_id in downstream_links


class TestConfig:
    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            BeaconingConfig(interval=0.0)
        with pytest.raises(ValueError):
            BeaconingConfig(interval=600.0, duration=60.0)

    def test_num_intervals(self):
        assert BeaconingConfig().num_intervals == 36

    def test_factories_build_per_as_instances(self):
        topo = line_core(3)
        factory = diversity_factory(dissemination_limit=3)
        a = factory(1, topo)
        b = factory(2, topo)
        assert isinstance(a, DiversityAlgorithm)
        assert a is not b
        assert a.dissemination_limit == 3


class TestDirectedInterfaces:
    def test_covers_every_egress_direction(self):
        topo = line_core(3)
        config = BeaconingConfig(
            interval=10.0, duration=30.0, pcb_lifetime=100.0
        )
        sim = BeaconingSimulation(topo, baseline_factory(), config)
        keys = sim.directed_interfaces()
        assert len(keys) == len(set(keys)) == 4  # 2 links x 2 directions
        assert keys == sorted(keys)
        for link in topo.links():
            assert (link.link_id, link.a.asn) in keys
            assert (link.link_id, link.b.asn) in keys

    def test_failed_links_are_excluded(self):
        topo = line_core(3)
        config = BeaconingConfig(
            interval=10.0, duration=30.0, pcb_lifetime=100.0
        )
        sim = BeaconingSimulation(topo, baseline_factory(), config)
        victim = next(iter(topo.links()))
        sim.fail_link(victim.link_id)
        keys = sim.directed_interfaces()
        assert all(link_id != victim.link_id for link_id, _ in keys)

    def test_bandwidth_population_includes_idle_interfaces(self):
        """Figure 9 regression: a quiet interface must appear in the CDF
        population with 0 Bps rather than vanish."""
        topo = line_core(4)
        config = BeaconingConfig(
            interval=10.0, duration=20.0, pcb_lifetime=100.0
        )
        sim = BeaconingSimulation(topo, baseline_factory(), config).run()
        population = sim.directed_interfaces()
        bandwidths = sim.metrics.per_interface_bandwidth(
            config.duration, interfaces=population
        )
        assert len(bandwidths) == len(population)
        legacy = sim.metrics.per_interface_bandwidth(config.duration)
        assert len(bandwidths) >= len(legacy)


class TestMidRunSnapshot:
    """A simulation pickled mid-run — Link History memos populated — and
    restored steps exactly like the one that was never interrupted, and
    the snapshot carries none of the memo."""

    @staticmethod
    def _tables(sim):
        return [
            table
            for server in sim.servers.values()
            for table in server.algorithm.history._tables.values()
        ]

    @staticmethod
    def _stored(sim):
        return {
            asn: list(server.store.all_beacons())
            for asn, server in sim.servers.items()
        }

    def test_restored_run_is_byte_identical(self):
        config = BeaconingConfig(
            interval=600.0, duration=24 * 600.0, pcb_lifetime=5 * 600.0,
            storage_limit=6,
        )
        sim = BeaconingSimulation(
            generate_core_mesh(7, seed=3), diversity_factory(), config
        )
        # Nine intervals in, some tables have gone an interval untouched.
        sim.run_intervals(9)
        assert any(table._memo for table in self._tables(sim))
        snapshot = pickle.dumps(sim)
        restored = pickle.loads(snapshot)
        assert not any(table._memo for table in self._tables(restored))
        # The same simulation with its memos dropped pickles to the same
        # bytes: nothing of the memo was in the snapshot.
        memos = [dict(table._memo) for table in self._tables(sim)]
        for table in self._tables(sim):
            table._memo.clear()
        assert pickle.dumps(sim) == snapshot
        # Put them back: the uninterrupted run continues from warm memos,
        # the restored one from empty ones.
        for table, memo in zip(self._tables(sim), memos):
            table._memo.update(memo)

        sim.run_intervals(9)
        restored.run_intervals(9)
        assert pickle.dumps(restored.metrics) == pickle.dumps(sim.metrics)
        assert sim.metrics.total_pcbs > 0
        assert self._stored(restored) == self._stored(sim)

    @staticmethod
    def _recorded(sim):
        """Make every server's ``select`` also append what it returns."""
        log = []
        for server in sim.servers.values():
            def recording(store, links, now, _select=server.algorithm.select):
                out = _select(store, links, now)
                log.extend(out)
                return out

            server.algorithm.select = recording
        return log

    @pytest.mark.parametrize(
        "factory", [diversity_factory(), baseline_factory()], ids=["diversity", "baseline"]
    )
    def test_restored_run_sends_identical_transmissions(self, factory):
        """The beacon stores' sorted snapshots and remembered worst beacons
        are derived state too: populated mid-run, absent from the snapshot,
        and without effect on a single transmission after the restore."""
        config = BeaconingConfig(
            interval=600.0, duration=24 * 600.0, pcb_lifetime=5 * 600.0,
            storage_limit=6,
        )
        sim = BeaconingSimulation(generate_core_mesh(7, seed=3), factory, config)
        sim.run_intervals(9)
        stores = [server.store for server in sim.servers.values()]
        assert any(store._worst for store in stores)
        assert any(store._sorted_cache for store in stores)
        snapshot = pickle.dumps(sim)
        restored = pickle.loads(snapshot)
        for server in restored.servers.values():
            assert not server.store._worst and not server.store._sorted_cache
        # The same simulation with both caches dropped pickles to the same
        # bytes: nothing of them was in the snapshot. Put them back, so
        # the uninterrupted run continues from warm caches.
        caches = [(dict(s._worst), dict(s._sorted_cache)) for s in stores]
        for store in stores:
            store._worst.clear()
            store._sorted_cache.clear()
        assert pickle.dumps(sim) == snapshot
        for store, (worst, ordered) in zip(stores, caches):
            store._worst.update(worst)
            store._sorted_cache.update(ordered)

        sent, resent = self._recorded(sim), self._recorded(restored)
        for interval in range(9):
            sim.step()
            restored.step()
            assert resent == sent, f"interval {interval}"
            assert pickle.dumps(resent) == pickle.dumps(sent)
            assert sent or interval
            sent.clear()
            resent.clear()
        assert pickle.dumps(restored.metrics) == pickle.dumps(sim.metrics)
        assert self._stored(restored) == self._stored(sim)
