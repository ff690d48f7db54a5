"""Tests for the sharded beaconing kernel (repro.shard).

Covers the partitioner's plan invariants (ISD-atomic strategy, degree
fallback, boundary symmetry), the canonical delivery order of the
cross-shard message plane, and the determinism contract — a sharded run
is byte-identical to the single-process :class:`BeaconingSimulation` for
any shard count, on a small mesh and on Figure 6's test-scale core.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.experiments.common import build_core_topologies
from repro.experiments.config import TEST_SCALE
from repro.shard import (
    MessagePlane,
    PlaneMessage,
    ShardedBeaconing,
    canonical_order,
    partition_topology,
)
from repro.simulation.beaconing import (
    ALGORITHM_EVICTION,
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import assign_isds, generate_core_mesh


def _mesh(num_ases=16, num_isds=4, seed=7):
    topo = generate_core_mesh(num_ases, mean_degree=3.0, seed=seed)
    assign_isds(topo, num_isds)
    return topo


def _config(intervals=10, storage_limit=8):
    return BeaconingConfig(
        interval=10.0,
        duration=intervals * 10.0,
        pcb_lifetime=intervals * 10.0,
        storage_limit=storage_limit,
        mode=BeaconingMode.CORE,
    )


# --------------------------------------------------------------------------
# partitioner
# --------------------------------------------------------------------------


class TestPartitionPlan:
    def test_isd_strategy_keeps_isds_atomic(self):
        topo = _mesh(num_isds=4)
        plan = partition_topology(topo, 2)
        assert plan.strategy == "isd"
        for asn in topo.asns():
            peer_shards = {
                plan.shard_of(other)
                for other in topo.asns()
                if topo.as_node(other).isd == topo.as_node(asn).isd
            }
            assert peer_shards == {plan.shard_of(asn)}

    def test_degree_fallback_without_isd_annotations(self):
        topo = generate_core_mesh(20, mean_degree=3.0, seed=9)
        plan = partition_topology(topo, 4)
        assert plan.strategy == "degree"
        # The fallback balances accumulated link degree (per-interval
        # beaconing work), not member counts.
        loads = [
            sum(topo.degree(asn) for asn in members)
            for members in plan.members
        ]
        assert all(members for members in plan.members)
        assert max(loads) <= 2 * min(loads)

    def test_fewer_isds_than_shards_falls_back(self):
        topo = _mesh(num_isds=2)
        plan = partition_topology(topo, 4)
        assert plan.strategy == "degree"
        assert plan.num_shards == 4

    def test_members_partition_all_ases(self):
        topo = _mesh()
        plan = partition_topology(topo, 3)
        seen = [asn for members in plan.members for asn in members]
        assert sorted(seen) == sorted(topo.asns())
        assert len(seen) == len(set(seen))
        assert set(plan.assignment) == set(topo.asns())

    def test_boundary_links_cross_shards_symmetrically(self):
        topo = _mesh()
        plan = partition_topology(topo, 4)
        boundary = set(plan.boundary_link_ids)
        # Exactly the links whose endpoints live in different shards —
        # computed independently here by iterating every link once.
        expected = {
            link.link_id
            for link in topo.links()
            if plan.shard_of(link.a.asn) != plan.shard_of(link.b.asn)
        }
        assert boundary == expected
        assert boundary  # a 4-way split of a connected mesh has a boundary

    def test_halo_is_members_plus_neighbors(self):
        topo = _mesh()
        plan = partition_topology(topo, 4)
        for shard in range(plan.num_shards):
            halo = set(plan.halo_asns(topo, shard))
            owned = set(plan.members[shard])
            assert owned <= halo
            expected = set(owned)
            for asn in owned:
                expected |= topo.neighbor_set(asn)
            assert halo == expected

    def test_plan_is_deterministic(self):
        topo = _mesh()
        assert partition_topology(topo, 4) == partition_topology(topo, 4)

    def test_shard_count_clamped_to_as_count(self):
        topo = generate_core_mesh(5, mean_degree=2.0, seed=3)
        plan = partition_topology(topo, 16)
        assert plan.num_shards == 5

    def test_rejects_bad_inputs(self):
        topo = _mesh()
        with pytest.raises(ValueError):
            partition_topology(topo, 0)
        from repro.topology import Topology

        with pytest.raises(ValueError):
            partition_topology(Topology("empty"), 2)


# --------------------------------------------------------------------------
# message plane
# --------------------------------------------------------------------------


def _message(interval, src, seq, link_id, receiver=99):
    return PlaneMessage(
        interval=interval, src=src, seq=seq, link_id=link_id,
        receiver=receiver, pcb=None,
    )


class TestMessagePlane:
    def test_canonical_order_key(self):
        messages = [
            _message(1, 5, 0, 10),
            _message(0, 9, 2, 4),
            _message(0, 2, 1, 7),
            _message(0, 2, 0, 9),
            _message(0, 2, 1, 3),
        ]
        ordered = canonical_order(messages)
        assert [m.sort_key for m in ordered] == sorted(
            m.sort_key for m in messages
        )
        assert ordered[0].src == 2 and ordered[0].seq == 0
        assert ordered[-1].interval == 1

    def test_routes_to_receiver_shard_and_drains_sorted(self):
        plane = MessagePlane(shard_of={1: 0, 2: 1}, num_shards=2)
        plane.route([
            _message(0, 7, 1, 12, receiver=2),
            _message(0, 3, 0, 11, receiver=1),
            _message(0, 7, 0, 13, receiver=2),
        ])
        inbox = plane.take(1)
        assert [(m.src, m.seq) for m in inbox] == [(7, 0), (7, 1)]
        assert all(m.receiver == 2 for m in inbox)
        assert plane.take(1) == []  # drained
        assert [(m.src, m.receiver) for m in plane.take(0)] == [(3, 1)]
        assert plane.take(0) == []


# --------------------------------------------------------------------------
# determinism contract: sharded == single-process
# --------------------------------------------------------------------------


def _digest(sim, topo, paths=True):
    """What the contract pins: metrics and stored paths. ``paths=False``
    leaves out ``paths_at``, which a closed sharded run refuses."""
    digest = {
        "interfaces": sim.metrics.interfaces(),
        "total_pcbs": sim.metrics.total_pcbs,
        "total_bytes": sim.metrics.total_bytes,
    }
    if paths:
        origins = sorted(topo.asns())[:3]
        digest["paths"] = {
            (asn, origin): sorted(
                pcb.path_key() for pcb in sim.paths_at(asn, origin)
            )
            for asn in sorted(topo.asns())
            for origin in origins
        }
    return digest


def _assert_close_keeps_queries(sim, topo, expected):
    """``close()`` changes no query that stays answerable: afterwards
    they read the same live shard simulations."""
    sim.close()
    expected = {k: v for k, v in expected.items() if k != "paths"}
    assert _digest(sim, topo, paths=False) == expected


@lru_cache(maxsize=None)
def _figure6_core():
    return build_core_topologies(TEST_SCALE).scion_core


def _input(name, algorithm):
    """``(topology, config)`` of one equivalence input: the small mesh,
    or the core Figure 6 runs its series on at ``test`` scale, with the
    storage limit and eviction policy of its 60-beacon series."""
    if name == "mesh":
        return _mesh(), _config()
    config = replace(
        TEST_SCALE.core_beaconing_config(60),
        eviction_policy=ALGORITHM_EVICTION[algorithm],
    )
    return _figure6_core(), config


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["baseline", "diversity"])
    @pytest.mark.parametrize(
        "shards,query_after_close,topology",
        [
            pytest.param(2, False, "mesh", id="2-False"),
            pytest.param(4, False, "mesh", id="4-False"),
            pytest.param(4, True, "mesh", id="4-True"),
            pytest.param(4, False, "figure6", id="4-figure6"),
        ],
    )
    def test_fault_free_run_matches_single_process(
        self, algorithm, shards, query_after_close, topology
    ):
        topo, config = _input(topology, algorithm)
        factory = {
            "baseline": baseline_factory, "diversity": diversity_factory
        }[algorithm]
        reference = BeaconingSimulation(topo, factory(), config).run()
        sharded = ShardedBeaconing(topo, factory(), config, shards=shards)
        try:
            sharded.run()
            expected = _digest(reference, topo)
            assert _digest(sharded, topo) == expected
            if query_after_close:
                _assert_close_keeps_queries(sharded, topo, expected)
        finally:
            sharded.close()

    def test_single_shard_plan_matches_too(self):
        """shards=1 routes everything through one worker: the degenerate
        plan must still reproduce the reference run exactly."""
        topo = _mesh()
        config = _config(intervals=6)
        reference = BeaconingSimulation(topo, baseline_factory(), config).run()
        with ShardedBeaconing(topo, baseline_factory(), config, shards=1) as sharded:
            sharded.run()
            assert _digest(sharded, topo) == _digest(reference, topo)


# --------------------------------------------------------------------------
# coordinator surface
# --------------------------------------------------------------------------


class TestCoordinatorSurface:
    def test_requires_a_core_as(self):
        topo = generate_core_mesh(6, seed=2)
        for node in topo.ases():
            node.is_core = False
        with pytest.raises(ValueError):
            ShardedBeaconing(topo, baseline_factory(), _config(), shards=2)

    def test_close_is_idempotent_and_metrics_survive(self):
        topo = _mesh()
        sim = ShardedBeaconing(
            topo, baseline_factory(), _config(intervals=4), shards=2
        )
        sim.run()
        total = sim.metrics.total_pcbs
        sim.close()
        sim.close()
        assert sim.metrics.total_pcbs == total
        with pytest.raises(RuntimeError):
            sim.step()
        with pytest.raises(RuntimeError):
            sim.paths_at(sorted(topo.asns())[0], sorted(topo.asns())[0])

    def test_paths_at_unknown_asn_is_empty(self):
        topo = _mesh()
        with ShardedBeaconing(
            topo, baseline_factory(), _config(intervals=2), shards=2
        ) as sim:
            sim.run_intervals(2)
            assert sim.paths_at(999999, sorted(topo.asns())[0]) == []

    def test_a_closed_coordinator_refuses_mutations(self):
        """``step``, ``run`` and ``reset_metrics`` raise after
        ``close()``; the metrics they would have changed stay put."""
        topo = _mesh()
        sim = ShardedBeaconing(
            topo, diversity_factory(), _config(intervals=4), shards=2
        )
        sim.run_intervals(4)
        sim.close()
        total = (sim.metrics.total_pcbs, sim.metrics.total_bytes)
        for mutate in (sim.step, sim.run, sim.reset_metrics):
            with pytest.raises(RuntimeError, match="closed"):
                mutate()
        assert (sim.metrics.total_pcbs, sim.metrics.total_bytes) == total

    def test_process_mode_is_refused(self):
        with pytest.raises(ValueError, match="process shards were removed"):
            ShardedBeaconing(
                _mesh(), baseline_factory(), _config(), shards=2,
                processes=True,
            )
