"""Tests for the sharded beaconing kernel (repro.shard).

Covers the ISSUE acceptance properties: the partitioner's plan
invariants (ISD-atomic strategy, degree fallback, boundary symmetry),
the canonical delivery order of the cross-shard message plane, and the
determinism contract — a sharded run is byte-identical to the
single-process :class:`BeaconingSimulation` for any shard count, in
serial and process mode, fault-free and under a boundary-link fault
schedule, all the way up through the figure pipelines.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.runner import FaultSpec
from repro.obs import Telemetry
from repro.runtime import ExperimentRuntime, Task, execute_task
from repro.shard import (
    MessagePlane,
    PlaneMessage,
    ShardedBeaconing,
    canonical_order,
    partition_topology,
)
from repro.simulation.beaconing import (
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import assign_isds, generate_core_mesh

FIXTURES = Path(__file__).parent / "fixtures"


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
        assert plane.messages_routed == 3
        assert plane.pending() == 3
        inbox = plane.take(1)
        assert [m.seq for m in inbox] == [0, 1]
        assert all(m.receiver == 2 for m in inbox)
        assert plane.pending() == 1
        assert plane.take(1) == []  # drained
        assert [m.receiver for m in plane.take(0)] == [1]


# --------------------------------------------------------------------------
# determinism contract: sharded == single-process
# --------------------------------------------------------------------------


def _digest(sim, topo):
    """Everything the contract pins: metrics, paths, participants."""
    origins = sorted(topo.asns())[:3]
    paths = {
        (asn, origin): sorted(
            pcb.path_key() for pcb in sim.paths_at(asn, origin)
        )
        for asn in sorted(topo.asns())
        for origin in origins
    }
    return {
        "interfaces": sim.metrics.interfaces(),
        "total_pcbs": sim.metrics.total_pcbs,
        "total_bytes": sim.metrics.total_bytes,
        "pcbs_lost": sim.pcbs_lost,
        "participants": sim.participant_asns(),
        "originators": sim.originator_asns(),
        "interface_set": sim.directed_interfaces(),
        "paths": paths,
    }


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["baseline", "diversity"])
    @pytest.mark.parametrize("shards,processes", [(2, False), (4, False), (4, True)])
    def test_fault_free_run_matches_single_process(
        self, algorithm, shards, processes
    ):
        topo = _mesh()
        config = _config()
        factory = {
            "baseline": baseline_factory, "diversity": diversity_factory
        }[algorithm]
        reference = BeaconingSimulation(topo, factory(5), config).run()
        sharded = ShardedBeaconing(
            topo, factory(5), config, shards=shards, processes=processes
        )
        try:
            sharded.run()
            assert _digest(sharded, topo) == _digest(reference, topo)
        finally:
            sharded.close()

    @pytest.mark.parametrize("processes", [False, True])
    def test_boundary_fault_schedule_matches_single_process(self, processes):
        """Faults applied between intervals — including on boundary links
        and on an AS another shard only sees as a ghost — leave the
        sharded run byte-identical to the single-process one."""
        topo = _mesh()
        config = _config(intervals=12)
        plan = partition_topology(topo, 4)
        boundary_link = plan.boundary_link_ids[0]
        victim_as = plan.members[-1][0]

        def drive(sim):
            sim.run_intervals(4)
            sim.fail_link(boundary_link)
            sim.run_intervals(2)
            sim.fail_as(victim_as)
            sim.run_intervals(2)
            sim.recover_link(boundary_link)
            sim.recover_as(victim_as)
            sim.run_intervals(4)

        reference = BeaconingSimulation(topo, diversity_factory(5), config)
        drive(reference)
        reference._deliver()
        sharded = ShardedBeaconing(
            topo, diversity_factory(5), config, shards=4, processes=processes
        )
        try:
            drive(sharded)
            sharded.deliver_final()
            assert sharded.failed_links() == []
            assert sharded.failed_ases() == []
            assert _digest(sharded, topo) == _digest(reference, topo)
        finally:
            sharded.close()

    def test_single_shard_plan_matches_too(self):
        """shards=1 routes everything through one worker: the degenerate
        plan must still reproduce the reference run exactly."""
        topo = _mesh()
        config = _config(intervals=6)
        reference = BeaconingSimulation(topo, baseline_factory(5), config).run()
        with ShardedBeaconing(topo, baseline_factory(5), config, shards=1) as sharded:
            sharded.run()
            assert _digest(sharded, topo) == _digest(reference, topo)

    def test_snapshot_resume_matches_uninterrupted(self):
        """Warm-state contract: snapshotting shard states mid-run and
        resuming in a fresh coordinator continues the same trajectory."""
        topo = _mesh()
        config = _config(intervals=10)
        uninterrupted = ShardedBeaconing(
            topo, diversity_factory(5), config, shards=2
        )
        uninterrupted.run_intervals(10)

        first = ShardedBeaconing(topo, diversity_factory(5), config, shards=2)
        first.run_intervals(5)
        states = first.snapshot_states()
        first.close()
        resumed = ShardedBeaconing(
            topo, diversity_factory(5), config, shards=2,
            initial_states=states,
        )
        assert resumed.intervals_run == 5
        resumed.run_intervals(5)
        try:
            assert _digest(resumed, topo) == _digest(uninterrupted, topo)
        finally:
            resumed.close()
            uninterrupted.close()


# --------------------------------------------------------------------------
# coordinator surface
# --------------------------------------------------------------------------


class TestCoordinatorSurface:
    def test_requires_a_core_as(self):
        topo = generate_core_mesh(6, seed=2)
        for node in topo.ases():
            node.is_core = False
        with pytest.raises(ValueError):
            ShardedBeaconing(topo, baseline_factory(5), _config(), shards=2)

    def test_close_is_idempotent_and_metrics_survive(self):
        topo = _mesh()
        sim = ShardedBeaconing(
            topo, baseline_factory(5), _config(intervals=4), shards=2
        )
        sim.run()
        total = sim.metrics.total_pcbs
        sim.close()
        sim.close()
        assert sim.metrics.total_pcbs == total
        assert sim.participant_asns()
        with pytest.raises(RuntimeError):
            sim.step()
        with pytest.raises(RuntimeError):
            sim.paths_at(sorted(topo.asns())[0], sorted(topo.asns())[0])

    def test_paths_at_unknown_asn_is_empty(self):
        topo = _mesh()
        with ShardedBeaconing(
            topo, baseline_factory(5), _config(intervals=2), shards=2
        ) as sim:
            sim.run_intervals(2)
            assert sim.paths_at(999999, sorted(topo.asns())[0]) == []

    def test_rejects_mismatched_initial_states(self):
        topo = _mesh()
        donor = ShardedBeaconing(
            topo, baseline_factory(5), _config(intervals=2), shards=2
        )
        states = donor.snapshot_states()
        donor.close()
        with pytest.raises(ValueError):
            ShardedBeaconing(
                topo, baseline_factory(5), _config(intervals=2),
                shards=4, initial_states=states,
            )


# --------------------------------------------------------------------------
# fault runner + runtime integration
# --------------------------------------------------------------------------


def _fault_spec(topo, plan):
    boundary_link = plan.boundary_link_ids[0]
    victim_as = plan.members[-1][0]
    asns = sorted(topo.asns())
    pairs = tuple(
        (a, b) for a, b in [(asns[0], asns[-1]), (asns[1], asns[-2])]
        if a != victim_as and b != victim_as
    )
    schedule = FaultSchedule(
        events=(
            FaultEvent(6, FaultKind.LINK_DOWN, boundary_link),
            FaultEvent(7, FaultKind.AS_DOWN, victim_as),
            FaultEvent(9, FaultKind.LINK_UP, boundary_link),
            FaultEvent(10, FaultKind.AS_UP, victim_as),
        ),
        horizon=14,
    )
    return FaultSpec(
        name="shard-fault",
        algorithm="diversity",
        config=_config(intervals=14),
        schedule=schedule,
        pairs=pairs,
    )


class TestFaultRunnerEquivalence:
    def test_sharded_fault_run_matches_single_process(self):
        """Acceptance: the injector's full accounting — recoveries,
        revocations, lost beacons — is identical for shards 1, 2 and 4
        under a schedule that takes down a boundary link and a ghost AS."""
        topo = _mesh()
        spec = _fault_spec(topo, partition_topology(topo, 4))
        results = {}
        for shards, processes in [(1, False), (2, False), (4, True)]:
            outcome = execute_task(Task(
                spec=spec, topology=topo,
                shards=shards, shard_processes=processes,
            ))
            results[shards] = outcome.result
        assert results[2] == results[1]
        assert results[4] == results[1]
        assert results[1].events_applied == 4

    def test_runtime_run_faults_sharded(self):
        topo = _mesh()
        spec = _fault_spec(topo, partition_topology(topo, 4))
        plain = ExperimentRuntime(jobs=1).run([(topo, spec)])
        sharded = ExperimentRuntime(jobs=1, shards=4).run([(topo, spec)])
        assert sharded[0].result == plain[0].result


class TestRuntimeValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ExperimentRuntime(shards=0)

    def test_report_records_shard_count(self):
        runtime = ExperimentRuntime(shards=3)
        assert runtime.report.shards == 3
        assert runtime.report.to_dict()["shards"] == 3

    def test_process_mode_reserved_for_serial_runtime(self):
        assert ExperimentRuntime(jobs=1, shards=4).shard_processes
        assert not ExperimentRuntime(jobs=2, shards=2).shard_processes
        assert not ExperimentRuntime(jobs=1, shards=1).shard_processes


# --------------------------------------------------------------------------
# figure pipelines (acceptance: sharded figure == committed fixture)
# --------------------------------------------------------------------------


class TestFigureEquivalence:
    """The committed golden fixtures were produced by single-process
    runs; a sharded figure run must reproduce them byte for byte."""

    def test_figure6_sharded_matches_fixture(self):
        from repro.experiments.config import TEST_SCALE
        from repro.experiments.figure6 import run_figure6

        fixture = json.loads((FIXTURES / "figure6_test.json").read_text())
        result = run_figure6(
            TEST_SCALE, runtime=ExperimentRuntime(jobs=1, shards=4)
        )
        assert [list(pair) for pair in result.pairs] == fixture["pairs"]
        assert sorted(result.values) == sorted(fixture["values"])
        for series, expected in fixture["values"].items():
            assert list(result.values[series]) == expected
