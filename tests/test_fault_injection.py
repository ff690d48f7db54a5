"""Randomized fault schedules against both algorithms, with the invariant
harness applied after every interval, plus determinism and differential
checks (the tentpole's acceptance criteria)."""

import pickle

import pytest

from repro.analysis import path_set_resilience, unit_max_flow_between
from repro.control.revocation import RevocationService
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlanConfig,
    FaultSpec,
    random_schedule,
)
from repro.runtime import ExperimentRuntime
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import generate_core_mesh

from tests.fault_harness import assert_invariants, core_square, stepwise_run

CONFIG = BeaconingConfig(
    interval=600.0,
    duration=16 * 600.0,
    pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)

FACTORIES = {"baseline": baseline_factory, "diversity": diversity_factory}

#: 25+ randomized schedules per algorithm (the acceptance floor).
NUM_SCHEDULES = 26


def make_mesh(seed: int = 3):
    return generate_core_mesh(12, mean_degree=4.0, seed=seed)


def monitored_pairs(topo):
    asns = sorted(topo.asns())
    return ((asns[0], asns[-1]), (asns[1], asns[-2]), (asns[2], asns[-3]))


def plan_for(seed: int) -> FaultPlanConfig:
    """Schedule plans cycling through the fault kinds: all fail two links,
    every third adds an AS outage, every third a beacon-loss burst."""
    return FaultPlanConfig(
        seed=seed,
        horizon=20,
        # Beacons advance one AS hop per interval, so the warm period must
        # exceed the mesh diameter for every monitored pair to have paths.
        first_fault=8,
        num_link_failures=2,
        num_as_failures=1 if seed % 3 == 1 else 0,
        num_loss_bursts=1 if seed % 3 == 2 else 0,
    )


def build_injector(topo, algorithm: str, schedule, pairs):
    sim = BeaconingSimulation(topo, FACTORIES[algorithm](), CONFIG)
    return FaultInjector(
        sim,
        schedule,
        pairs=pairs,
        revocations=RevocationService(topo),
        loss_seed=schedule.horizon,
    )


@pytest.mark.parametrize("algorithm", ["baseline", "diversity"])
def test_randomized_schedules_hold_invariants(algorithm):
    """Every interval of every schedule preserves the structural
    invariants; loss-free schedules additionally restore resilience."""
    topo = make_mesh()
    pairs = monitored_pairs(topo)
    monitored = {asn for pair in pairs for asn in pair}
    outage_candidates = sorted(set(topo.asns()) - monitored)
    for seed in range(NUM_SCHEDULES):
        plan = plan_for(seed)
        schedule = random_schedule(topo, plan, asns=outage_candidates)
        injector = build_injector(topo, algorithm, schedule, pairs)
        result = stepwise_run(injector)
        assert result.events_applied == len(schedule.events)
        assert injector.sim.failed_links() == []
        assert injector.sim.failed_ases() == []
        assert result.revocations_issued > 0
        assert result.revocation_bytes > 0
        lossy = any(
            e.kind is FaultKind.LOSS_START for e in schedule.events
        )
        for pair in result.pairs:
            assert pair.pre_paths > 0, (
                f"seed {seed}: pair {(pair.origin, pair.receiver)} had no "
                "paths before the first fault — warm period too short"
            )
            assert pair.post_paths > 0
            if not lossy:
                assert pair.post_resilience >= pair.pre_resilience, (
                    f"seed {seed}: pair {(pair.origin, pair.receiver)} "
                    f"resilience {pair.post_resilience} < pre-failure "
                    f"{pair.pre_resilience} after all faults recovered"
                )


def test_reconnection_is_tracked_on_partition():
    """Failing both links of a square corner disconnects the opposite
    pair; recovery is observed and timed once the links return."""
    topo = core_square()
    link_12 = topo.links_between(1, 2)[0].link_id
    link_14 = topo.links_between(1, 4)[0].link_id
    from repro.faults import FaultEvent, FaultSchedule

    schedule = FaultSchedule(
        events=(
            FaultEvent(4, FaultKind.LINK_DOWN, link_12),
            FaultEvent(4, FaultKind.LINK_DOWN, link_14),
            FaultEvent(7, FaultKind.LINK_UP, link_12),
            FaultEvent(7, FaultKind.LINK_UP, link_14),
        ),
        horizon=16,
    )
    sim = BeaconingSimulation(topo, diversity_factory(), CONFIG)
    injector = FaultInjector(sim, schedule, pairs=((1, 3),))
    result = stepwise_run(injector)
    (pair,) = result.pairs
    assert pair.min_paths == 0
    assert pair.disconnected_intervals > 0
    assert pair.reconnect_intervals is not None
    assert result.recovery_times() == [
        pair.reconnect_intervals * CONFIG.interval
    ]
    assert pair.post_resilience >= pair.pre_resilience


@pytest.mark.parametrize("algorithm", ["baseline", "diversity"])
def test_repeat_run_is_identical(algorithm):
    """The same schedule and seeds reproduce the result bit for bit."""
    topo = make_mesh()
    pairs = monitored_pairs(topo)
    plan = plan_for(2)  # includes a loss burst
    schedule = random_schedule(topo, plan)

    def run():
        injector = build_injector(topo, algorithm, schedule, pairs)
        return injector.run()

    assert pickle.dumps(run()) == pickle.dumps(run())


def test_jobs_one_and_jobs_two_are_pickle_identical():
    """The acceptance criterion for the runtime wiring: the same fault
    specs produce byte-identical results serially and in workers."""
    topo = make_mesh()
    pairs = monitored_pairs(topo)

    def specs():
        out = []
        for algorithm in ("baseline", "diversity"):
            for seed in range(2):
                schedule = random_schedule(topo, plan_for(seed))
                out.append(
                    (
                        topo,
                        FaultSpec(
                            name=f"{algorithm}:s{seed}",
                            algorithm=algorithm,
                            config=CONFIG,
                            schedule=schedule,
                            seed=seed,
                            loss_seed=seed,
                            pairs=pairs,
                        ),
                    )
                )
        return out

    serial = ExperimentRuntime(jobs=1).run(specs())
    parallel = ExperimentRuntime(jobs=2).run(specs())
    assert [o.name for o in serial] == [o.name for o in parallel]
    for left, right in zip(serial, parallel):
        assert pickle.dumps(left.result) == pickle.dumps(right.result)


def test_fault_run_result_caching(tmp_path):
    """A cached fault run is returned verbatim on the second invocation."""
    topo = make_mesh()
    schedule = random_schedule(topo, plan_for(0))
    spec = FaultSpec(
        name="cached",
        algorithm="baseline",
        config=CONFIG,
        schedule=schedule,
        pairs=monitored_pairs(topo),
    )
    first = ExperimentRuntime(jobs=1, cache=tmp_path).run(
        [(topo, spec)]
    )[0]
    second = ExperimentRuntime(jobs=1, cache=tmp_path).run(
        [(topo, spec)]
    )[0]
    assert not first.cached
    assert second.cached
    assert pickle.dumps(first.result) == pickle.dumps(second.result)


@pytest.mark.parametrize("algorithm", ["baseline", "diversity"])
def test_fault_free_resilience_bounded_by_optimum(algorithm):
    """Differential satellite: on a fault-free run, every pair's path-set
    resilience is bounded by the topology's optimal resilience."""
    topo = make_mesh(seed=5)
    sim = BeaconingSimulation(topo, FACTORIES[algorithm](), CONFIG)
    sim.run_intervals(CONFIG.num_intervals)
    asns = sorted(topo.asns())
    pairs = [(a, b) for a in asns[:4] for b in asns[-4:] if a != b]
    for origin, receiver in pairs:
        paths = [p.link_ids() for p in sim.paths_at(receiver, origin)]
        achieved = path_set_resilience(topo, origin, receiver, paths)
        optimum = unit_max_flow_between(topo, origin, receiver)
        assert 0 <= achieved <= optimum


def test_degraded_resilience_never_counts_failed_links():
    """While a link is down, the stored paths that avoid it carry what the
    invariant harness relies on: no flow over the failure."""
    topo = core_square()
    link_12 = topo.links_between(1, 2)[0].link_id
    sim = BeaconingSimulation(topo, diversity_factory(), CONFIG)
    sim.run_intervals(4)
    sim.fail_link(link_12)
    sim.run_intervals(1)
    assert_invariants(sim, sim.step())
    paths = [p.link_ids() for p in sim.paths_at(3, 1)]
    degraded = path_set_resilience(
        topo, 1, 3, [path for path in paths if link_12 not in path]
    )
    plain = path_set_resilience(topo, 1, 3, paths)
    assert degraded <= plain
    assert degraded <= 1  # only the 1-4-3 side can carry flow
