"""Fault schedules (determinism, validation) and churn-model
reproducibility."""

import pickle

import pytest

from repro.bgp.churn import BGPChurnModel
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlanConfig,
    FaultSchedule,
    random_schedule,
)
from repro.faults.schedule import RECOVERY_MARGIN
from repro.topology import generate_core_mesh


def mesh(seed: int = 3):
    return generate_core_mesh(10, mean_degree=4.0, seed=seed)


class TestFaultEvent:
    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, FaultKind.LINK_DOWN, 1)

    def test_rate_only_on_loss_start(self):
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.LINK_DOWN, 1, rate=0.5)
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.LOSS_START, rate=0.0)
        FaultEvent(0, FaultKind.LOSS_START, rate=0.5)  # valid


class TestFaultSchedule:
    def test_orders_events_deterministically(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(3, FaultKind.LINK_DOWN, 2),
                FaultEvent(2, FaultKind.LINK_DOWN, 1),
                FaultEvent(5, FaultKind.LINK_UP, 2),
                FaultEvent(4, FaultKind.LINK_UP, 1),
            ),
            horizon=10,
        )
        assert [e.interval for e in schedule.events] == [2, 3, 4, 5]
        assert schedule.first_fault_interval() == 2

    def test_recovery_before_failure_at_same_interval(self):
        """A flap (UP then DOWN in one interval) nets to DOWN."""
        schedule = FaultSchedule(
            events=(
                FaultEvent(2, FaultKind.LINK_DOWN, 1),
                FaultEvent(4, FaultKind.LINK_UP, 1),
                FaultEvent(4, FaultKind.LINK_DOWN, 1),
                FaultEvent(6, FaultKind.LINK_UP, 1),
            ),
            horizon=10,
        )
        kinds_at_4 = [e.kind for e in schedule.events_at(4)]
        assert kinds_at_4 == [FaultKind.LINK_UP, FaultKind.LINK_DOWN]

    def test_rejects_unrepaired_failure(self):
        with pytest.raises(ValueError, match="never repairs"):
            FaultSchedule(
                events=(FaultEvent(2, FaultKind.LINK_DOWN, 1),), horizon=10
            )

    def test_rejects_double_failure(self):
        with pytest.raises(ValueError, match="already failed"):
            FaultSchedule(
                events=(
                    FaultEvent(2, FaultKind.LINK_DOWN, 1),
                    FaultEvent(3, FaultKind.LINK_DOWN, 1),
                    FaultEvent(4, FaultKind.LINK_UP, 1),
                ),
                horizon=10,
            )

    def test_rejects_recovery_without_failure(self):
        with pytest.raises(ValueError, match="without a preceding"):
            FaultSchedule(
                events=(FaultEvent(2, FaultKind.LINK_UP, 1),), horizon=10
            )

    def test_rejects_event_outside_horizon(self):
        with pytest.raises(ValueError, match="outside the horizon"):
            FaultSchedule(
                events=(
                    FaultEvent(2, FaultKind.LINK_DOWN, 1),
                    FaultEvent(12, FaultKind.LINK_UP, 1),
                ),
                horizon=10,
            )


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        topo = mesh()
        config = FaultPlanConfig(seed=11, num_as_failures=1, num_loss_bursts=1)
        one = random_schedule(topo, config)
        two = random_schedule(topo, config)
        assert one == two
        assert pickle.dumps(one) == pickle.dumps(two)

    def test_different_seeds_differ(self):
        topo = mesh()
        schedules = {
            random_schedule(topo, FaultPlanConfig(seed=s)).events
            for s in range(8)
        }
        assert len(schedules) > 1

    def test_every_failure_is_repaired_within_horizon(self):
        topo = mesh()
        for seed in range(20):
            config = FaultPlanConfig(
                seed=seed,
                num_link_failures=3,
                num_as_failures=1,
                num_loss_bursts=2,
            )
            schedule = random_schedule(topo, config)  # validates on build
            recoveries = [
                event.interval
                for event in schedule.events
                if event.kind
                in (FaultKind.LINK_UP, FaultKind.AS_UP, FaultKind.LOSS_END)
            ]
            assert recoveries
            assert max(recoveries) <= config.horizon - RECOVERY_MARGIN

    def test_candidate_restriction(self):
        topo = mesh()
        allowed = sorted(link.link_id for link in topo.links())[:3]
        config = FaultPlanConfig(seed=1, num_link_failures=3)
        schedule = random_schedule(topo, config, link_ids=allowed)
        targets = {
            e.target
            for e in schedule.events
            if e.kind in (FaultKind.LINK_DOWN, FaultKind.LINK_UP)
        }
        assert targets == set(allowed)

    def test_too_many_failures_rejected(self):
        topo = mesh()
        config = FaultPlanConfig(seed=1, num_link_failures=10**6)
        with pytest.raises(ValueError, match="candidate links"):
            random_schedule(topo, config)

    def test_horizon_too_short_rejected(self):
        with pytest.raises(ValueError, match="horizon too short"):
            FaultPlanConfig(seed=1, horizon=6)


class TestChurnReproducibility:
    def test_events_deterministic_per_origin(self):
        model = BGPChurnModel(seed=5)
        for origin in (1, 7, 42):
            assert model.events_per_month(origin) == model.events_per_month(
                origin
            )

    def test_explicit_rng_is_the_only_source(self):
        """The model draws from its own seeded Random, so global random
        state cannot perturb it."""
        import random as global_random

        model = BGPChurnModel(seed=5)
        global_random.seed(0)
        first = [model.events_per_month(o) for o in range(10)]
        global_random.seed(12345)
        second = [model.events_per_month(o) for o in range(10)]
        assert first == second

    def test_seed_changes_events(self):
        one = BGPChurnModel(seed=1)
        two = BGPChurnModel(seed=2)
        assert [one.events_per_month(o) for o in range(5)] != [
            two.events_per_month(o) for o in range(5)
        ]

    def test_rng_keyed_by_origin(self):
        model = BGPChurnModel(seed=3)
        assert model.rng(1).random() == model.rng(1).random()
        assert model.rng(1).random() != model.rng(2).random()
