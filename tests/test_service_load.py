"""Seeded multi-client load scenarios against the measurement service.

The headline acceptance test: a scripted 1000-client session replayed
twice produces byte-identical aggregate results and metrics snapshots,
with zero wall-clock sleeps (every ``asyncio.sleep`` call during the run
is asserted to be an immediate yield)."""

import asyncio

import pytest

from repro.obs import Telemetry
from repro.service import (
    LoadConfig,
    LoadGenerator,
    RequestKind,
    ServiceConfig,
    SessionConfig,
    run_session,
)


@pytest.fixture
def forbid_wall_clock_sleeps(monkeypatch):
    """Fail the test if anything sleeps for real during a virtual run."""
    real_sleep = asyncio.sleep

    async def guarded(delay, *args, **kwargs):
        assert delay == 0, f"wall-clock sleep of {delay}s in a virtual run"
        return await real_sleep(0)

    monkeypatch.setattr(asyncio, "sleep", guarded)


def test_thousand_clients_replay_byte_identically(forbid_wall_clock_sleeps):
    config = SessionConfig(scale="mini")
    assert config.load.num_clients == 1000

    obs_first, obs_second = Telemetry.collecting(), Telemetry.collecting()
    first = run_session(config, obs=obs_first)
    second = run_session(config, obs=obs_second)

    assert first.to_json() == second.to_json()
    assert obs_first.metrics.to_json() == obs_second.metrics.to_json()

    stats = first.aggregate["stats"]
    # The scenario exercises every pipeline path, deterministically.
    assert stats["submitted"] == first.planned_requests
    assert stats["accepted"] > 0
    assert stats["rejected_queue_full"] > 0, "overload must trigger admission"
    assert stats["completed_timeout"] > 0, "planted slow requests must time out"
    assert stats["retries"] > 0
    assert stats["completed_failed"] == 0
    # Exact reconciliation: rejections + accepted == submitted (also
    # asserted inside check_invariants, which run_session already ran).
    rejected = (
        stats["rejected_queue_full"]
        + stats["rejected_rate_limited"]
        + stats["rejected_shutting_down"]
    )
    assert stats["submitted"] == stats["accepted"] + rejected


def test_load_mix_covers_all_request_kinds():
    config = SessionConfig(scale="mini")
    generator = LoadGenerator(
        list(range(100, 140)), config.load, fault_links=[1, 2, 3]
    )
    kinds = set()
    fault_actions = []
    for client_id in range(config.load.num_clients):
        for step in generator.client_plan(client_id):
            kinds.add(step.request.kind)
            if step.request.kind is RequestKind.INJECT_FAULT:
                fault_actions.append(step.request.action)
    assert kinds == set(RequestKind)
    # Faults always come in fail/recover pairs, so sessions end healed.
    assert fault_actions.count("fail") == fault_actions.count("recover")


def test_client_plans_are_pure_functions_of_seed():
    load = LoadConfig(num_clients=10, requests_per_client=4, seed=123)
    a = LoadGenerator(list(range(100, 120)), load, fault_links=[7])
    b = LoadGenerator(list(range(100, 120)), load, fault_links=[7])
    for client_id in range(load.num_clients):
        assert a.client_plan(client_id) == b.client_plan(client_id)
    # A different seed produces a different plan for at least one client.
    c = LoadGenerator(
        list(range(100, 120)),
        LoadConfig(num_clients=10, requests_per_client=4, seed=124),
        fault_links=[7],
    )
    assert any(
        a.client_plan(i) != c.client_plan(i) for i in range(load.num_clients)
    )


def test_tight_rate_limits_are_enforced_and_replayable(
    forbid_wall_clock_sleeps,
):
    config = SessionConfig(
        scale="mini",
        load=LoadConfig(num_clients=50, requests_per_client=10, seed=11),
        service=ServiceConfig(
            workers=8,
            queue_depth=128,
            rate_per_client=5.0,
            burst_per_client=2.0,
        ),
    )
    # run_session's check_invariants replays the admission journal through
    # fresh token buckets — it raises if any decision diverges.
    report = run_session(config)
    stats = report.aggregate["stats"]
    assert stats["rejected_rate_limited"] > 0
    assert stats["accepted"] > 0
    assert report.aggregate["in_flight"] == 0
    assert report.aggregate["queue"]["depth"] == 0
