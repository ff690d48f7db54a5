"""Property harness for the scheduler axioms (repro.multipath.axioms).

Satellite requirement: every registered strategy satisfies efficiency,
loop-freedom and fairness across >= 20 seeded synthetic topologies — and
the checkers actually *catch* broken schedulers, so an empty violation
list is evidence, not vacuity.
"""

import dataclasses

import pytest

from repro.dataplane.combinator import EndToEndPath
from repro.multipath.axioms import (
    check_all_strategies,
    check_efficiency,
    check_fairness,
    check_loop_freedom,
    check_split,
    check_strategy,
    synthetic_universe,
)
from repro.multipath.scheduler import (
    POLICY_NAMES,
    STRATEGY_NAMES,
    MultipathScheduler,
    PathAssignment,
    PathSplit,
    SchedulerContext,
    get_strategy,
)

NUM_UNIVERSES = 24


def test_universes_are_seeded_and_distinct():
    a1, _ = synthetic_universe(5)
    a2, _ = synthetic_universe(5)
    b, _ = synthetic_universe(6)
    assert a1 == a2
    assert a1 != b
    # Identities are unique within a universe and all paths loop-free.
    identities = {(p.asns, p.link_ids) for p in a1}
    assert len(identities) == len(a1)
    assert all(p.is_loop_free() for p in a1)


def test_all_strategies_satisfy_axioms_across_universes():
    """The headline property: 7 strategies x 24 universes x k x packets
    x flow keys, zero violations."""
    violations = check_all_strategies(num_universes=NUM_UNIVERSES)
    assert violations == []


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_each_strategy_individually(name):
    universes = [synthetic_universe(seed) for seed in range(NUM_UNIVERSES)]
    assert check_strategy(get_strategy(name), universes) == []


def _observed_universe(seed):
    """A synthetic universe whose context also carries what the load-
    and history-aware rankings read: one candidate's links run hot, and
    the pair has used another candidate's links before."""
    candidates, ctx = synthetic_universe(seed)
    hot = set(candidates[seed % len(candidates)].link_ids)
    used = candidates[(seed + 1) % len(candidates)]
    return candidates, SchedulerContext(
        ctx.path_latency,
        seed=seed,
        link_utilization=lambda link: 0.9 if link in hot else (link % 7) / 10,
        pair_links={(used.source, used.destination): frozenset(used.link_ids)},
    )


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_each_ranking_satisfies_axioms(name):
    """The three endpoint rankings are strategies like any other: sound
    at k in {1, 2, 3}, with and without their observations."""
    universes = [synthetic_universe(seed) for seed in range(NUM_UNIVERSES)]
    universes += [_observed_universe(seed) for seed in range(NUM_UNIVERSES)]
    strategy = get_strategy(name)
    assert check_strategy(strategy, universes, k_values=(1, 2, 3)) == []
    # The observations matter: somewhere they change the k=1 choice.
    if name != "shortest-latency":
        def chosen(candidates, ctx):
            split = strategy.split(0, 4, candidates, 1, ctx)
            return [assignment.path for assignment in split.assignments]

        assert any(
            chosen(candidates, observed) != chosen(candidates, plain)
            for (candidates, plain), (_, observed) in zip(
                universes, universes[NUM_UNIVERSES:]
            )
        )


def _split_of(candidates, assignments, num_packets):
    return PathSplit(
        flow_key=0, num_packets=num_packets, assignments=tuple(assignments)
    )


def test_efficiency_catches_packet_loss_and_overselection():
    candidates, ctx = synthetic_universe(1)
    split = _split_of(
        candidates,
        [PathAssignment(candidates[0], 3, 1.0)],
        5,  # 2 packets vanished
    )
    violations = check_efficiency(split, candidates, 1, "broken")
    assert any("packets" in v.detail for v in violations)

    over = _split_of(
        candidates,
        [PathAssignment(p, 1, 1.0) for p in candidates[:3]],
        3,
    )
    violations = check_efficiency(over, candidates, 2, "broken")
    assert any("selected 3 paths with k=2" in v.detail for v in violations)


def test_efficiency_catches_non_candidate_path():
    candidates, ctx = synthetic_universe(2)
    foreign = EndToEndPath(
        asns=(1, 99, 2), link_ids=(424242, 424243), expires_at=1e9
    )
    split = _split_of(candidates, [PathAssignment(foreign, 4, 1.0)], 4)
    violations = check_efficiency(split, candidates, 1, "broken")
    assert any("not a candidate" in v.detail for v in violations)


def test_loop_freedom_catches_loops_and_duplicates():
    candidates, _ = synthetic_universe(3)
    looped = EndToEndPath(
        asns=(1, 7, 1, 2), link_ids=(1, 1, 2), expires_at=1e9
    )
    split = _split_of(candidates, [PathAssignment(looped, 4, 1.0)], 4)
    assert any(
        v.axiom == "loop-freedom" for v in check_loop_freedom(split, "broken")
    )

    duplicated = _split_of(
        candidates,
        [
            PathAssignment(candidates[0], 2, 1.0),
            PathAssignment(candidates[0], 2, 1.0),
        ],
        4,
    )
    assert any(
        "twice" in v.detail for v in check_loop_freedom(duplicated, "broken")
    )


def test_fairness_catches_quota_deviation_and_non_monotonicity():
    candidates, _ = synthetic_universe(4)
    # Equal weights but one path hoards everything: deviates > 1 packet.
    hoarding = _split_of(
        candidates,
        [
            PathAssignment(candidates[0], 10, 1.0),
            PathAssignment(candidates[1], 0, 1.0),
        ],
        10,
    )
    violations = check_fairness(hoarding, "broken")
    assert any("deviates" in v.detail for v in violations)

    # Larger weight, fewer packets: monotonicity violation.
    inverted = _split_of(
        candidates,
        [
            PathAssignment(candidates[0], 1, 5.0),
            PathAssignment(candidates[1], 3, 1.0),
        ],
        4,
    )
    violations = check_fairness(inverted, "broken")
    assert any("got" in v.detail for v in violations)


def test_harness_flags_a_broken_scheduler_end_to_end():
    """A scheduler that drops a packet on multi-path splits: the sweep
    must produce efficiency violations (fairness may also fire)."""

    class LossyScheduler(MultipathScheduler):
        name = "lossy"

        def select(self, flow_key, candidates, k, ctx):
            return list(candidates[: min(k, len(candidates))])

        def split(self, flow_key, num_packets, candidates, k, ctx):
            honest = super().split(flow_key, num_packets, candidates, k, ctx)
            if len(honest.assignments) < 2:
                return honest
            first = honest.assignments[0]
            docked = (
                dataclasses.replace(first, packets=max(0, first.packets - 1)),
            ) + honest.assignments[1:]
            return dataclasses.replace(honest, assignments=docked)

    universes = [synthetic_universe(seed) for seed in range(8)]
    violations = check_strategy(LossyScheduler(), universes)
    assert any(v.axiom == "efficiency" for v in violations)
    assert all(v.strategy == "lossy" for v in violations)


def test_check_split_composes_all_axioms():
    candidates, ctx = synthetic_universe(9)
    split = get_strategy("weighted-ecmp").split(1, 12, candidates, 3, ctx)
    assert check_split(split, candidates, 3, "weighted-ecmp") == []
