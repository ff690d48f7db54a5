"""Tests for the per-flow multipath schedulers (repro.multipath.scheduler)."""

import itertools

import pytest

from repro.multipath.axioms import synthetic_universe
from repro.multipath.scheduler import (
    POLICY_NAMES,
    STRATEGY_NAMES,
    get_strategy,
    largest_remainder,
    split_diversity,
)


@pytest.fixture(scope="module")
def universe():
    return synthetic_universe(3)


class TestLargestRemainder:
    def test_shares_sum_exactly(self):
        for packets in (0, 1, 7, 12, 100):
            for weights in ([1.0], [1.0, 1.0, 1.0], [3.0, 2.0, 1.0], [0.5, 0.25]):
                assert sum(largest_remainder(packets, weights)) == packets

    def test_within_one_packet_of_quota(self):
        weights = [5.0, 3.0, 1.0, 1.0]
        shares = largest_remainder(17, weights)
        total = sum(weights)
        for share, weight in zip(shares, weights):
            assert abs(share - 17 * weight / total) < 1.0

    def test_weight_monotone(self):
        shares = largest_remainder(10, [4.0, 2.0, 1.0])
        assert shares == sorted(shares, reverse=True)

    def test_offset_rotates_remainder_ties(self):
        # Three equal weights, one leftover packet: the offset decides
        # who gets it, deterministically.
        winners = {
            tuple(largest_remainder(4, [1.0, 1.0, 1.0], offset=o)).index(2)
            for o in range(3)
        }
        assert winners == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            largest_remainder(5, [])
        with pytest.raises(ValueError):
            largest_remainder(5, [1.0, 0.0])
        with pytest.raises(ValueError):
            largest_remainder(-1, [1.0])


class TestStrategies:
    def test_registry(self):
        assert set(STRATEGY_NAMES) == {
            "single", "round-robin", "weighted-ecmp", "max-disjoint"
        }
        assert set(POLICY_NAMES) == {
            "shortest-latency", "most-disjoint", "least-utilized"
        }
        for name in STRATEGY_NAMES + POLICY_NAMES:
            assert get_strategy(name).name == name
        with pytest.raises(ValueError, match="unknown multipath strategy"):
            get_strategy("hottest-potato")

    def test_single_always_one_path(self, universe):
        candidates, ctx = universe
        split = get_strategy("single").split(5, 9, candidates, 3, ctx)
        assert len(split.active) == 1
        assert split.active[0].packets == 9
        # And it is the lowest-latency candidate.
        assert ctx.path_latency(split.active[0].path) == min(
            ctx.path_latency(p) for p in candidates
        )

    def test_multipath_strategies_split_when_k_allows(self, universe):
        candidates, ctx = universe
        for name in ("round-robin", "weighted-ecmp", "max-disjoint"):
            split = get_strategy(name).split(5, 12, candidates, 3, ctx)
            assert len(split.active) > 1, name
            assert sum(a.packets for a in split.assignments) == 12

    def test_weighted_ecmp_favors_fast_paths(self, universe):
        candidates, ctx = universe
        split = get_strategy("weighted-ecmp").split(1, 100, candidates, 3, ctx)
        by_latency = sorted(
            split.assignments, key=lambda a: ctx.path_latency(a.path)
        )
        packets = [a.packets for a in by_latency]
        assert packets == sorted(packets, reverse=True)

    def test_max_disjoint_minimizes_overlap(self, universe):
        candidates, ctx = universe
        split = get_strategy("max-disjoint").split(1, 9, candidates, 3, ctx)
        chosen = [a.path for a in split.assignments]
        # The greedy selection's diversity is at least that of the plain
        # k-lowest-latency selection weighted-ecmp uses.
        ecmp = get_strategy("weighted-ecmp").split(1, 9, candidates, 3, ctx)
        assert split_diversity(chosen) >= split_diversity(
            [a.path for a in ecmp.assignments]
        )

    def test_round_robin_rotation_varies_by_flow(self, universe):
        candidates, ctx = universe
        # 4 packets over 3 paths: one leftover packet; across many flow
        # keys the seeded rotation must spread it over different paths.
        recipients = set()
        for flow_key in range(24):
            split = get_strategy("round-robin").split(
                flow_key, 4, candidates, 3, ctx
            )
            for index, assignment in enumerate(split.assignments):
                if assignment.packets == 2:
                    recipients.add(index)
        assert len(recipients) == 3

    def test_split_pure_and_permutation_invariant(self, universe):
        candidates, ctx = universe
        for name in STRATEGY_NAMES:
            strategy = get_strategy(name)
            reference = strategy.split(7, 11, candidates, 3, ctx)
            for ordering in itertools.islice(
                itertools.permutations(candidates), 6
            ):
                split = strategy.split(7, 11, list(ordering), 3, ctx)
                assert [
                    ((a.path.asns, a.path.link_ids), a.packets)
                    for a in split.assignments
                ] == [
                    ((a.path.asns, a.path.link_ids), a.packets)
                    for a in reference.assignments
                ], name

    def test_split_validation(self, universe):
        candidates, ctx = universe
        strategy = get_strategy("weighted-ecmp")
        with pytest.raises(ValueError):
            strategy.split(1, 0, candidates, 3, ctx)
        with pytest.raises(ValueError):
            strategy.split(1, 5, candidates, 0, ctx)
        with pytest.raises(ValueError, match="no loop-free"):
            strategy.split(1, 5, [], 3, ctx)


class TestSplitDiversity:
    def test_disjoint_paths_score_one(self, universe):
        candidates, _ = universe
        assert split_diversity([candidates[0]]) == 1.0
        assert split_diversity([]) == 1.0

    def test_shared_links_lower_score(self, universe):
        candidates, _ = universe
        assert split_diversity([candidates[0], candidates[0]]) <= 0.5
