"""Tests for max-flow based resilience/capacity analysis."""

from types import SimpleNamespace

import pytest

from repro.analysis import (
    flow_graph_from_links,
    flow_graph_from_topology,
    links_of_paths,
    max_flow,
    optimal_resilience,
    path_set_capacity,
    path_set_resilience,
)
from repro.core import PCB
from repro.experiments.figure6 import (
    PathQualityResult,
    disseminated_values,
    optimum_values,
)
from repro.topology import Relationship, Topology


@pytest.fixture()
def diamond():
    """1 and 2 joined by two parallel links and a detour via 3."""
    topo = Topology("diamond")
    for asn in (1, 2, 3):
        topo.add_as(asn, is_core=True)
    topo.add_link(1, 2, Relationship.CORE)  # link 1
    topo.add_link(1, 2, Relationship.CORE)  # link 2
    topo.add_link(1, 3, Relationship.CORE)  # link 3
    topo.add_link(3, 2, Relationship.CORE)  # link 4
    return topo


class TestFlowGraphs:
    def test_full_topology_flow(self, diamond):
        graph = flow_graph_from_topology(diamond)
        assert max_flow(graph, 1, 2) == 3  # two parallel + one detour

    def test_subset_flow(self, diamond):
        graph = flow_graph_from_links(diamond, [1, 3, 4])
        assert max_flow(graph, 1, 2) == 2

    def test_missing_endpoint_gives_zero(self, diamond):
        graph = flow_graph_from_links(diamond, [1])
        assert max_flow(graph, 1, 3) == 0

    def test_same_endpoint_rejected(self, diamond):
        graph = flow_graph_from_topology(diamond)
        with pytest.raises(ValueError):
            max_flow(graph, 1, 1)

    def test_core_only_filter(self, diamond):
        diamond.add_as(4)
        diamond.add_link(1, 4, Relationship.PROVIDER_CUSTOMER)
        graph = flow_graph_from_topology(diamond, core_only=True)
        assert 4 not in graph


class TestPathSetResilience:
    def test_single_path_resilience_one(self, diamond):
        assert path_set_resilience(diamond, 1, 2, [(1,)]) == 1

    def test_disjoint_paths_add_up(self, diamond):
        paths = [(1,), (2,), (3, 4)]
        assert path_set_resilience(diamond, 1, 2, paths) == 3

    def test_overlapping_paths_do_not_add(self, diamond):
        # Both paths share link 3: one failure (link 3) cuts both.
        diamond.add_as(5, is_core=True)
        diamond.add_link(3, 5, Relationship.CORE)  # link 5
        diamond.add_link(5, 2, Relationship.CORE)  # link 6
        paths = [(3, 4), (3, 5, 6)]
        assert path_set_resilience(diamond, 1, 2, paths) == 1

    def test_empty_path_set_is_zero(self, diamond):
        assert path_set_resilience(diamond, 1, 2, []) == 0

    def test_disconnected_path_set_is_zero(self, diamond):
        # Link 3 alone reaches AS 3, not AS 2.
        assert path_set_resilience(diamond, 1, 2, [(3,)]) == 0

    def test_capacity_is_the_same_metric(self, diamond):
        paths = [(1,), (2,)]
        assert path_set_capacity(diamond, 1, 2, paths) == path_set_resilience(
            diamond, 1, 2, paths
        )

    def test_never_exceeds_optimum(self, diamond):
        paths = [(1,), (2,), (3, 4)]
        assert path_set_resilience(diamond, 1, 2, paths) <= optimal_resilience(
            diamond, 1, 2
        )


class TestLinksOfPaths:
    def test_union(self):
        assert links_of_paths([(1, 2), (2, 3)]) == (1, 2, 3)

    def test_empty(self):
        assert links_of_paths([]) == ()


class TestEvaluatePairs:
    """Per-pair quality through the one evaluation the experiments share
    (``repro.experiments.figure6``)."""

    @staticmethod
    def _quality(topology, pair_paths):
        pairs = sorted(pair_paths)
        sim = SimpleNamespace(
            paths_at=lambda receiver, origin: pair_paths[origin, receiver]
        )
        return PathQualityResult(
            {
                "optimum": optimum_values(topology, pairs),
                "stored": disseminated_values(sim, topology, pairs),
            },
            pairs,
        )

    def test_evaluates_each_pair(self, diamond):
        pcb_direct = PCB.originate(1, 0.0, 100.0).extend(1, 2)
        pcb_detour = PCB.originate(1, 0.0, 100.0).extend(3, 3).extend(4, 2)
        pair_paths = {(1, 2): [pcb_direct, pcb_detour], (1, 3): [
            PCB.originate(1, 0.0, 100.0).extend(3, 3)
        ]}
        quality = self._quality(diamond, pair_paths)
        assert quality.pairs == [(1, 2), (1, 3)]
        assert quality.values["stored"] == [2, 1]
        assert quality.values["optimum"] == [3, 2]
        assert quality.mean_fraction_of_optimum("stored") == pytest.approx(
            (2 / 3 + 1 / 2) / 2
        )

    def test_zero_optimum_counts_as_fraction_one(self, diamond):
        diamond.add_as(9, is_core=True)
        quality = self._quality(diamond, {(1, 9): []})
        assert quality.values["optimum"] == [0]
        assert quality.mean_fraction_of_optimum("stored") == 1.0
