"""Tests for max-flow based resilience/capacity analysis."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    flow_graph_from_links,
    flow_graph_from_topology,
    links_of_paths,
    max_flow,
    path_set_resilience,
    unit_max_flow_between,
)
from repro.analysis.resilience import stored_path_resilience
from repro.core import PCB
from repro.experiments.figure6 import PathQualityResult, optimum_values
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

    def test_augmenting_paths_cancel_flow(self):
        """Max-flow 1 -> 2 is 3 (1-3-9-2, 1-5-6-4-2, 1-7-8-4-3-10-2), but
        the first, shortest augmenting path 1-3-4-2 sends 3 -> 4; the
        third path then crosses 4 -> 3 a second time, which only
        cancelling that flow makes room for."""
        topo = Topology("cancel")
        for asn in range(1, 11):
            topo.add_as(asn)
        for a, b in [
            (4, 3), (4, 6), (3, 9), (10, 3), (2, 9), (2, 10), (2, 4),
            (7, 8), (8, 4), (1, 3), (5, 1), (1, 7), (5, 6),
        ]:
            topo.add_link(a, b, Relationship.PEER_PEER)
        assert max_flow(flow_graph_from_topology(topo), 1, 2) == 3


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
        # §5.3's capacity reading: every parallel link on the path set is
        # one unit of capacity, and as many failures cut the pair.
        assert path_set_resilience(diamond, 1, 2, [(1,), (2,)]) == len(
            diamond.links_between(1, 2)
        )

    def test_never_exceeds_optimum(self, diamond):
        paths = [(1,), (2,), (3, 4)]
        assert path_set_resilience(diamond, 1, 2, paths) <= (
            unit_max_flow_between(diamond, 1, 2)
        )


class TestLinksOfPaths:
    def test_union(self):
        assert links_of_paths([(1, 2), (2, 3)]) == (1, 2, 3)

    def test_empty(self):
        assert links_of_paths([]) == ()


class TestEvaluatePairs:
    """Per-pair quality through the one evaluation the experiments share
    (``repro.analysis.resilience.stored_path_resilience``)."""

    @staticmethod
    def _quality(topology, pair_paths):
        pairs = sorted(pair_paths)
        sim = SimpleNamespace(
            topology=topology,
            paths_at=lambda receiver, origin: pair_paths[origin, receiver],
        )
        return PathQualityResult(
            {
                "optimum": optimum_values(topology, pairs),
                "stored": stored_path_resilience(sim, pairs),
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


@st.composite
def multigraphs(draw):
    """A topology of 2-12 ASes (some core, some isolated) with up to 40
    links, parallel links included, and a random subset of its link ids."""
    size = draw(st.integers(2, 12))
    topo = Topology("random")
    for asn in range(1, size + 1):
        topo.add_as(asn, is_core=draw(st.booleans()))
    ends = st.tuples(st.integers(1, size), st.integers(1, size))
    for a, b in draw(st.lists(ends.filter(lambda e: e[0] != e[1]), max_size=40)):
        topo.add_link(a, b, Relationship.PEER_PEER)
    link_ids = [link.link_id for link in topo.links()]
    if not link_ids:
        return topo, []
    return topo, draw(st.lists(st.sampled_from(link_ids), unique=True))


def _oracle_value(links, source, sink):
    """networkx's max-flow over opposing unit arcs per link."""
    graph = networkx.DiGraph()
    for link in links:
        for u, v in ((link.a.asn, link.b.asn), (link.b.asn, link.a.asn)):
            previous = graph.edges[u, v]["capacity"] if graph.has_edge(u, v) else 0
            graph.add_edge(u, v, capacity=previous + 1)
    if source not in graph or sink not in graph:
        return 0
    return networkx.maximum_flow_value(graph, source, sink)


@settings(deadline=None)
@given(multigraphs())
def test_max_flow_agrees_with_networkx(case):
    topo, subset = case
    graphs = [
        (flow_graph_from_topology(topo), list(topo.links())),
        (flow_graph_from_links(topo, subset), [topo.link(i) for i in subset]),
    ]
    asns = topo.asns()
    for graph, links in graphs:
        for source in asns:
            for sink in asns:
                if source != sink:
                    assert max_flow(graph, source, sink) == _oracle_value(
                        links, source, sink
                    ), (source, sink)


def test_the_runtime_does_not_import_networkx():
    """networkx is the test oracle above, never a runtime dependency."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
        "import repro, repro.analysis, repro.experiments, surface\n"
        "surface.load()\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
