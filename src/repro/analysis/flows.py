"""Max-flow machinery on AS-level multigraphs.

Figures 6a/6b (and 7/8) both reduce to unit-capacity max-flow between AS
pairs: the paper's *failure resilience* (minimum number of inter-AS link
failures disconnecting two ASes) and *maximum capacity* (in multiples of
inter-AS link capacity) coincide by max-flow/min-cut — Section 5.3 notes the
objectives are equivalent. What differs per experiment is the graph:

* **optimum** ("All Paths") — the full topology;
* **an algorithm's quality** — the sub-multigraph formed by the union of
  the links on the paths the algorithm disseminated for the pair.

All flows treat inter-AS links as undirected unit-capacity edges (the paper
assumes uniform link capacity); parallel links contribute capacity each.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from ..topology.model import Topology

__all__ = [
    "flow_graph_from_links",
    "flow_graph_from_topology",
    "max_flow",
    "unit_max_flow_between",
]


def _add_undirected_capacity(graph: nx.DiGraph, a: int, b: int, cap: int) -> None:
    for u, v in ((a, b), (b, a)):
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += cap
        else:
            graph.add_edge(u, v, capacity=cap)


def flow_graph_from_links(
    topology: Topology, link_ids: Iterable[int]
) -> nx.DiGraph:
    """Directed flow graph over a set of links (each unit capacity).

    Undirected unit-capacity edges are modeled as opposing arcs, the
    standard reduction for undirected max-flow.
    """
    graph = nx.DiGraph()
    for link_id in set(link_ids):
        link = topology.link(link_id)
        _add_undirected_capacity(graph, link.a.asn, link.b.asn, 1)
    return graph


def flow_graph_from_topology(
    topology: Topology, *, core_only: bool = False
) -> nx.DiGraph:
    """Directed flow graph of the full topology (parallel links add up)."""
    graph = nx.DiGraph()
    for link in topology.links():
        if core_only and not (
            topology.as_node(link.a.asn).is_core
            and topology.as_node(link.b.asn).is_core
        ):
            continue
        _add_undirected_capacity(graph, link.a.asn, link.b.asn, 1)
    return graph


def max_flow(graph: nx.DiGraph, source: int, sink: int) -> int:
    """Integral max-flow value; 0 when either endpoint is missing."""
    if source == sink:
        raise ValueError("source and sink must differ")
    if source not in graph or sink not in graph:
        return 0
    return int(nx.maximum_flow_value(graph, source, sink))


def unit_max_flow_between(
    topology: Topology,
    source: int,
    sink: int,
    *,
    link_ids: Iterable[int] = None,
) -> int:
    """Max-flow between two ASes, over the whole topology or a link subset."""
    if link_ids is None:
        graph = flow_graph_from_topology(topology)
    else:
        graph = flow_graph_from_links(topology, link_ids)
    return max_flow(graph, source, sink)
