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
assumes uniform link capacity); parallel links contribute capacity each. A
flow graph is a plain adjacency ``{asn: {neighbor: parallel-link count}}``,
symmetric because links are undirected.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..topology.model import Topology

__all__ = [
    "flow_graph_from_links",
    "flow_graph_from_topology",
    "max_flow",
    "unit_max_flow_between",
]

FlowGraph = Dict[int, Dict[int, int]]


def _add_link(graph: FlowGraph, a: int, b: int) -> None:
    for u, v in ((a, b), (b, a)):
        row = graph.setdefault(u, {})
        row[v] = row.get(v, 0) + 1


def flow_graph_from_links(
    topology: Topology, link_ids: Iterable[int]
) -> FlowGraph:
    """Flow graph over a set of links (each unit capacity)."""
    graph: FlowGraph = {}
    for link_id in set(link_ids):
        link = topology.link(link_id)
        _add_link(graph, link.a.asn, link.b.asn)
    return graph


def flow_graph_from_topology(topology: Topology) -> FlowGraph:
    """Flow graph of the full topology (parallel links add up)."""
    graph: FlowGraph = {}
    for link in topology.links():
        _add_link(graph, link.a.asn, link.b.asn)
    return graph


def max_flow(graph: FlowGraph, source: int, sink: int) -> int:
    """Integral max-flow value; 0 when either endpoint is missing.

    Breadth-first augmenting paths (Edmonds-Karp) on a residual copy of
    *graph*: an undirected edge of capacity c is one residual count per
    direction, each starting at c, and pushing f along u -> v moves f from
    ``residual[u][v]`` to ``residual[v][u]``.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    if source not in graph or sink not in graph:
        return 0
    residual = {u: dict(row) for u, row in graph.items()}
    flow = 0
    while True:
        parent = {source: source}
        frontier = [source]
        while frontier and sink not in parent:
            reached = []
            for u in frontier:
                for v, capacity in residual[u].items():
                    if capacity and v not in parent:
                        parent[v] = u
                        reached.append(v)
            frontier = reached
        if sink not in parent:
            return flow
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= pushed
            residual[v][u] += pushed
        flow += pushed


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
