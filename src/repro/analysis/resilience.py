"""Path-quality metrics: failure resilience and maximum capacity (§5.3).

"Failure resilience is defined as the minimum number of links whose
failures disconnect two ASes." For an algorithm's disseminated path set,
that is the min-cut (= unit-capacity max-flow) of the sub-multigraph formed
by the union of the disseminated paths; the optimum is the min-cut of the
full topology. "Maximum capacity" — "equivalent to maximizing the number of
parallel links on which traffic can be sent" — is the same max-flow, so
:func:`path_set_resilience` computes both.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..topology.model import Topology
from .flows import unit_max_flow_between

__all__ = ["links_of_paths", "path_set_resilience"]


def links_of_paths(paths: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Union of the link ids appearing on any of the given paths."""
    links: set = set()
    for path in paths:
        links.update(path)
    return tuple(sorted(links))


def path_set_resilience(
    topology: Topology,
    source: int,
    sink: int,
    paths: Iterable[Sequence[int]],
) -> int:
    """Minimum number of link failures disconnecting ``source`` from
    ``sink`` when only the disseminated ``paths`` (link-id sequences) are
    usable. Zero if the path set does not connect the pair."""
    link_ids = links_of_paths(paths)
    if not link_ids:
        return 0
    return unit_max_flow_between(topology, source, sink, link_ids=link_ids)
