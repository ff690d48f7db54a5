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

from typing import Iterable, List, Sequence, Tuple

from ..topology.model import Topology
from .flows import unit_max_flow_between

__all__ = ["links_of_paths", "path_set_resilience", "stored_path_resilience"]


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


def stored_path_resilience(
    sim, pairs: Sequence[Tuple[int, int]], intervals: int = 0
) -> List[float]:
    """Per ``(origin, receiver)`` pair, :func:`path_set_resilience` of the
    beacons from ``origin`` that ``sim`` stores at ``receiver``.

    With ``intervals`` this is a window reading: ``sim`` steps that many
    intervals and a pair's value is the mean of its readings after each
    step. Without, it is one reading of the stores as they are."""

    def reading() -> List[int]:
        return [
            path_set_resilience(sim.topology, origin, receiver, [
                pcb.link_ids() for pcb in sim.paths_at(receiver, origin)
            ])
            for origin, receiver in pairs
        ]

    if not intervals:
        return reading()
    totals = [0] * len(pairs)
    for _ in range(intervals):
        sim.step()
        totals = [total + value for total, value in zip(totals, reading())]
    return [total / intervals for total in totals]
