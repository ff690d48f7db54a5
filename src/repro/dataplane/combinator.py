"""End-to-end path combination (Sections 2.2/2.3).

"Each end-to-end path consists of up to three path segments: core-path,
up-path, and down-path segments. ... Shortcut paths that avoid a core AS
are possible, if the up- and down-path contain the same AS, or if a peering
link is available between an AS in the up-path and an AS in the down-path
segment."

The combinator takes the segments an endpoint fetched and produces every
valid loop-free AS-level end-to-end path:

* **full combinations** up + core + down (or fewer segments when an
  endpoint sits in a core AS, or both endpoints share an ISD core);
* **shortcuts** crossing over at a common non-core AS of the up- and
  down-segments;
* **peering shortcuts** over a peering link between an up-segment AS and a
  down-segment AS (the combinator consults the topology for peering links;
  the production control plane embeds them in the PCBs — an equivalent
  information source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..control.segments import PathSegment, SegmentType
from ..topology.model import Topology

__all__ = ["EndToEndPath", "combine_segments"]


@dataclass(frozen=True)
class EndToEndPath:
    """A forwarding-order AS-level path with its provenance."""

    asns: Tuple[int, ...]
    link_ids: Tuple[int, ...]
    expires_at: float
    is_shortcut: bool = False
    uses_peering: bool = False

    def __post_init__(self) -> None:
        if len(self.link_ids) != len(self.asns) - 1:
            raise ValueError("link_ids must align with consecutive AS pairs")

    @property
    def source(self) -> int:
        return self.asns[0]

    @property
    def destination(self) -> int:
        return self.asns[-1]

    @property
    def num_links(self) -> int:
        return len(self.link_ids)

    def is_loop_free(self) -> bool:
        return len(self.asns) == len(set(self.asns))


def combine_segments(
    up_segments: Sequence[PathSegment],
    core_segments: Sequence[PathSegment],
    down_segments: Sequence[PathSegment],
    *,
    topology: Optional[Topology] = None,
    now: float = 0.0,
) -> List[EndToEndPath]:
    """All valid end-to-end paths from the given segments.

    ``up_segments`` run leaf->core (source side), ``core_segments`` run
    between core ASes in forwarding order (source core first), and
    ``down_segments`` run core->leaf (destination side). Any of the three
    lists may be empty: a core-AS source needs no up-segment, a core-AS
    destination no down-segment, and same-core pairs no core segment.
    Expired segments are skipped. Peering shortcuts need ``topology``.

    Segments are joined through indexes — up-segments by their core AS,
    down-segments by their core AS and by every AS position past it — so
    the work follows the number of junctions that exist, not the product
    of the segment lists. A path reachable through several segment pairs
    keeps the ``expires_at`` and flags of its first emission; candidates
    are emitted full combinations first, then same-core joins, shortcuts
    and peering shortcuts, each by up-segment and then by down-segment in
    the order given.
    """
    ups = [s for s in up_segments if s.is_valid(now)]
    cores = [s for s in core_segments if s.is_valid(now)]
    downs = [s for s in down_segments if s.is_valid(now)]
    for segments, expected in (
        (ups, SegmentType.UP),
        (cores, SegmentType.CORE),
        (downs, SegmentType.DOWN),
    ):
        for segment in segments:
            if segment.segment_type is not expected:
                raise ValueError(
                    f"segment {segment.key()} used as {expected.value}"
                )

    results: List[EndToEndPath] = []
    seen: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()

    def emit(
        asns: Tuple[int, ...],
        link_ids: Tuple[int, ...],
        expires_at: float,
        is_shortcut: bool = False,
        uses_peering: bool = False,
    ) -> None:
        if len(asns) != len(set(asns)):
            return  # loop: crossing the same AS twice is forbidden
        key = (asns, link_ids)
        if key in seen:
            return
        seen.add(key)
        results.append(
            EndToEndPath(asns, link_ids, expires_at, is_shortcut, uses_peering)
        )

    # Junction indexes; every bucket keeps the input order of its list.
    ups_by_core: Dict[int, List[PathSegment]] = {}
    for up in ups:
        ups_by_core.setdefault(up.asns[-1], []).append(up)
    downs_by_core: Dict[int, List[PathSegment]] = {}
    #: AS -> [(index of the down-segment, position of the AS in it)], for
    #: every position past the segment's core AS.
    down_positions: Dict[int, List[Tuple[int, int]]] = {}
    for index, down in enumerate(downs):
        downs_by_core.setdefault(down.asns[0], []).append(down)
        for position in range(1, len(down.asns)):
            down_positions.setdefault(down.asns[position], []).append(
                (index, position)
            )

    # ---- up + core + down -------------------------------------------------
    # A missing up (or down) segment is the *caller's* statement that the
    # source (destination) is a core AS — an empty input list, not a list
    # whose entries all expired.
    for core in cores:
        heads: Sequence[Optional[PathSegment]] = (
            ups_by_core.get(core.asns[0], ()) if up_segments else (None,)
        )
        tails: Sequence[Optional[PathSegment]] = (
            downs_by_core.get(core.asns[-1], ()) if down_segments else (None,)
        )
        for up in heads:
            asns, link_ids, expires_at = (
                core.asns, core.link_ids, core.expires_at
            )
            if up is not None:
                asns = up.asns + asns[1:]
                link_ids = up.link_ids + link_ids
                expires_at = min(up.expires_at, expires_at)
            for down in tails:
                if down is None:
                    emit(asns, link_ids, expires_at)
                else:
                    emit(
                        asns + down.asns[1:],
                        link_ids + down.link_ids,
                        min(expires_at, down.expires_at),
                    )

    # ---- up + down at the same core AS (no core segment) ------------------
    for up in ups:
        for down in downs_by_core.get(up.asns[-1], ()):
            emit(
                up.asns + down.asns[1:],
                up.link_ids + down.link_ids,
                min(up.expires_at, down.expires_at),
            )

    # ---- shortcut: common non-core AS in up and down ----------------------
    for up in ups:
        crossings = [
            (index, i, j)
            for i, asn in enumerate(up.asns[:-1])
            for index, j in down_positions.get(asn, ())
        ]
        crossings.sort()
        for index, i, j in crossings:
            down = downs[index]
            if down.asns.index(up.asns[i]) != j:
                continue  # the crossover is the AS's first occurrence
            emit(
                up.asns[: i + 1] + down.asns[j + 1 :],
                up.link_ids[:i] + down.link_ids[j:],
                min(up.expires_at, down.expires_at),
                True,
            )

    # ---- peering shortcut --------------------------------------------------
    if topology is not None and down_positions:
        for up in ups:
            crossings = [
                (index, i, j, link_id)
                for i, asn in enumerate(up.asns[:-1])
                for peer, link_id in topology.peering_links(asn)
                for index, j in down_positions.get(peer, ())
            ]
            crossings.sort()
            for index, i, j, link_id in crossings:
                down = downs[index]
                emit(
                    up.asns[: i + 1] + down.asns[j:],
                    up.link_ids[:i] + (link_id,) + down.link_ids[j:],
                    min(up.expires_at, down.expires_at),
                    True,
                    True,
                )

    results.sort(key=lambda path: (path.num_links, path.asns, path.link_ids))
    return results
