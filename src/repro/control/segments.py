"""Path segments (Section 2.2).

A path segment is a finished beacon promoted into the path-server
infrastructure. Three kinds exist:

* **core-path segments** — between core ASes (from core beaconing);
* **up-path segments** — from a non-core AS to a core AS of its ISD;
* **down-path segments** — from a core AS to a non-core AS.

"Up- and down-path segments are interchangeable, simply by reversing the
order of ASes in a segment": intra-ISD beaconing produces core-to-leaf
(down) direction beacons; the receiving leaf uses them as up-segments and
registers them at the core path server as down-segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..core.pcb import PCB

__all__ = ["SegmentType", "PathSegment"]


class SegmentType(enum.Enum):
    UP = "up"
    DOWN = "down"
    CORE = "core"


@dataclass(frozen=True, slots=True)
class PathSegment:
    """An immutable path segment derived from a disseminated beacon.

    ``asns`` runs from the segment's *core end* to its *far end* for DOWN
    and CORE segments (the beacon direction), and from the leaf to the core
    for UP segments (the reversed beacon). ``link_ids`` aligns with
    consecutive AS pairs of ``asns``.
    """

    segment_type: SegmentType
    asns: Tuple[int, ...]
    link_ids: Tuple[int, ...]
    issued_at: float
    expires_at: float

    def __post_init__(self) -> None:
        if len(self.asns) < 1:
            raise ValueError("a segment spans at least one AS")
        if len(self.link_ids) != len(self.asns) - 1:
            raise ValueError("link_ids must align with consecutive AS pairs")
        if self.expires_at <= self.issued_at:
            raise ValueError("segment must expire after issuance")

    # ------------------------------------------------------------- factory

    @classmethod
    def from_pcb(cls, pcb: PCB, segment_type: SegmentType) -> "PathSegment":
        """Promote a beacon into a segment.

        The beacon direction (origin first) matches DOWN and CORE segments;
        an UP segment is the reversed beacon (leaf first).
        """
        asns = pcb.path_asns()
        link_ids = pcb.link_ids()
        if segment_type is SegmentType.UP:
            asns = tuple(reversed(asns))
            link_ids = tuple(reversed(link_ids))
        return cls(
            segment_type=segment_type,
            asns=asns,
            link_ids=link_ids,
            issued_at=pcb.issued_at,
            expires_at=pcb.expires_at,
        )

    def reversed(self) -> "PathSegment":
        """The interchangeable opposite-direction segment (UP <-> DOWN)."""
        if self.segment_type is SegmentType.CORE:
            flipped = SegmentType.CORE
        elif self.segment_type is SegmentType.UP:
            flipped = SegmentType.DOWN
        else:
            flipped = SegmentType.UP
        return PathSegment(
            segment_type=flipped,
            asns=tuple(reversed(self.asns)),
            link_ids=tuple(reversed(self.link_ids)),
            issued_at=self.issued_at,
            expires_at=self.expires_at,
        )

    # ------------------------------------------------------------- queries

    @property
    def first_asn(self) -> int:
        return self.asns[0]

    @property
    def last_asn(self) -> int:
        return self.asns[-1]

    @property
    def core_asn(self) -> int:
        """The core-side endpoint (first for DOWN/CORE, last for UP)."""
        if self.segment_type is SegmentType.UP:
            return self.asns[-1]
        return self.asns[0]

    def is_valid(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at

    def contains_link(self, link_id: int) -> bool:
        return link_id in self.link_ids

    def key(self) -> Tuple[str, Tuple[int, ...], Tuple[int, ...]]:
        return (self.segment_type.value, self.asns, self.link_ids)
