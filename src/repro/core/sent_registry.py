"""Sent PCBs Lists (Section 4.2).

"the algorithm stores the link diversity score as well as the age and the
lifetime of every PCB it disseminates to each egress interface in the Sent
PCBs List associated with that egress interface. If a path is sent again,
its corresponding timers in Sent PCBs List get updated."

A record lives until the instance it refers to expires. Expiry is the moment
the path stops being "valid" for Link History Table accounting, so purging
reports the expired records to let the algorithm decrement the counters.

A record stores only what Algorithm 1 reads: the path, the egress link, the
stored score and the expiry of the sent instance (the instance's age and
lifetime enter Eq. 3 only through it). The origin and the counted links are
derived from the path key; the records of one path towards one neighbor are
chained through ``next`` (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .pcb import PCB

PathKey = Tuple[int, Tuple[int, ...]]

__all__ = ["SentRecord", "SentRegistry", "PathKey", "chained"]


@dataclass(slots=True)
class SentRecord:
    """Bookkeeping for one path previously sent on one egress link."""

    path_key: PathKey
    egress_link_id: int
    diversity_score: float
    expires_at: float
    #: Neighbor AS this record's counters belong to.
    neighbor: int
    #: The record of the same path on the neighbor's next egress link.
    next: Optional[SentRecord] = field(default=None, repr=False, compare=False)

    @property
    def origin(self) -> int:
        return self.path_key[0]

    @property
    def counted_links(self) -> Tuple[int, ...]:
        """Link ids of the *full sent path* including the egress link itself
        (the Link History Table counts the outgoing link too)."""
        return self.path_key[1] + (self.egress_link_id,)

    def remaining_lifetime(self, now: float) -> float:
        return self.expires_at - now

    def is_valid(self, now: float) -> bool:
        return now < self.expires_at

    def refresh(self, pcb: PCB) -> None:
        """Update timers after re-sending a newer instance of the path."""
        self.expires_at = pcb.expires_at


def chained(record: Optional[SentRecord]) -> Iterator[SentRecord]:
    """``record`` and the records chained after it."""
    while record is not None:
        yield record
        record = record.next


#: What :meth:`SentRegistry.paths` reads for a pair without records.
_NO_PATHS: Mapping[PathKey, SentRecord] = {}


class SentRegistry:
    """Sent PCBs Lists of one beacon server, addressed the way Algorithm 1
    walks them: [origin AS, neighbor AS] pair -> path -> the chain of the
    path's records, one per egress link towards that neighbor."""

    def __init__(self) -> None:
        self._by_pair: Dict[Tuple[int, int], Dict[PathKey, SentRecord]] = {}
        #: No record expires before this, so :meth:`purge_expired` scans
        #: nothing until then; :meth:`add` and :meth:`refresh` lower it.
        self._earliest_expiry = math.inf

    def paths(self, origin: int, neighbor: int) -> Mapping[PathKey, SentRecord]:
        """One pair's path -> first record, read-only; a later :meth:`add`
        may file the pair under a new mapping."""
        return self._by_pair.get((origin, neighbor), _NO_PATHS)

    def path_records(self, neighbor: int, key: PathKey) -> Tuple[SentRecord, ...]:
        """One path's records towards ``neighbor``, one per egress link."""
        return tuple(chained(self.paths(key[0], neighbor).get(key)))

    def record(
        self, neighbor: int, key: PathKey, egress_link_id: int
    ) -> Optional[SentRecord]:
        for record in chained(self.paths(key[0], neighbor).get(key)):
            if record.egress_link_id == egress_link_id:
                return record
        return None

    def add(self, record: SentRecord) -> None:
        """File a record under its pair and path, replacing the one for the
        same egress link."""
        paths = self._by_pair.setdefault((record.origin, record.neighbor), {})
        kept = [
            other
            for other in chained(paths.get(record.path_key))
            if other.egress_link_id != record.egress_link_id
        ]
        self._chain(paths, record.path_key, kept + [record])
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    def refresh(self, record: SentRecord, pcb: PCB) -> None:
        """Update a stored record's timers after re-sending its path."""
        record.refresh(pcb)
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    @staticmethod
    def _chain(
        paths: Dict[PathKey, SentRecord], key: PathKey, records: List[SentRecord]
    ) -> None:
        """Make ``records``, in order, the chain of ``key`` in ``paths``; an
        empty list files nothing."""
        for record, after in zip(records, records[1:] + [None]):
            record.next = after
        if records:
            paths[key] = records[0]
        else:
            del paths[key]

    def _purge(self, stale: Callable[[SentRecord], bool]) -> List[SentRecord]:
        """Remove and return the records ``stale`` holds for."""
        removed = [record for record in self.records() if stale(record)]
        for record in removed:
            pair = (record.origin, record.neighbor)
            paths = self._by_pair[pair]
            kept = [r for r in chained(paths[record.path_key]) if r is not record]
            self._chain(paths, record.path_key, kept)
            record.next = None
            if not paths:
                del self._by_pair[pair]
        return removed

    def purge_expired(self, now: float) -> List[SentRecord]:
        """Remove and return all records whose sent instance has expired."""
        if now < self._earliest_expiry:
            return []
        expired = self._purge(lambda record: not record.is_valid(now))
        self._earliest_expiry = min(
            (record.expires_at for record in self.records()), default=math.inf
        )
        return expired

    def purge_crossing(self, link_id: int) -> List[SentRecord]:
        """Remove and return all records whose sent path crosses ``link_id``
        (including records *for* that egress link).

        Called when a link revocation reaches the beacon server: the sent
        instances are no longer valid paths, so their Link History Table
        counters must be released and a later re-send must not be
        suppressed by Eq. (3).
        """
        return self._purge(
            lambda record: record.egress_link_id == link_id
            or link_id in record.path_key[1]
        )

    def records(self) -> Iterator[SentRecord]:
        for paths in self._by_pair.values():
            for head in paths.values():
                yield from chained(head)

    def __len__(self) -> int:
        return sum(1 for _ in self.records())
