"""Sent PCBs Lists (Section 4.2).

"the algorithm stores the link diversity score as well as the age and the
lifetime of every PCB it disseminates to each egress interface in the Sent
PCBs List associated with that egress interface. If a path is sent again,
its corresponding timers in Sent PCBs List get updated."

A record lives until the instance it refers to expires. Expiry is the moment
the path stops being "valid" for Link History Table accounting, so purging
reports the expired records to let the algorithm decrement the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .pcb import PCB

PathKey = Tuple[int, Tuple[int, ...]]

__all__ = ["SentRecord", "SentRegistry", "PathKey"]


@dataclass(slots=True)
class SentRecord:
    """Bookkeeping for one path previously sent on one egress link (the
    last of ``counted_links``)."""

    path_key: PathKey
    #: Link ids of the *full sent path* including the egress link itself
    #: (the Link History Table counts the outgoing link too).
    counted_links: Tuple[int, ...]
    diversity_score: float
    issued_at: float
    lifetime: float
    sent_at: float
    #: Origin AS and neighbor AS this record's counters belong to.
    origin: int
    neighbor: int

    @property
    def egress_link_id(self) -> int:
        return self.counted_links[-1]

    @property
    def expires_at(self) -> float:
        return self.issued_at + self.lifetime

    def remaining_lifetime(self, now: float) -> float:
        return self.expires_at - now

    def is_valid(self, now: float) -> bool:
        return now < self.expires_at

    def refresh(self, pcb: PCB, now: float) -> None:
        """Update timers after re-sending a newer instance of the path."""
        self.issued_at = pcb.issued_at
        self.lifetime = pcb.lifetime
        self.sent_at = now


class SentRegistry:
    """Sent PCBs Lists of one beacon server, addressed the way Algorithm 1
    walks them: [origin AS, neighbor AS] pair -> path -> the records of the
    egress links towards that neighbor the path was sent on."""

    def __init__(self) -> None:
        self._by_pair: Dict[
            Tuple[int, int], Dict[PathKey, Tuple[SentRecord, ...]]
        ] = {}
        #: No record expires before this, so :meth:`purge_expired` scans
        #: nothing until then; :meth:`add` and :meth:`refresh` lower it.
        self._earliest_expiry = math.inf

    def path_records(self, neighbor: int, key: PathKey) -> Tuple[SentRecord, ...]:
        """One path's records towards ``neighbor``, one per egress link."""
        return self._by_pair.get((key[0], neighbor), {}).get(key, ())

    def record(
        self, neighbor: int, key: PathKey, egress_link_id: int
    ) -> Optional[SentRecord]:
        for record in self.path_records(neighbor, key):
            if record.egress_link_id == egress_link_id:
                return record
        return None

    def add(self, record: SentRecord) -> None:
        """File a record under its pair and path, replacing the one for the
        same egress link."""
        paths = self._by_pair.setdefault((record.origin, record.neighbor), {})
        kept = tuple(
            other
            for other in paths.get(record.path_key, ())
            if other.egress_link_id != record.egress_link_id
        )
        paths[record.path_key] = kept + (record,)
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    def refresh(self, record: SentRecord, pcb: PCB, now: float) -> None:
        """Update a stored record's timers after re-sending its path."""
        record.refresh(pcb, now)
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    def _purge(self, stale: Callable[[SentRecord], bool]) -> List[SentRecord]:
        """Remove and return the records ``stale`` holds for."""
        removed = [record for record in self.records() if stale(record)]
        for record in removed:
            pair = (record.origin, record.neighbor)
            paths = self._by_pair[pair]
            kept = tuple(r for r in paths[record.path_key] if r is not record)
            if kept:
                paths[record.path_key] = kept
            else:
                del paths[record.path_key]
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
        return self._purge(lambda record: link_id in record.counted_links)

    def records(self) -> Iterator[SentRecord]:
        for paths in self._by_pair.values():
            for records in paths.values():
                yield from records

    def __len__(self) -> int:
        return sum(1 for _ in self.records())
