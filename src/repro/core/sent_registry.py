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
from typing import Dict, List, Optional, Tuple

from .pcb import PCB

PathKey = Tuple[int, Tuple[int, ...]]

__all__ = ["SentRecord", "SentRegistry", "PathKey"]


@dataclass(slots=True)
class SentRecord:
    """Bookkeeping for one path previously sent on one egress link."""

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
    """Sent PCBs Lists of one beacon server, one list per egress link."""

    def __init__(self) -> None:
        self._by_link: Dict[int, Dict[PathKey, SentRecord]] = {}
        #: No record expires before this, so :meth:`purge_expired` scans
        #: nothing until then; :meth:`add` and :meth:`refresh` lower it.
        self._earliest_expiry = math.inf

    def record(self, egress_link_id: int, key: PathKey) -> Optional[SentRecord]:
        bucket = self._by_link.get(egress_link_id)
        return None if bucket is None else bucket.get(key)

    def was_sent(self, egress_link_id: int, key: PathKey, now: float) -> bool:
        """Whether the path was previously sent on the link and the sent
        instance is still valid (the pseudo-code's membership test)."""
        existing = self.record(egress_link_id, key)
        return existing is not None and existing.is_valid(now)

    def add(self, egress_link_id: int, record: SentRecord) -> None:
        self._by_link.setdefault(egress_link_id, {})[record.path_key] = record
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    def refresh(self, record: SentRecord, pcb: PCB, now: float) -> None:
        """Update a stored record's timers after re-sending its path."""
        record.refresh(pcb, now)
        self._earliest_expiry = min(self._earliest_expiry, record.expires_at)

    def purge_expired(self, now: float) -> List[SentRecord]:
        """Remove and return all records whose sent instance has expired."""
        expired: List[SentRecord] = []
        if now < self._earliest_expiry:
            return expired
        for link_id in list(self._by_link):
            bucket = self._by_link[link_id]
            for key in [k for k, rec in bucket.items() if not rec.is_valid(now)]:
                expired.append(bucket.pop(key))
            if not bucket:
                del self._by_link[link_id]
        self._earliest_expiry = min(
            (
                record.expires_at
                for bucket in self._by_link.values()
                for record in bucket.values()
            ),
            default=math.inf,
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
        removed: List[SentRecord] = []
        for egress_id in list(self._by_link):
            bucket = self._by_link[egress_id]
            stale = [
                key
                for key, record in bucket.items()
                if link_id in record.counted_links
            ]
            for key in stale:
                removed.append(bucket.pop(key))
            if not bucket:
                del self._by_link[egress_id]
        return removed

    def records(self, egress_link_id: int) -> List[SentRecord]:
        return list(self._by_link.get(egress_link_id, {}).values())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_link.values())
