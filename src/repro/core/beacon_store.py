"""Per-AS beacon storage with the paper's *PCB storage limit*.

"The PCB storage limit, which is the maximum number of PCBs per origin AS to
store at each beacon server, varies in different experiments" (Section 5.1).
The store keeps, per origin AS, the most useful valid beacons:

* a newer instance over the same path replaces the older one in place;
* expired beacons are evicted lazily;
* when the per-origin limit is exceeded, the *worst* beacon is dropped —
  longest AS path first, then oldest issue time — matching the shortest-
  path preference of the production beacon server's storage policy.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from .pcb import PCB

__all__ = ["BeaconStore"]


#: Eviction policies for a full per-origin bucket:
#: * ``shortest`` — drop the longest (then oldest) beacon, the shortest-
#:   path preference of the production beacon server;
#: * ``diverse`` — drop the beacon whose links are most redundant with the
#:   rest of the bucket (greedy link-coverage), preserving the disjointness
#:   the path-diversity-based algorithm selects for.
EVICTION_POLICIES = ("shortest", "diverse")


def _shortest_eviction_key(pcb: PCB) -> Tuple:
    """Worst = longest path, then oldest, then largest path key."""
    return (len(pcb.hops), -pcb.issued_at, pcb.path_key())


def _store_order(pcb: PCB) -> Tuple:
    return (len(pcb.hops), pcb.issued_at, pcb.path_key())


class BeaconStore:
    """Stores valid PCBs grouped by origin AS, bounded per origin."""

    def __init__(
        self,
        storage_limit: Optional[int] = None,
        *,
        eviction_policy: str = "shortest",
    ) -> None:
        if storage_limit is not None and storage_limit < 1:
            raise ValueError("storage_limit must be positive or None")
        if eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction_policy!r}; "
                f"choose from {EVICTION_POLICIES}"
            )
        self.storage_limit = storage_limit
        self.eviction_policy = eviction_policy
        self._by_origin: Dict[int, Dict[Tuple[int, Tuple[int, ...]], PCB]] = {}
        #: Per-origin sorted snapshots, invalidated on mutation; the
        #: selection algorithms call :meth:`beacons` once per origin and
        #: interval, so re-sorting unchanged buckets dominates otherwise.
        self._sorted_cache: Dict[int, List[PCB]] = {}
        #: Per origin, a time before which no stored beacon expires:
        #: inserts lower it, an expiry scan recomputes it, removals leave
        #: it (still a lower bound). Until then eviction scans nothing.
        self._earliest_expiry: Dict[int, float] = {}
        #: Latest ``now`` an insert has seen; every stored beacon was
        #: issued at or before it.
        self._clock = -math.inf

    # ------------------------------------------------------------ mutation

    def insert(self, pcb: PCB, now: float) -> bool:
        """Insert a received beacon. Returns True if the store changed.

        Invalid (expired or not-yet-valid) beacons are rejected. A beacon
        over an already-stored path is kept only if it is a newer instance.
        """
        if not pcb.is_valid(now):
            return False
        origin = pcb.origin
        bucket = self._by_origin.setdefault(origin, {})
        key = pcb.path_key()
        existing = bucket.get(key)
        if existing is not None and pcb.issued_at <= existing.issued_at:
            return False
        bucket[key] = pcb
        self._sorted_cache.pop(origin, None)
        if now > self._clock:
            self._clock = now
        if pcb.expires_at < self._earliest_expiry.get(origin, math.inf):
            self._earliest_expiry[origin] = pcb.expires_at
        if existing is not None:
            return True
        self._evict(origin, now)
        return key in bucket

    def _evict(self, origin: int, now: float) -> None:
        bucket = self._by_origin.get(origin)
        if bucket is None:
            return
        # The expiry scan is skipped while it cannot find anything: no
        # beacon has reached its expiry, and (time not having run
        # backwards) none is still to become valid.
        earliest = self._earliest_expiry.get(origin, math.inf)
        if now >= earliest or now < self._clock:
            expired = [
                key for key, pcb in bucket.items() if not pcb.is_valid(now)
            ]
            for key in expired:
                del bucket[key]
            if expired:
                self._sorted_cache.pop(origin, None)
            self._earliest_expiry[origin] = min(
                (pcb.expires_at for pcb in bucket.values()), default=math.inf
            )
        if self.storage_limit is None:
            return
        while len(bucket) > self.storage_limit:
            if self.eviction_policy == "diverse":
                worst = self._most_redundant(bucket)
            else:
                worst = max(bucket.values(), key=_shortest_eviction_key)
            del bucket[worst.path_key()]
            self._sorted_cache.pop(origin, None)

    @staticmethod
    def _most_redundant(bucket: Dict) -> PCB:
        """The beacon whose links are most covered by the other beacons."""
        coverage: Dict[int, int] = {}
        for pcb in bucket.values():
            for link_id in pcb.link_ids():
                coverage[link_id] = coverage.get(link_id, 0) + 1
        def redundancy(pcb: PCB) -> Tuple:
            links = pcb.link_ids()
            # Each link's coverage by *other* beacons; a beacon carrying a
            # unique link (min coverage 1) is maximally worth keeping.
            overlap = min(coverage[l] - 1 for l in links) if links else 0
            return (overlap, pcb.path_length, -pcb.issued_at, pcb.path_key())
        return max(bucket.values(), key=redundancy)

    def remove(self, key: Tuple[int, Tuple[int, ...]]) -> Optional[PCB]:
        """Remove one beacon by path key (e.g. after a link revocation)."""
        origin = key[0]
        bucket = self._by_origin.get(origin)
        if bucket is None:
            return None
        removed = bucket.pop(key, None)
        if removed is not None:
            self._sorted_cache.pop(origin, None)
        return removed

    def remove_crossing(self, link_id: int) -> int:
        """Remove every stored beacon whose path crosses ``link_id``."""
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [
                key for key, pcb in bucket.items()
                if pcb.contains_link(link_id)
            ]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._sorted_cache.pop(origin, None)
        return removed

    def remove_traversing_as(self, asn: int) -> int:
        """Remove every stored beacon whose path visits ``asn``.

        The beaconing-level reaction to an AS outage: every path through
        the failed AS is unusable, whichever of its links it entered by.
        """
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [
                key for key, pcb in bucket.items() if pcb.contains_as(asn)
            ]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._sorted_cache.pop(origin, None)
        return removed

    def clear(self) -> int:
        """Drop everything (a beacon-server restart); returns the count."""
        removed = self.count()
        self._by_origin.clear()
        self._sorted_cache.clear()
        self._earliest_expiry.clear()
        return removed

    def purge_expired(self, now: float) -> int:
        """Drop all expired beacons; returns how many were removed."""
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [k for k, p in bucket.items() if not p.is_valid(now)]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._sorted_cache.pop(origin, None)
            if not bucket:
                del self._by_origin[origin]
        return removed

    # ------------------------------------------------------------- queries

    def origins(self) -> List[int]:
        return [origin for origin, bucket in self._by_origin.items() if bucket]

    def beacons(self, origin: int, now: Optional[float] = None) -> List[PCB]:
        """Stored beacons for ``origin``; filtered to valid ones if ``now``
        is given. Deterministic order: shortest path, oldest first."""
        bucket = self._by_origin.get(origin, {})
        ordered = self._sorted_cache.get(origin)
        if ordered is None:
            ordered = sorted(bucket.values(), key=_store_order)
            self._sorted_cache[origin] = ordered
        if now is None:
            return list(ordered)
        return [pcb for pcb in ordered if pcb.is_valid(now)]

    def all_beacons(self, now: Optional[float] = None) -> Iterator[PCB]:
        for origin in self._by_origin:
            yield from self.beacons(origin, now)

    def count(self, origin: Optional[int] = None) -> int:
        if origin is not None:
            return len(self._by_origin.get(origin, {}))
        return sum(len(bucket) for bucket in self._by_origin.values())

    def get(self, key: Tuple[int, Tuple[int, ...]]) -> Optional[PCB]:
        origin = key[0]
        return self._by_origin.get(origin, {}).get(key)

    def __contains__(self, pcb: PCB) -> bool:
        return self.get(pcb.path_key()) is not None
