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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
        #: Per origin, the worst beacon of a full bucket under the
        #: ``shortest`` policy, so a worse newcomer is turned away without
        #: a scan. Dropped with ``_sorted_cache`` (see :meth:`_changed`) and
        #: when the remembered beacon is replaced by a newer instance.
        self._worst: Dict[int, PCB] = {}
        #: Latest ``now`` an insert has seen; every stored beacon was
        #: issued at or before it.
        self._clock = -math.inf

    def __getstate__(self):
        # The sorted snapshots and remembered worst beacons are derived
        # state: rebuilt on demand, so snapshots neither grow nor differ.
        return {**self.__dict__, "_sorted_cache": {}, "_worst": {}}

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
        if now > self._clock:
            self._clock = now
        earliest = self._earliest_expiry.get(origin, math.inf)
        if pcb.expires_at < earliest:
            earliest = self._earliest_expiry[origin] = pcb.expires_at
        if existing is not None:
            bucket[key] = pcb
            self._sorted_cache.pop(origin, None)
            # A newer instance is a better beacon: the remembered worst
            # stays the worst unless it is the one replaced.
            if self._worst.get(origin) is existing:
                del self._worst[origin]
            return True
        # The expiry scan is skipped while it cannot find anything: no
        # beacon has reached its expiry, and (time not having run
        # backwards) none is still to become valid.
        scan_due = now >= earliest or now < self._clock
        limit = self.storage_limit
        if (
            not scan_due
            and len(bucket) == limit
            and self.eviction_policy == "shortest"
        ):
            # The full bucket loses exactly the worse of its worst beacon
            # and the newcomer.
            worst = self._worst.get(origin)
            if worst is None:
                worst = self._worst[origin] = max(
                    bucket.values(), key=_shortest_eviction_key
                )
            if _shortest_eviction_key(pcb) > _shortest_eviction_key(worst):
                return False
            del bucket[worst.path_key()]
        bucket[key] = pcb
        self._changed(origin)
        if scan_due:
            self._drop(origin, lambda stored: not stored.is_valid(now))
            self._earliest_expiry[origin] = min(
                (stored.expires_at for stored in bucket.values()),
                default=math.inf,
            )
        while limit is not None and len(bucket) > limit:
            if self.eviction_policy == "diverse":
                worst = self._most_redundant(bucket)
            else:
                worst = max(bucket.values(), key=_shortest_eviction_key)
            del bucket[worst.path_key()]
            self._changed(origin)
        return key in bucket

    def _changed(self, origin: int) -> None:
        """``origin``'s bucket gained or lost a path: drop what was derived."""
        self._sorted_cache.pop(origin, None)
        self._worst.pop(origin, None)

    def _drop(self, origin: int, stale: Callable[[PCB], bool]) -> int:
        """Delete ``origin``'s beacons ``stale`` holds for; how many."""
        bucket = self._by_origin[origin]
        keys = [key for key, pcb in bucket.items() if stale(pcb)]
        for key in keys:
            del bucket[key]
        if keys:
            self._changed(origin)
        return len(keys)

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
        removed = self._by_origin.get(key[0], {}).pop(key, None)
        if removed is not None:
            self._changed(key[0])
        return removed

    def remove_crossing(self, link_id: int) -> int:
        """Remove every stored beacon whose path crosses ``link_id``."""
        return sum(
            self._drop(origin, lambda pcb: pcb.contains_link(link_id))
            for origin in self._by_origin
        )

    def remove_traversing_as(self, asn: int) -> int:
        """Remove every stored beacon whose path visits ``asn``.

        The beaconing-level reaction to an AS outage: every path through
        the failed AS is unusable, whichever of its links it entered by.
        """
        return sum(
            self._drop(origin, lambda pcb: pcb.contains_as(asn))
            for origin in self._by_origin
        )

    def clear(self) -> int:
        """Drop everything (a beacon-server restart); returns the count."""
        removed = self.count()
        self._by_origin.clear()
        self._sorted_cache.clear()
        self._worst.clear()
        self._earliest_expiry.clear()
        return removed

    def purge_expired(self, now: float) -> int:
        """Drop all expired beacons; returns how many were removed."""
        removed = 0
        for origin in list(self._by_origin):
            removed += self._drop(origin, lambda pcb: not pcb.is_valid(now))
            if not self._by_origin[origin]:
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
