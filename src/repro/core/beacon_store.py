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
from bisect import insort
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .pcb import PCB
from .sent_registry import PathKey

__all__ = ["BeaconStore"]


#: Eviction policies for a full per-origin bucket:
#: * ``shortest`` — drop the longest (then oldest) beacon, the shortest-
#:   path preference of the production beacon server;
#: * ``diverse`` — drop the beacon whose links are most redundant with the
#:   rest of the bucket (greedy link-coverage), preserving the disjointness
#:   the path-diversity-based algorithm selects for.
EVICTION_POLICIES = ("shortest", "diverse")


def _eviction_key(key: PathKey, issued_at: float) -> Tuple:
    """Worst = longest path (read off the key), then oldest, then key.
    The store's order reads the path length off the key the same way."""
    return (len(key[1]), -issued_at, key)


def _rank(bucket: Dict[PathKey, PCB], key: PathKey) -> Tuple:
    return _eviction_key(key, bucket[key].issued_at)


def _join(tail: List[PathKey], bucket: Dict[PathKey, PCB], key: PathKey):
    """Rank ``key``'s beacon into ``tail`` if it is worse than the tail's
    best: outside the tail it would break the tail's invariant."""
    if tail and _rank(bucket, key) > _rank(bucket, tail[0]):
        insort(tail, key, key=lambda path: _rank(bucket, path))


def _cover(coverage: Dict[int, int], links: Tuple[int, ...]) -> None:
    """A beacon over ``links`` joined the bucket ``coverage`` counts (a
    path key's second half is its beacon's link ids)."""
    for link_id in links:
        coverage[link_id] = coverage.get(link_id, 0) + 1


def _uncover(coverage: Dict[int, int], links: Tuple[int, ...]) -> None:
    """A beacon over ``links`` left the bucket ``coverage`` counts."""
    for link_id in links:
        count = coverage[link_id] - 1
        if count:
            coverage[link_id] = count
        else:
            del coverage[link_id]


def _most_redundant(bucket: Dict[PathKey, PCB], coverage: Dict[int, int]):
    """The key of the beacon whose links are most covered by the others:
    the highest least coverage over its links (a beacon with a link of its
    own, coverage 1, is the most worth keeping; one without links counts
    as 1), then the worst by :func:`_eviction_key` among those."""
    covered = coverage.__getitem__
    top, most = 0, []
    for key in bucket:
        links = key[1]
        overlap = min(map(covered, links)) if links else 1
        if overlap > top:
            top, most = overlap, [key]
        elif overlap == top:
            most.append(key)
    return max(most, key=lambda key: _rank(bucket, key))


#: How many of a full bucket's worst beacons the ``shortest`` policy keeps
#: ranked. Ranking every beacon was no faster and cost 2.1 MiB at the
#: 16-core ``bench`` core; eight cost a pointer each.
TAIL_LENGTH = 8


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
        self._by_origin: Dict[int, Dict[PathKey, PCB]] = {}
        #: Per-origin sorted snapshots, invalidated on mutation; the
        #: selection algorithms call :meth:`beacons` once per origin and
        #: interval, so re-sorting unchanged buckets dominates otherwise.
        self._sorted_cache: Dict[int, List[PCB]] = {}
        #: Per origin, a time before which no stored beacon expires:
        #: inserts lower it, an expiry scan recomputes it, removals leave
        #: it (still a lower bound). Until then eviction scans nothing.
        self._earliest_expiry: Dict[int, float] = {}
        #: Per origin, the path keys of a full bucket's few worst beacons
        #: under the ``shortest`` policy, the next to go last. Every beacon
        #: outside the tail is better than every beacon in it: evictions
        #: consume it, a newcomer worse than its best joins it, a newer
        #: instance of one in it leaves or moves. Ranked afresh once empty;
        #: dropped when the bucket loses a beacon another way.
        self._tail: Dict[int, List[PathKey]] = {}
        #: Per origin, under the ``diverse`` policy, how many stored beacons
        #: cross each link: built at the bucket's first eviction, then kept
        #: by every insert of a new path and every removal.
        self._coverage: Dict[int, Dict[int, int]] = {}
        #: Latest ``now`` an insert has seen; every stored beacon was
        #: issued at or before it.
        self._clock = -math.inf
        #: Moves whenever the stored beacons change — wherever a sorted
        #: snapshot is dropped, and on :meth:`clear` — so a reader can
        #: keep what it derived from them until it moves.
        self.version = 0

    def __getstate__(self):
        # The sorted snapshots, the tails and the coverage are derived
        # state: rebuilt on demand, so snapshots neither grow nor differ.
        state = {**self.__dict__, "_sorted_cache": {}, "_tail": {}}
        del state["_coverage"]
        return state

    def __setstate__(self, state):
        # A store pickled before ``version`` existed starts it at 0.
        self.__dict__.update({"version": 0, **state}, _coverage={})

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
        tail = self._tail.get(origin)
        if existing is not None:
            bucket[key] = pcb
            self._sorted_cache.pop(origin, None)
            self.version += 1
            # A newer instance is a better beacon: one in the tail leaves
            # it, and rejoins it only if still worse than its best.
            if tail and key in tail:
                tail.remove(key)
                _join(tail, bucket, key)
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
            tail = tail or self._rank_tail(origin, bucket)
            if _eviction_key(key, pcb.issued_at) > _rank(bucket, tail[-1]):
                return False
            del bucket[tail.pop()]
            bucket[key] = pcb
            self._sorted_cache.pop(origin, None)
            self.version += 1
            _join(tail, bucket, key)
            return True
        bucket[key] = pcb
        self._changed(origin)
        coverage = self._coverage.get(origin)
        if coverage is not None:
            _cover(coverage, key[1])
        if scan_due:
            self._drop(origin, lambda stored: not stored.is_valid(now))
            self._earliest_expiry[origin] = min(
                (stored.expires_at for stored in bucket.values()),
                default=math.inf,
            )
        while limit is not None and len(bucket) > limit:
            if self.eviction_policy == "diverse":
                coverage = self._coverage.get(origin)
                if coverage is None:
                    coverage = self._coverage[origin] = {}
                    for stored in bucket:
                        _cover(coverage, stored[1])
                worst = _most_redundant(bucket, coverage)
                del bucket[worst]
                _uncover(coverage, worst[1])
            else:
                # One over: the rest of the ranked tail is the full bucket's.
                del bucket[self._rank_tail(origin, bucket).pop()]
        return key in bucket

    def _rank_tail(self, origin: int, bucket: Dict) -> List[PathKey]:
        """Rank ``origin``'s :data:`TAIL_LENGTH` worst beacons afresh."""
        ranked = sorted(
            [_eviction_key(key, pcb.issued_at) for key, pcb in bucket.items()]
        )
        tail = self._tail[origin] = [rank[2] for rank in ranked[-TAIL_LENGTH:]]
        return tail

    def _changed(self, origin: int) -> None:
        """``origin``'s bucket gained or lost a path: drop what was derived."""
        self._sorted_cache.pop(origin, None)
        self._tail.pop(origin, None)
        self.version += 1

    def _drop(self, origin: int, stale: Callable[[PCB], bool]) -> int:
        """Delete ``origin``'s beacons ``stale`` holds for; how many."""
        bucket = self._by_origin[origin]
        keys = [key for key, pcb in bucket.items() if stale(pcb)]
        for key in keys:
            del bucket[key]
        if keys:
            self._changed(origin)
            coverage = self._coverage.get(origin)
            if coverage is not None:
                for key in keys:
                    _uncover(coverage, key[1])
        return len(keys)

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
        self._tail.clear()
        self._coverage.clear()
        self._earliest_expiry.clear()
        self.version += 1
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
            # Shortest, oldest, then path key: unique, so no beacon compares.
            ordered = sorted(
                [(len(key[1]), pcb.issued_at, key, pcb)
                 for key, pcb in bucket.items()]
            )
            # In place: the snapshot keeps the sorted list's exact size.
            ordered[:] = [entry[3] for entry in ordered]
            self._sorted_cache[origin] = ordered
        # None was issued after the clock or expires before the earliest.
        earliest = self._earliest_expiry.get(origin, math.inf)
        if now is None or self._clock <= now < earliest:
            return list(ordered)
        return [pcb for pcb in ordered if pcb.is_valid(now)]

    def all_beacons(self, now: Optional[float] = None) -> Iterator[PCB]:
        for origin in self._by_origin:
            yield from self.beacons(origin, now)

    def count(self, origin: Optional[int] = None) -> int:
        if origin is not None:
            return len(self._by_origin.get(origin, {}))
        return sum(len(bucket) for bucket in self._by_origin.values())

    def get(self, key: PathKey) -> Optional[PCB]:
        origin = key[0]
        return self._by_origin.get(origin, {}).get(key)

    def __contains__(self, pcb: PCB) -> bool:
        return self.get(pcb.path_key()) is not None
