"""The path-server infrastructure (Section 2.2, "Path Segment
Dissemination").

"A global path server infrastructure is used to disseminate path segments.
Each AS contains a path server as a part of the control service. The
infrastructure bears similarities to DNS, where information is fetched
on-demand only. A core AS's path server stores all the intra-ISD path
segments that were registered by leaf ASes of its own ISD, and core-path
segments to reach other core ASes."

Communication scopes (Table 1): an endpoint asks its local path server
(AS-scope); a local path server asks a core path server of its ISD
(ISD-scope: core-segment and down-segment requests); for destinations in
other ISDs the core path server fetches from the *origin AS's* core path
server (global scope), caching the result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .messages import (
    Component,
    ControlMessageLog,
    Scope,
    lookup_request_size,
    segment_wire_size,
)
from .segments import PathSegment, SegmentType

__all__ = ["SegmentCache", "CorePathServer", "LocalPathServer"]


class SegmentCache:
    """A bounded TTL+LRU cache of segment query results, keyed by
    destination AS (or any hashable query key).

    Entries expire at ``min(cache deadline, earliest segment expiry)`` so a
    stale path is never served past its validity. The cache holds at most
    ``max_entries`` keys: inserting beyond the cap first sweeps expired
    entries, then evicts in least-recently-used order, so memory stays
    bounded under workloads with many distinct lookup keys (e.g. a traffic
    engine resolving millions of user flows).

    **Concurrency model (single asyncio loop).** The cache is safe for
    interleaved use from concurrent service requests under cooperative
    (asyncio) concurrency: no method ever awaits, so every call is atomic
    with respect to every other task on the loop. Two further guarantees
    make interleaving across *await points* safe as well:

    * ``get`` returns a **fresh list copy** — a task suspended while
      holding a result can never observe (or cause) mutation of the
      cached entry;
    * every explicit invalidation (``invalidate``/``clear``) bumps
      :attr:`generation`, so a task that resolved paths before suspending
      can cheaply detect that a revocation-driven invalidation landed in
      between and must re-validate (see
      :meth:`repro.service.service.MeasurementService._handle_lookup`).

    The cache is **not** thread-safe; it is never shared across threads.
    """

    #: Optional observability hook ``on_event(kind, key)`` with kind in
    #: {"hit", "miss", "eviction", "expiration"}. A class-level default of
    #: ``None`` keeps the hot path to one branch; the traffic engine
    #: assigns an instance's hook for the length of a run.
    on_event = None

    #: Default bound on the number of keys held.
    MAX_ENTRIES = 4096

    def __init__(
        self, ttl: float = 3600.0, max_entries: int = MAX_ENTRIES
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.ttl = ttl
        self.max_entries = max_entries
        self._entries: OrderedDict[object, Tuple[float, List[PathSegment]]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        #: Bumped on every explicit invalidation (``invalidate``/``clear``).
        #: Tasks that cache a lookup across an await point compare
        #: generations to detect an intervening invalidation.
        self.generation = 0

    def counters(self) -> Dict[str, int]:
        """The cache's lifetime event counters, by event kind — the shape
        :meth:`repro.traffic.engine.TrafficEngine` exports to the metrics
        registry."""
        return {
            "hit": self.hits,
            "miss": self.misses,
            "eviction": self.evictions,
            "expiration": self.expirations,
        }

    def get(self, key, now: float) -> Optional[List[PathSegment]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if self.on_event is not None:
                self.on_event("miss", key)
            return None
        if entry[0] <= now:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            if self.on_event is not None:
                self.on_event("expiration", key)
                self.on_event("miss", key)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self.on_event is not None:
            self.on_event("hit", key)
        return list(entry[1])

    def put(self, key, segments: List[PathSegment], now: float) -> None:
        deadline = now + self.ttl
        if segments:
            deadline = min(deadline, min(s.expires_at for s in segments))
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self.sweep(now)
            while len(self._entries) >= self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                self.evictions += 1
                if self.on_event is not None:
                    self.on_event("eviction", evicted_key)
        self._entries[key] = (deadline, list(segments))
        self._entries.move_to_end(key)

    def sweep(self, now: float) -> int:
        """Drop every expired entry; returns how many were removed."""
        expired = [
            key for key, entry in self._entries.items() if entry[0] <= now
        ]
        for key in expired:
            del self._entries[key]
            if self.on_event is not None:
                self.on_event("expiration", key)
        self.expirations += len(expired)
        return len(expired)

    def invalidate(self, key) -> None:
        self.generation += 1
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are preserved)."""
        self.generation += 1
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class CorePathServer:
    """Path server of a core AS."""

    def __init__(
        self, asn: int, isd: int, log: Optional[ControlMessageLog] = None
    ) -> None:
        self.asn = asn
        self.isd = isd
        self.log = log if log is not None else ControlMessageLog()
        #: Down-segments registered by this ISD's leaf ASes, by leaf ASN.
        self._down: Dict[int, Dict[tuple, PathSegment]] = {}
        #: Core segments by remote core ASN.
        self._core: Dict[int, Dict[tuple, PathSegment]] = {}
        #: Cached down-segments of remote ISDs, by destination ASN.
        self.remote_cache = SegmentCache()
        #: Peer core path servers by core ASN (for cross-ISD fetches).
        self.peers: Dict[int, "CorePathServer"] = {}

    # -------------------------------------------------------- registration

    def register_down_segment(
        self, segment: PathSegment, now: float, *, sender: Optional[int] = None
    ) -> bool:
        """Register a down-segment to a leaf of this ISD (intra-ISD scope)."""
        if segment.segment_type is not SegmentType.DOWN:
            raise ValueError("only down-segments are registered")
        if not segment.is_valid(now):
            return False
        leaf = segment.last_asn
        bucket = self._down.setdefault(leaf, {})
        bucket[segment.key()] = segment
        self.log.log(
            Component.PATH_REGISTRATION,
            Scope.ISD,
            segment_wire_size(segment),
            now,
            sender if sender is not None else leaf,
            self.asn,
        )
        return True

    def store_core_segment(self, segment: PathSegment) -> None:
        """Store a core segment learned through core beaconing. (Beaconing
        traffic itself is accounted by the beaconing simulation.)"""
        if segment.segment_type is not SegmentType.CORE:
            raise ValueError("expected a core segment")
        remote = segment.first_asn if segment.last_asn == self.asn else segment.last_asn
        self._core.setdefault(remote, {})[segment.key()] = segment

    def revoke_link(self, link_id: int, now: float) -> int:
        """Drop all registered segments crossing a failed link."""
        removed = 0
        for bucket in list(self._down.values()) + list(self._core.values()):
            for key in [k for k, s in bucket.items() if s.contains_link(link_id)]:
                del bucket[key]
                removed += 1
        return removed

    # ------------------------------------------------------------- lookups

    def down_segments(self, leaf: int, now: float) -> List[PathSegment]:
        return [
            s for s in self._down.get(leaf, {}).values() if s.is_valid(now)
        ]

    def core_segments(self, remote: int, now: float) -> List[PathSegment]:
        return [
            s for s in self._core.get(remote, {}).values() if s.is_valid(now)
        ]

    def lookup_down(
        self, dst_asn: int, dst_isd: int, now: float, *, requester: int
    ) -> List[PathSegment]:
        """Serve a down-segment query, fetching cross-ISD on demand."""
        if dst_isd == self.isd:
            segments = self.down_segments(dst_asn, now)
            self._log_response(
                Component.DOWN_SEGMENT_LOOKUP, Scope.ISD, segments, now,
                requester, subject=dst_asn,
            )
            return segments
        cached = self.remote_cache.get(dst_asn, now)
        if cached is not None:
            segments = [s for s in cached if s.is_valid(now)]
            self._log_response(
                Component.DOWN_SEGMENT_LOOKUP, Scope.ISD, segments, now,
                requester, subject=dst_asn,
            )
            return segments
        segments = self._fetch_remote(dst_asn, dst_isd, now)
        self.remote_cache.put(dst_asn, segments, now)
        self._log_response(
            Component.DOWN_SEGMENT_LOOKUP, Scope.ISD, segments, now,
            requester, subject=dst_asn,
        )
        return segments

    def _fetch_remote(
        self, dst_asn: int, dst_isd: int, now: float
    ) -> List[PathSegment]:
        """Unicast fetch from a core path server of the destination ISD."""
        for peer in self.peers.values():
            if peer.isd != dst_isd:
                continue
            self.log.log(
                Component.DOWN_SEGMENT_LOOKUP,
                Scope.GLOBAL,
                lookup_request_size(),
                now,
                self.asn,
                peer.asn,
                subject=dst_asn,
            )
            segments = peer.down_segments(dst_asn, now)
            self.log.log(
                Component.DOWN_SEGMENT_LOOKUP,
                Scope.GLOBAL,
                sum(segment_wire_size(s) for s in segments)
                or lookup_request_size(),
                now,
                peer.asn,
                self.asn,
                subject=dst_asn,
            )
            if segments:
                return segments
        return []

    def lookup_core(
        self, dst_core: int, now: float, *, requester: int
    ) -> List[PathSegment]:
        segments = self.core_segments(dst_core, now)
        self._log_response(
            Component.CORE_SEGMENT_LOOKUP, Scope.ISD, segments, now,
            requester, subject=dst_core,
        )
        return segments

    def _log_response(
        self,
        component: Component,
        scope: Scope,
        segments: List[PathSegment],
        now: float,
        requester: int,
        *,
        subject: Optional[int] = None,
    ) -> None:
        self.log.log(
            component,
            scope,
            lookup_request_size(),
            now,
            requester,
            self.asn,
            subject=subject,
        )
        self.log.log(
            component,
            scope,
            sum(segment_wire_size(s) for s in segments)
            or lookup_request_size(),
            now,
            self.asn,
            requester,
            subject=subject,
        )


class LocalPathServer:
    """Path server of a non-core AS, caching core and down segments."""

    def __init__(
        self,
        asn: int,
        isd: int,
        core_server: CorePathServer,
        log: Optional[ControlMessageLog] = None,
        *,
        cache_ttl: float = 3600.0,
    ) -> None:
        self.asn = asn
        self.isd = isd
        self.core_server = core_server
        #: Other core path servers of this ISD, for core segments that
        #: start at a different core AS than the bound one.
        self.isd_core_servers: Dict[int, CorePathServer] = {
            core_server.asn: core_server
        }
        self.log = log if log is not None else core_server.log
        self.down_cache = SegmentCache(cache_ttl)
        self.core_cache = SegmentCache(cache_ttl)

    def lookup_down(
        self, dst_asn: int, dst_isd: int, now: float
    ) -> List[PathSegment]:
        cached = self.down_cache.get(dst_asn, now)
        if cached is not None:
            return [s for s in cached if s.is_valid(now)]
        segments = self.core_server.lookup_down(
            dst_asn, dst_isd, now, requester=self.asn
        )
        self.down_cache.put(dst_asn, segments, now)
        return segments

    def lookup_core(self, dst_core: int, now: float) -> List[PathSegment]:
        return self.lookup_core_between(self.core_server.asn, dst_core, now)

    def lookup_core_between(
        self, src_core: int, dst_core: int, now: float
    ) -> List[PathSegment]:
        """Core segments from ``src_core`` to ``dst_core``, cached.

        ``src_core`` must be a core AS of this ISD whose path server is
        known (the bound core server, or one registered in
        ``isd_core_servers``).
        """
        key = (src_core, dst_core)
        cached = self.core_cache.get(key, now)
        if cached is not None:
            return [s for s in cached if s.is_valid(now)]
        server = (
            self.core_server
            if src_core == self.core_server.asn
            else self.isd_core_servers.get(src_core)
        )
        if server is None:
            return []
        segments = server.lookup_core(dst_core, now, requester=self.asn)
        self.core_cache.put(key, segments, now)
        return segments

    def endpoint_lookup(self, now: float) -> None:
        """Account one endpoint query against the local server (AS scope)."""
        self.log.log(
            Component.ENDPOINT_PATH_LOOKUP,
            Scope.AS,
            lookup_request_size(),
            now,
            self.asn,
            self.asn,
        )
