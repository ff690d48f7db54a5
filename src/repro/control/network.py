"""Full-stack SCION network orchestration.

Ties the substrates into one runnable system: core beaconing among the core
ASes, intra-ISD beaconing inside every ISD, segment registration at the
core path servers, on-demand path lookup through the path-server hierarchy,
segment combination, and data-plane delivery over MAC-verified hop fields.
The examples and the Table 1 experiment drive this class.
"""

from __future__ import annotations

import functools
import operator
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.pcb import PCB
from ..core.scoring import DiversityParams
from ..obs import NULL_TELEMETRY, Telemetry

# NOTE: the dataplane modules import control.segments; to keep both packages
# importable from either direction, the dataplane symbols are imported
# lazily inside the methods that need them.
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    algorithm_factory,
)
from ..topology.model import Topology
from .messages import ControlMessageLog
from .path_server import CorePathServer, LocalPathServer, SegmentCache
from .revocation import RevocationService
from .segments import PathSegment, SegmentType

__all__ = ["ScionNetwork"]


@functools.cache
def _combinator():
    """``repro.dataplane.combinator``, imported on first use (see the NOTE
    above) and once. Callers go through the module so that a replaced
    ``combine_segments`` attribute — a tracer's timing shim — is the one
    that runs."""
    from ..dataplane import combinator

    return combinator


def _same_objects(left: Sequence, right: Sequence) -> bool:
    return len(left) == len(right) and all(map(operator.is_, left, right))


class _Resolution(NamedTuple):
    """The valid segments one lookup ended with and the paths they combine
    into. It answers a later lookup only if that one ends with the very
    same segment objects; holding them here keeps their identities from
    being recycled."""

    ups: Tuple[PathSegment, ...]
    cores: Tuple[PathSegment, ...]
    downs: Tuple[PathSegment, ...]
    paths: Tuple["EndToEndPath", ...]


class ScionNetwork:
    """A complete simulated SCION deployment over a topology.

    Every AS needs an assigned ISD (``Topology`` nodes carry ``isd``); core
    ASes originate beacons. ``run()`` executes the control plane; lookups
    and packet delivery are available afterwards.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        algorithm: str = "diversity",
        params: Optional[DiversityParams] = None,
        core_config: Optional[BeaconingConfig] = None,
        intra_config: Optional[BeaconingConfig] = None,
        registration_limit: int = 5,
        obs: Optional[Telemetry] = None,
        backend: str = "python",
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.registration_limit = registration_limit
        self.obs = obs if obs is not None else NULL_TELEMETRY
        #: Kernel backend name the beaconing algorithms score through
        #: (``repro.kernels``) — byte-identical results by contract.
        self.backend = backend
        self.log = ControlMessageLog()
        self._factory = algorithm_factory(
            algorithm, params=params, kernel=backend
        )
        self.core_config = core_config or BeaconingConfig(
            mode=BeaconingMode.CORE
        )
        self.intra_config = intra_config or BeaconingConfig(
            mode=BeaconingMode.INTRA_ISD
        )
        for asn in topology.asns():
            if topology.as_node(asn).isd is None:
                raise ValueError(f"AS {asn} has no ISD assigned")
        if not topology.core_asns():
            raise ValueError("topology has no core AS")
        self.core_sim: Optional[BeaconingSimulation] = None
        self.intra_sims: Dict[int, BeaconingSimulation] = {}
        self.core_servers: Dict[int, CorePathServer] = {}
        self.local_servers: Dict[int, LocalPathServer] = {}
        self.revocations: Optional[RevocationService] = None
        self.now = 0.0
        self._ran = False
        self._router_table = None
        #: AS -> (the stored beacons its up-segments were promoted from,
        #: the up-segments); reused while the store returns those beacons.
        self._up_memo: Dict[
            int, Tuple[List[PCB], Tuple[PathSegment, ...]]
        ] = {}
        #: source AS -> destination AS -> resolution, least recently used
        #: destination first.
        self._resolved: Dict[int, "OrderedDict[int, _Resolution]"] = {}

    # ------------------------------------------------------------- control

    def run(self) -> "ScionNetwork":
        """Run beaconing, build path servers, register segments."""
        self.core_sim = BeaconingSimulation(
            self.topology, self._factory, self.core_config, obs=self.obs
        ).run()
        self.now = self.core_sim.end_time
        for isd in self._isds():
            members = [
                asn
                for asn in self.topology.asns()
                if self.topology.as_node(asn).isd == isd
            ]
            sub = self.topology.subtopology(members, name=f"isd-{isd}")
            if not sub.core_asns() or not sub.non_core_asns():
                continue
            self.intra_sims[isd] = BeaconingSimulation(
                sub, self._factory, self.intra_config, obs=self.obs
            ).run()
        self._build_path_servers()
        self._register_segments()
        self.revocations = RevocationService(
            self.topology, self.core_servers, self.log
        )
        self._ran = True
        return self

    def _isds(self) -> List[int]:
        return sorted(
            {
                self.topology.as_node(asn).isd  # type: ignore[misc]
                for asn in self.topology.asns()
            }
        )

    def _build_path_servers(self) -> None:
        assert self.core_sim is not None
        for asn in self.topology.core_asns():
            node = self.topology.as_node(asn)
            server = CorePathServer(asn, node.isd or 0, self.log)
            self.core_servers[asn] = server
            # Core segments held by this core AS: beacons from every other
            # core origin, reversed into this-core-first orientation.
            for origin in self.core_sim.originator_asns():
                if origin == asn:
                    continue
                for pcb in self.core_sim.paths_at(asn, origin):
                    segment = PathSegment.from_pcb(
                        pcb, SegmentType.CORE
                    ).reversed()
                    server.store_core_segment(segment)
        for server in self.core_servers.values():
            server.peers = {
                asn: peer
                for asn, peer in self.core_servers.items()
                if asn != server.asn
            }
        for asn in self.topology.non_core_asns():
            node = self.topology.as_node(asn)
            isd = node.isd or 0
            core = self._isd_cores(isd)
            if not core:
                continue
            local = LocalPathServer(
                asn, isd, self.core_servers[core[0]], self.log
            )
            local.isd_core_servers = {
                c: self.core_servers[c] for c in core
            }
            self.local_servers[asn] = local

    def _isd_cores(self, isd: int) -> List[int]:
        return sorted(
            asn
            for asn in self.topology.core_asns()
            if self.topology.as_node(asn).isd == isd
        )

    def _register_segments(self) -> None:
        """Leaf ASes register their best down-segments at the core path
        servers of their ISD.

        §2.2: "A core AS's path server stores all the intra-ISD path
        segments that were registered by leaf ASes of its own ISD" — every
        core server of the ISD receives the registration, so any of them
        can answer (local or cross-ISD) down-segment queries for any leaf.
        """
        for isd, sim in self.intra_sims.items():
            servers = [
                self.core_servers[c]
                for c in self._isd_cores(isd)
                if c in self.core_servers
            ]
            if not servers:
                continue
            for asn in sim.participant_asns():
                if self.topology.as_node(asn).is_core:
                    continue
                for origin in sim.originator_asns():
                    beacons = sim.paths_at(asn, origin)
                    for pcb in beacons[: self.registration_limit]:
                        segment = PathSegment.from_pcb(pcb, SegmentType.DOWN)
                        for server in servers:
                            server.register_down_segment(
                                segment, self.now, sender=asn
                            )

    def refresh_registrations(self, now: Optional[float] = None) -> None:
        """Re-run the periodic path (de-)registration round (§4.1: 'Path
        (de-)registration is typically performed every tens of minutes')."""
        self._require_ran()
        if now is not None:
            self.now = now
        self._register_segments()

    # -------------------------------------------------------------- lookup

    def segment_caches(self):
        """Every :class:`SegmentCache` of the network, tagged by kind."""
        for server in self.local_servers.values():
            yield "down", server.down_cache
            yield "core", server.core_cache
        for server in self.core_servers.values():
            yield "remote", server.remote_cache

    def cache_counters(self) -> Dict[str, int]:
        """Summed :class:`SegmentCache` counters across every path server.

        The service's lookup spans take the delta of this dict around a
        lookup, attributing segment-cache hits and misses to the request
        that caused them.
        """
        totals = {"hit": 0, "miss": 0, "eviction": 0, "expiration": 0}
        for _, cache in self.segment_caches():
            for key, value in cache.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def up_segments(self, asn: int) -> List[PathSegment]:
        """The AS's own up-segments, straight from its beacon store."""
        return list(self._promoted_up_segments(asn))

    def _promoted_up_segments(self, asn: int) -> Sequence[PathSegment]:
        """Up-segments of ``asn``, promoted once per stored beacon."""
        node = self.topology.as_node(asn)
        if node.is_core:
            return ()
        sim = self.intra_sims.get(node.isd or 0)
        server = sim.servers.get(asn) if sim is not None else None
        if server is None:
            return ()
        # Origins in ascending order, as ``sim.originator_asns()`` lists
        # them; those the AS holds no beacon of contribute nothing.
        pcbs: List[PCB] = []
        for origin in sorted(server.store.origins()):
            pcbs.extend(sim.paths_at(asn, origin))
        memo = self._up_memo.get(asn)
        if memo is None or not _same_objects(memo[0], pcbs):
            memo = self._up_memo[asn] = (
                pcbs,
                tuple(
                    PathSegment.from_pcb(pcb, SegmentType.UP) for pcb in pcbs
                ),
            )
        return memo[1]

    def lookup_paths(
        self, src: int, dst: int, *, now: Optional[float] = None
    ) -> List["EndToEndPath"]:
        """End-to-end AS-level paths from ``src`` to ``dst``.

        Walks the full lookup chain of Section 2.3: endpoint query at the
        local path server, down-segment and core-segment lookups, then
        segment combination (shortcuts and peering links included).

        The chain is walked — and accounted in the message log and the
        segment-cache counters — on every call. The combination of the
        segments it ends with is computed once: a repeated lookup that
        ends with the same segment objects returns the same (immutable)
        paths in a fresh list.
        """
        self._require_ran()
        if src == dst:
            raise ValueError("source and destination coincide")
        when = self.now if now is None else now
        src_node = self.topology.as_node(src)
        dst_node = self.topology.as_node(dst)

        local_server = self.local_servers.get(src)
        if local_server is not None:
            local_server.endpoint_lookup(when)

        ups = [
            s
            for s in self._promoted_up_segments(src)
            if s.issued_at <= when < s.expires_at
        ]
        src_cores: Set[int] = {src} if src_node.is_core else {
            s.core_asn for s in ups
        }

        if dst_node.is_core:
            downs: List[PathSegment] = []
            dst_cores: Set[int] = {dst}
        else:
            downs = self._lookup_down(src, dst, dst_node.isd or 0, when)
            dst_cores = {s.first_asn for s in downs}

        cores: List[PathSegment] = []
        for cu in sorted(src_cores):
            for cd in sorted(dst_cores):
                if cd == cu:
                    continue
                if local_server is not None:
                    cores.extend(
                        local_server.lookup_core_between(cu, cd, when)
                    )
                else:
                    server = self.core_servers.get(cu)
                    if server is not None:
                        cores.extend(
                            server.lookup_core(cd, when, requester=src)
                        )

        resolved = self._resolved.get(src)
        if resolved is None:
            resolved = self._resolved[src] = OrderedDict()
        entry = resolved.get(dst)
        if (
            entry is not None
            and _same_objects(entry.ups, ups)
            and _same_objects(entry.cores, cores)
            and _same_objects(entry.downs, downs)
        ):
            resolved.move_to_end(dst)
            return list(entry.paths)
        paths = self._combine(src, dst, ups, cores, downs, when)
        # Bounded like the segment caches the lookup went through, by the
        # same rule: the least recently used destination goes first.
        resolved.pop(dst, None)
        if len(resolved) >= SegmentCache.MAX_ENTRIES:
            resolved.popitem(last=False)
        resolved[dst] = _Resolution(
            tuple(ups), tuple(cores), tuple(downs), tuple(paths)
        )
        return paths

    def _combine(
        self,
        src: int,
        dst: int,
        ups: List[PathSegment],
        cores: List[PathSegment],
        downs: List[PathSegment],
        when: float,
    ) -> List["EndToEndPath"]:
        """The sorted, duplicate-free paths the valid segments of one
        lookup combine into."""
        combinator = _combinator()
        paths = [
            path
            for path in combinator.combine_segments(
                ups, cores, downs, topology=self.topology, now=when
            )
            if path.source == src and path.destination == dst
        ]
        # Single-segment paths the combinator does not synthesize: the
        # destination *is* the source's ISD core (the up-segment alone is
        # the path), or the source is the core a down-segment starts at.
        alone = [up for up in ups if up.last_asn == dst]
        alone.extend(down for down in downs if down.first_asn == src)
        if alone:
            known = {(path.asns, path.link_ids) for path in paths}
            for segment in alone:
                key = (segment.asns, segment.link_ids)
                if key not in known:
                    known.add(key)
                    paths.append(
                        combinator.EndToEndPath(
                            asns=segment.asns,
                            link_ids=segment.link_ids,
                            expires_at=segment.expires_at,
                        )
                    )
            paths.sort(key=lambda p: (p.num_links, p.asns, p.link_ids))
        return paths

    def _lookup_down(
        self, src: int, dst: int, dst_isd: int, when: float
    ) -> List[PathSegment]:
        local_server = self.local_servers.get(src)
        if local_server is not None:
            return local_server.lookup_down(dst, dst_isd, when)
        # Core-AS sources query their own core path server directly.
        server = self.core_servers.get(src)
        if server is None:
            return []
        return server.lookup_down(dst, dst_isd, when, requester=src)

    # ----------------------------------------------------------- data plane

    @property
    def router_table(self) -> "RouterTable":
        """The shared per-AS router table (forwarding keys derived once)."""
        from ..dataplane.router import RouterTable

        if self._router_table is None:
            self._router_table = RouterTable(self.topology)
        return self._router_table

    def send_packet(
        self,
        src: int,
        dst: int,
        *,
        payload_bytes: int = 0,
        path: Optional["EndToEndPath"] = None,
        now: Optional[float] = None,
    ) -> List[int]:
        """Deliver one packet; returns the AS-level trajectory."""
        from ..dataplane.packet import build_packet
        from ..dataplane.router import deliver

        self._require_ran()
        when = self.now if now is None else now
        if path is None:
            paths = self.lookup_paths(src, dst, now=when)
            if not paths:
                raise ValueError(f"no path from AS {src} to AS {dst}")
            path = paths[0]
        packet = build_packet(
            self.topology,
            src,
            dst,
            path,
            timestamp=when,
            payload_bytes=payload_bytes,
        )
        return deliver(
            self.topology, packet, now=when, routers=self.router_table
        )

    # ------------------------------------------------------------ failures

    def fail_link(self, link_id: int) -> None:
        """Fail a link: revoke segments and make routers drop the link."""
        self._require_ran()
        assert self.revocations is not None
        self.revocations.revoke_link(link_id, self.now)

    def recover_link(self, link_id: int) -> None:
        """Undo a link failure: clear the revocation and restore the
        segments the revocation dropped from the core path servers.

        Core segments are re-derived from the (unchanged) core beaconing
        run; down-segments are re-registered from the intra-ISD beacon
        stores — the periodic re-registration round the paper relies on
        for recovery (§4.1).
        """
        self._require_ran()
        assert self.revocations is not None and self.core_sim is not None
        self.revocations.clear(link_id)
        for asn, server in self.core_servers.items():
            for origin in self.core_sim.originator_asns():
                if origin == asn:
                    continue
                for pcb in self.core_sim.paths_at(asn, origin):
                    segment = PathSegment.from_pcb(
                        pcb, SegmentType.CORE
                    ).reversed()
                    server.store_core_segment(segment)
        self._register_segments()

    def usable_paths(self, src: int, dst: int) -> List["EndToEndPath"]:
        """Paths not crossing any revoked link (post-SCMP failover view)."""
        paths = self.lookup_paths(src, dst)
        if self.revocations is None:
            return paths
        return self.revocations.filter_paths(paths, self.now)

    def _require_ran(self) -> None:
        if not self._ran:
            raise RuntimeError("call run() before using the network")

    def __getstate__(self) -> dict:
        # Copies and pickles start with empty memos: both are rebuilt on
        # demand, and their keys are identities of this process's objects.
        state = dict(self.__dict__)
        state["_up_memo"] = {}
        state["_resolved"] = {}
        return state
