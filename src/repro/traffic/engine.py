"""The end-to-end data-plane traffic engine.

Drives a user flow workload through the whole stack, exactly the way the
paper's deployed system would serve it:

1. **path lookup** — every flow resolves its destination through the
   path-server hierarchy (:class:`~repro.control.network.ScionNetwork.
   lookup_paths`), exercising the :class:`~repro.control.path_server.
   SegmentCache` TTL+LRU caches and, after revocations, their
   invalidation;
2. **path selection** — a pluggable strategy
   (:mod:`repro.multipath.scheduler`) splits the flow's packets over up
   to ``k`` of the candidate end-to-end paths; an endpoint *policy* is
   such a strategy at ``k=1``;
3. **forwarding** — each share of the split is materialized as
   hop-field packets and forwarded hop by hop through the shared
   :class:`~repro.dataplane.router.RouterTable`; every hop verifies the
   chained hop-field MAC (PCFS, §4.1 Mechanism 4);
4. **gateways** — flows whose endpoint AS is a legacy-IP deployment
   (§3.4) enter/leave the SCION network through a
   :class:`~repro.deployment.sig.ScionIPGateway`, counted per packet;
5. **faults** — an optional :class:`TrafficFaultPlan` fails the hottest
   links mid-run: the control plane revokes (§4.1), flows discover the
   failure on their next send (the SCMP model), drop that flow's bytes,
   invalidate their lookup caches and re-resolve — producing the goodput
   dip-and-recovery the paper's robustness story predicts.

Everything is deterministic given (network, workload config, fault plan):
flows come from per-tick seeded RNGs, strategies break ties on path
identity, and fault targets are picked from accumulated byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..control.network import ScionNetwork
from ..dataplane.combinator import EndToEndPath
from ..dataplane.packet import (
    ForwardingPath,
    HostAddress,
    ScionPacket,
    build_forwarding_path,
)
from ..deployment.sig import ASMap, IPPacket, ScionIPGateway
from ..kernels import KernelBackend, resolve_backend
from ..obs import NULL_TELEMETRY, Telemetry
from ..topology.latency import QUEUEING_FACTOR, LatencyModel
from .flows import PAYLOAD_BYTES, Flow, FlowGenerator
from .metrics import TICK_SECONDS, TrafficRunResult, path_key

__all__ = ["TrafficConfig", "TrafficFaultPlan", "TrafficEngine", "FlowOutcome"]

#: Bucket bounds (seconds) of the forwarding-latency histogram; the
#: simulated one-way latencies land in the tens-of-milliseconds range.
FORWARD_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1.0,
)

#: Bucket bounds of the end-to-end AS-hop-count histogram.
PATH_HOPS_BUCKETS = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0)


@dataclass(frozen=True)
class TrafficConfig:
    """Data-plane parameters of a traffic run."""

    #: Uniform inter-domain link capacity in bits/second.
    link_capacity_bps: float = 400e6
    #: Endpoint policy: the strategy name
    #: (:func:`repro.multipath.scheduler.get_strategy`) that picks one
    #: path per flow while ``strategy`` is unset.
    policy: str = "shortest-latency"
    #: Multipath scheduling strategy. ``None`` (the default) means "no
    #: split": ``policy`` runs at k=1. When set, each flow is split
    #: across up to ``k_paths`` candidates by this strategy instead.
    strategy: Optional[str] = None
    #: Maximum paths per flow when ``strategy`` is set (ignored otherwise).
    k_paths: int = 1

    def __post_init__(self) -> None:
        if self.link_capacity_bps <= 0:
            raise ValueError("link_capacity_bps must be positive")
        if self.k_paths < 1:
            raise ValueError("k_paths must be >= 1")
        # Imported lazily: repro.multipath is layered above traffic.
        from ..multipath.scheduler import get_strategy

        # Validates both names (raises ValueError naming the choices).
        get_strategy(self.policy)
        if self.strategy is not None:
            get_strategy(self.strategy)

    @property
    def policy_label(self) -> str:
        """The one ``policy`` label value of this run's metrics: the name
        of the selection that actually ran."""
        if self.strategy is None:
            return self.policy
        return f"multipath/{self.strategy}"

    @property
    def capacity_bytes_per_tick(self) -> float:
        return self.link_capacity_bps * TICK_SECONDS / 8.0


@dataclass(frozen=True)
class TrafficFaultPlan:
    """Fail the hottest link mid-run, then recover it."""

    fail_tick: int
    recover_tick: int

    def __post_init__(self) -> None:
        if self.fail_tick < 1:
            raise ValueError(
                "fail_tick must be >= 1 (the hottest link is picked from "
                "observed traffic)"
            )
        if self.recover_tick <= self.fail_tick:
            raise ValueError("recover_tick must come after fail_tick")


@dataclass(frozen=True, slots=True)
class FlowOutcome:
    """The per-flow answer :meth:`TrafficEngine.serve_one` returns.

    Plain primitives, derived from the same accounting ``run()`` keeps,
    so a service layer can serve flows one at a time (request/response)
    with byte-identical semantics to the batch loop.
    """

    flow_id: int
    completed: bool
    delivered_packets: int
    offered_bytes: int
    delivered_bytes: int
    #: One-way latency in seconds for completed flows, else None.
    latency: Optional[float]
    #: Data-plane failure discovery happened (SCMP model) on this flow.
    scmp_event: bool
    macs_verified: int


class TrafficEngine:
    """Serves one flow workload over a ran :class:`ScionNetwork`.

    Two driving modes share every code path: :meth:`run` replays a whole
    :class:`~repro.traffic.flows.FlowGenerator` workload tick by tick,
    and :meth:`serve_one` serves a single flow on demand — the
    request/response mode :class:`repro.service.MeasurementService` uses.
    In the on-demand mode the caller owns the tick cadence: utilization
    accumulates until :meth:`roll_tick` rolls the current tick's link
    bytes into the previous-tick observation the policies read.
    """

    def __init__(
        self,
        network: ScionNetwork,
        generator: FlowGenerator,
        config: TrafficConfig,
        *,
        legacy_asns: Tuple[int, ...] = (),
        name: str = "traffic",
        obs: Optional[Telemetry] = None,
        backend: Union[KernelBackend, str, None] = None,
    ) -> None:
        self.network = network
        self.topology = network.topology
        self.generator = generator
        self.config = config
        self.name = name
        self.obs = obs if obs is not None else NULL_TELEMETRY
        #: Forwarding kernel (``repro.kernels``): byte-identical results
        #: whichever backend serves the flows.
        self.kernel = resolve_backend(backend)
        self.routers = network.router_table
        self.latency = LatencyModel(self.topology)
        # Imported lazily: repro.multipath is layered above traffic.
        from ..multipath.scheduler import SchedulerContext, get_strategy

        # Every flow is split by ``scheduler`` over up to ``_k_paths``.
        if config.strategy is None:
            strategy, self._k_paths = config.policy, 1
        else:
            strategy, self._k_paths = config.strategy, config.k_paths
        self.scheduler = get_strategy(strategy)
        #: Shared by every ``traffic.*`` metric this run exports.
        self._labels = {"policy": config.policy_label, "run": name}
        unknown = set(legacy_asns) - set(generator.endpoints)
        if unknown:
            raise ValueError(
                f"legacy ASes {sorted(unknown)} are not workload endpoints"
            )
        self.legacy_asns: Tuple[int, ...] = tuple(sorted(legacy_asns))

        # Endpoint IP plan: endpoint i owns 10.(i>>8).(i&255).0/24. Every
        # endpoint gets an ASMap entry (so SIG encapsulation can route to
        # any destination); only legacy ASes get a gateway.
        self._ip_index = {
            asn: index for index, asn in enumerate(generator.endpoints)
        }
        self._asmap = ASMap()
        for asn, index in sorted(self._ip_index.items()):
            self._asmap.add(
                f"10.{index >> 8}.{index & 255}.0/24",
                self.topology.as_node(asn).isd or 0,
                asn,
            )
        self._sigs: Dict[int, ScionIPGateway] = {
            asn: ScionIPGateway(
                self.topology.as_node(asn).isd or 0,
                asn,
                self._asmap,
                local_ip=self._host_ip(asn, host=1),
            )
            for asn in self.legacy_asns
        }

        # Mutable run state.
        self._failed_links: Set[int] = set()
        self._pair_history: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._tick_link_bytes: Dict[int, int] = {}
        self._prev_tick_link_bytes: Dict[int, int] = {}
        self._sched_ctx = SchedulerContext(
            lambda path: self.latency.path_latency(path.link_ids),
            seed=generator.config.seed,
            link_utilization=self._prev_utilization,
            pair_links=self._pair_history,
        )
        #: Hop fields per path, valid at ``_headers_stamp`` (now, epoch).
        self._headers: Dict[EndToEndPath, ForwardingPath] = {}
        self._headers_stamp: Tuple[float, int] = (0.0, -1)
        self._wired_caches: List = []
        self._wire_cache_events()

    # ------------------------------------------------------------ plumbing

    def _host_ip(self, asn: int, *, host: int = 10) -> str:
        index = self._ip_index[asn]
        return f"10.{index >> 8}.{index & 255}.{host}"

    def _prev_utilization(self, link_id: int) -> float:
        return (
            self._prev_tick_link_bytes.get(link_id, 0)
            / self.config.capacity_bytes_per_tick
        )

    def _forwarding_path(self, path: EndToEndPath, now: float) -> ForwardingPath:
        """The hop fields of ``path`` at ``now``, MAC-chained once per path
        while ``now`` and the topology's ``link_epoch`` hold (the routers
        still verify every packet that carries them)."""
        stamp = (now, self.topology.link_epoch)
        if stamp != self._headers_stamp:
            self._headers, self._headers_stamp = {}, stamp
        forwarding = self._headers.get(path)
        if forwarding is None:
            forwarding = self._headers[path] = build_forwarding_path(
                self.topology,
                path.asns,
                path.link_ids,
                timestamp=now,
                expiry=path.expires_at,
            )
        return forwarding

    def _count_link_bytes(self, path: EndToEndPath, wire_bytes: int) -> None:
        for link_id in path.link_ids:
            self._tick_link_bytes[link_id] = (
                self._tick_link_bytes.get(link_id, 0) + wire_bytes
            )

    def _cache_counter_map(self) -> Dict[str, Dict[str, int]]:
        """Per-kind hit/miss/eviction/expiration totals over all caches."""
        totals: Dict[str, Dict[str, int]] = {}
        for kind, cache in self.network.segment_caches():
            bucket = totals.setdefault(
                kind, {"hit": 0, "miss": 0, "eviction": 0, "expiration": 0}
            )
            for event, count in cache.counters().items():
                bucket[event] += count
        return totals

    def _wire_cache_events(self) -> None:
        """Emit a trace instant per cache lookup event when tracing."""
        self._unwire_cache_events()
        trace = self.obs.causal
        if not trace.enabled:
            return
        for kind, cache in self.network.segment_caches():
            cache.on_event = (
                lambda event, key, _kind=kind: trace.instant(
                    "path_server",
                    f"cache_{event}",
                    cache=_kind,
                    key=str(key),
                )
            )
            self._wired_caches.append(cache)

    def _unwire_cache_events(self) -> None:
        """Detach the hooks :meth:`_wire_cache_events` installed.

        The caches belong to the (reusable) network, not to this engine:
        leaving closures behind would keep this run's trace recorder
        alive — and collecting — long after the run ended.
        """
        for cache in self._wired_caches:
            cache.on_event = None
        self._wired_caches = []

    # -------------------------------------------------------------- faults

    def _hottest_link(self, carried: Dict[int, int]) -> int:
        """The link carrying the most bytes so far (ties and the cold-start
        case fall back to the lowest link id)."""
        if carried:
            return min(carried, key=lambda link_id: (-carried[link_id], link_id))
        return min(link.link_id for link in self.topology.links())

    def _apply_fault_plan(
        self,
        tick: int,
        plan: Optional[TrafficFaultPlan],
        result: TrafficRunResult,
    ) -> None:
        if plan is None:
            return
        if tick == plan.fail_tick:
            link_id = self._hottest_link(result.link_bytes)
            self.network.fail_link(link_id)
            self._failed_links.add(link_id)
            result.fail_tick = tick
            result.failed_links = tuple(sorted(self._failed_links))
            self.obs.causal.instant(
                "traffic",
                "fail_links",
                tick=tick,
                links=list(result.failed_links),
            )
        if tick == plan.recover_tick:
            for link_id in sorted(self._failed_links):
                self.network.recover_link(link_id)
            self._failed_links.clear()
            # Revocation lifetime lapses: endpoints refetch, so the stale
            # (failure-era) entries leave the lookup caches.
            for _, cache in self.network.segment_caches():
                cache.clear()
            result.recover_tick = tick
            self.obs.causal.instant("traffic", "recover_links", tick=tick)

    def _invalidate_lookup_state(self, src: int, dst: int) -> None:
        """SCMP reaction: the endpoint drops its cached resolution and the
        servers drop the entries that produced the dead path."""
        local = self.network.local_servers.get(src)
        if local is not None:
            local.down_cache.invalidate(dst)
            local.core_cache.clear()
            local.core_server.remote_cache.invalidate(dst)

    # ----------------------------------------------------------------- run

    def _open_result(self, ticks: int) -> TrafficRunResult:
        """An empty record with every per-tick series zeroed."""
        return TrafficRunResult(
            name=self.name,
            ticks=ticks,
            link_capacity_bps=self.config.link_capacity_bps,
            legacy_asns=self.legacy_asns,
            offered_bytes=[0] * ticks,
            delivered_bytes=[0] * ticks,
            lost_bytes=[0] * ticks,
        )

    def run(
        self, fault_plan: Optional[TrafficFaultPlan] = None
    ) -> TrafficRunResult:
        config = self.generator.config
        if fault_plan is not None and fault_plan.recover_tick >= config.num_ticks:
            raise ValueError("fault plan must recover within the workload")
        result = self._open_result(config.num_ticks)
        obs = self.obs
        self._wire_cache_events()
        before = self.network.cache_counters()
        caches0 = self._cache_counter_map() if obs.metrics.enabled else None
        try:
            for tick in range(config.num_ticks):
                with obs.causal.span(
                    "traffic", "tick", run=self.name, tick=tick
                ):
                    self._apply_fault_plan(tick, fault_plan, result)
                    for flow in self.generator.flows_for_tick(tick):
                        self._serve_flow(flow, tick, result)
                    # Roll tick-level link accounting into the run totals.
                    for link_id, count in self._tick_link_bytes.items():
                        result.link_bytes[link_id] = (
                            result.link_bytes.get(link_id, 0) + count
                        )
                        if count > result.link_peak_bytes.get(link_id, 0):
                            result.link_peak_bytes[link_id] = count
                    self.roll_tick()
        finally:
            self._unwire_cache_events()
        after = self.network.cache_counters()
        result.cache_hits = after["hit"] - before["hit"]
        result.cache_misses = after["miss"] - before["miss"]
        for sig in self._sigs.values():
            result.sig_encapsulated += sig.encapsulated
            result.sig_decapsulated += sig.decapsulated
        if caches0 is not None:
            self._export_metrics(result, caches0)
        return result

    def _export_metrics(
        self,
        result: TrafficRunResult,
        caches0: Dict[str, Dict[str, int]],
    ) -> None:
        """Fold this run's aggregates into the metrics registry."""
        metrics = self.obs.metrics
        labels = self._labels
        for name, value in (
            ("traffic.flows_started", result.flows_started),
            ("traffic.flows_completed", result.flows_completed),
            ("traffic.flows_failed", result.flows_failed),
            ("traffic.packets_forwarded", result.packets_forwarded),
            ("traffic.packets_lost", result.packets_lost),
            ("traffic.macs_verified", result.macs_verified),
            ("traffic.scmp_events", result.scmp_events),
            ("traffic.re_lookups", result.re_lookups),
            ("traffic.offered_bytes", sum(result.offered_bytes)),
            ("traffic.delivered_bytes", sum(result.delivered_bytes)),
            ("traffic.lost_bytes", sum(result.lost_bytes)),
            ("traffic.sig_encapsulated", result.sig_encapsulated),
            ("traffic.sig_decapsulated", result.sig_decapsulated),
            ("traffic.multipath_splits", result.multipath_splits),
            ("traffic.subflows", result.subflows),
        ):
            if value:
                metrics.counter(name, labels).inc(value)
        latency = metrics.histogram(
            "traffic.forward_latency_seconds",
            FORWARD_LATENCY_BUCKETS,
            labels,
        )
        for observed in result.flow_latencies:
            latency.observe(observed)
        plural = {
            "hit": "hits",
            "miss": "misses",
            "eviction": "evictions",
            "expiration": "expirations",
        }
        caches1 = self._cache_counter_map()
        for kind in sorted(caches1):
            before = caches0.get(kind, {})
            for event, total in sorted(caches1[kind].items()):
                delta = total - before.get(event, 0)
                if delta:
                    metrics.counter(
                        f"path_server.cache_{plural[event]}",
                        {**labels, "cache": kind},
                    ).inc(delta)

    # ------------------------------------------------------------ on demand

    def serve_one(self, flow: Flow) -> FlowOutcome:
        """Serve a single flow end to end and report its outcome.

        Runs the exact per-flow pipeline of :meth:`run` (lookup through
        the segment caches, policy selection, MAC-verified forwarding,
        SIG gateways) against a throwaway single-tick result record, then
        distills the deltas into a :class:`FlowOutcome`. Link-byte
        accounting accumulates in the engine until :meth:`roll_tick`.
        """
        result = self._open_result(1)
        self._serve_flow(flow, 0, result)
        return FlowOutcome(
            flow_id=flow.flow_id,
            completed=result.flows_completed == 1,
            delivered_packets=result.packets_forwarded,
            offered_bytes=result.offered_bytes[0],
            delivered_bytes=result.delivered_bytes[0],
            latency=(
                result.flow_latencies[0] if result.flow_latencies else None
            ),
            scmp_event=result.scmp_events > 0,
            macs_verified=result.macs_verified,
        )

    def roll_tick(self) -> None:
        """Close the current utilization tick (on-demand mode).

        Moves the accumulated per-link byte counts into the
        previous-tick observation the path policies and the queueing
        model read — the same roll :meth:`run` performs between ticks.
        """
        self._prev_tick_link_bytes = self._tick_link_bytes
        self._tick_link_bytes = {}

    # ------------------------------------------------------------ per flow

    def _serve_flow(
        self, flow: Flow, tick: int, result: TrafficRunResult
    ) -> None:
        """Look the flow's paths up, split it over up to k alive
        candidates (one full-size share at k=1) and forward each share
        through the kernel backend.

        A flow completes only when *every* packet of every share is
        delivered; its latency is the slowest share's (packets arrive
        when the last path does). Partially delivered flows still
        contribute goodput: delivered bytes count, the remainder is lost
        — exactly what a byte-wise reconciliation against the per-path
        attribution requires.
        """
        result.flows_started += 1
        result.offered_bytes[tick] += flow.size_bytes
        now = self.network.now

        candidates = self.network.lookup_paths(flow.src, flow.dst, now=now)
        failed = self._failed_links
        alive = (
            [p for p in candidates if failed.isdisjoint(p.link_ids)]
            if failed
            else candidates
        )
        if candidates and not alive:
            # Data-plane failure discovery: the first packet hits the
            # revoked link, an SCMP message comes back, the endpoint
            # invalidates and will re-resolve on its next flow.
            result.scmp_events += 1
            result.re_lookups += 1
            self._invalidate_lookup_state(flow.src, flow.dst)
        if not alive:
            result.flows_failed += 1
            result.lost_bytes[tick] += flow.size_bytes
            return

        active = self.scheduler.split(
            flow.flow_id,
            flow.num_packets,
            alive,
            self._k_paths,
            self._sched_ctx,
        ).active
        if self.config.strategy is not None:
            # Documented as split-run counters: a policy run reports 0.
            result.subflows += len(active)
            if len(active) > 1:
                result.multipath_splits += 1
        pair = (flow.src, flow.dst)
        self._pair_history[pair] = self._pair_history.get(
            pair, frozenset()
        ).union(*(a.path.link_ids for a in active))
        hops_histogram = None
        if self.obs.metrics.enabled:
            hops_histogram = self.obs.metrics.histogram(
                "traffic.path_hops", PATH_HOPS_BUCKETS, self._labels
            )
        payload_bytes = PAYLOAD_BYTES
        src_ip = self._host_ip(flow.src)
        dst_ip = self._host_ip(flow.dst)
        src_sig = self._sigs.get(flow.src)
        dst_sig = self._sigs.get(flow.dst)
        inner = (
            IPPacket(src_ip=src_ip, dst_ip=dst_ip, payload_bytes=payload_bytes)
            if src_sig is not None
            else None
        )
        node = self.topology.as_node
        source = HostAddress(node(flow.src).isd or 0, flow.src, src_ip)
        destination = HostAddress(node(flow.dst).isd or 0, flow.dst, dst_ip)

        delivered_total = 0
        slowest = 0.0
        for assignment in active:
            path = assignment.path
            if hops_histogram is not None:
                hops_histogram.observe(float(len(path.asns)))
            forwarding = self._forwarding_path(path, now)
            if src_sig is not None:
                # Legacy source: the SIG encapsulates the IP packet and
                # injects it into the SCION data plane (§3.4).
                packet = src_sig.encapsulate(inner, forwarding)
            else:
                packet = ScionPacket(
                    source, destination, forwarding, payload_bytes
                )
            delivered = 0
            if packet is not None:
                # A share's packets are identical and router state is
                # fixed within a run, so the kernel forwards them as one
                # batch; delivery is all-or-nothing per share.
                delivered, hops = self.kernel.deliver_flow(
                    self.routers, packet, assignment.packets, now=now
                )
                if src_sig is not None:
                    # The per-packet reference loop encapsulated one
                    # packet per forwarding attempt: every delivered
                    # packet, plus the one that hit the forwarding error
                    # on a failed share.
                    attempts = delivered + (
                        1 if delivered < assignment.packets else 0
                    )
                    src_sig.encapsulated += attempts - 1
                if delivered:
                    result.packets_forwarded += delivered
                    result.macs_verified += delivered * hops
                    self._count_link_bytes(
                        path, packet.wire_bytes() * delivered
                    )
                    if dst_sig is not None:
                        # Legacy destination: the far-side SIG
                        # decapsulates back to the inner IP packet — once
                        # per packet in the reference loop, so mirror the
                        # count.
                        dst_sig.decapsulate(packet)
                        dst_sig.decapsulated += delivered - 1
            result.record_path_bytes(
                path_key(path.asns, path.link_ids),
                assignment.packets * payload_bytes,
                delivered * payload_bytes,
            )
            delivered_total += delivered
            if delivered == assignment.packets:
                bottleneck = max(
                    map(self._prev_utilization, path.link_ids), default=0.0
                )
                slowest = max(
                    slowest,
                    self.latency.path_latency(path.link_ids)
                    * (1.0 + QUEUEING_FACTOR * bottleneck),
                )

        result.delivered_bytes[tick] += delivered_total * payload_bytes
        lost = flow.num_packets - delivered_total
        if lost:
            result.packets_lost += lost
            result.flows_failed += 1
            result.lost_bytes[tick] += lost * payload_bytes
        else:
            result.flows_completed += 1
            result.flow_latencies.append(slowest)
