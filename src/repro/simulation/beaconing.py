"""Interval-stepped SCION beaconing simulation.

Reproduces the setup of Section 5.1: "we simulate six hours of beaconing
with a beaconing interval of ten minutes and a PCB lifetime of six hours.
The PCB dissemination limit ... is set to 5 for all experiments. ... The PCB
storage limit ... varies in different experiments."

Two beaconing processes share one driver:

* **core beaconing** (``BeaconingMode.CORE``) — selective flooding among
  core ASes over ``CORE`` links: every core AS originates beacons and
  propagates received ones to all core neighbors, subject to the
  path-construction algorithm's selection;
* **intra-ISD beaconing** (``BeaconingMode.INTRA_ISD``) — uni-directional
  flooding from the ISD core to the leaves: core ASes originate, every AS
  propagates only on provider-to-customer links.

Beacons advance one AS hop per beaconing interval (a beacon selected at
interval *t* is available in the receiver's store at interval *t+1*),
matching the periodic trigger of the real beacon servers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.baseline import BaselineAlgorithm
from ..core.beacon_store import BeaconStore
from ..core.diversity import DiversityAlgorithm
from ..core.pcb import PCB
from ..core.policy import PathConstructionAlgorithm, Transmission
from ..core.scoring import DiversityParams
from ..obs import NULL_TELEMETRY, Telemetry
from ..topology.model import Link, Relationship, Topology
from .metrics import TrafficMetrics

__all__ = [
    "BeaconingMode",
    "BeaconingConfig",
    "BeaconServerSim",
    "BeaconingSimulation",
    "algorithm_factory",
    "ALGORITHM_EVICTION",
    "baseline_factory",
    "diversity_factory",
]

AlgorithmFactory = Callable[[int, Topology], PathConstructionAlgorithm]


class BeaconingMode(enum.Enum):
    CORE = "core"
    INTRA_ISD = "intra-isd"


@dataclass(frozen=True)
class BeaconingConfig:
    """Timing and limits of a beaconing run (paper defaults)."""

    interval: float = 600.0
    duration: float = 6 * 3600.0
    pcb_lifetime: float = 6 * 3600.0
    storage_limit: Optional[int] = 60
    mode: BeaconingMode = BeaconingMode.CORE
    #: Beacon-store eviction policy ("shortest" or "diverse"); see
    #: :mod:`repro.core.beacon_store`.
    eviction_policy: str = "shortest"

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.duration <= 0 or self.pcb_lifetime <= 0:
            raise ValueError("interval, duration and pcb_lifetime must be positive")
        if self.duration < self.interval:
            raise ValueError("duration must cover at least one interval")

    @property
    def num_intervals(self) -> int:
        return int(self.duration // self.interval)


# The factories are module-level callable objects (not closures) because
# the simulation keeps its factory for server rebuilds after AS recovery,
# and warm-state snapshots pickle the whole simulation.
@dataclass(frozen=True)
class _BaselineFactory:
    dissemination_limit: int = 5

    def __call__(
        self, asn: int, topology: Topology
    ) -> PathConstructionAlgorithm:
        return BaselineAlgorithm(
            asn, topology, dissemination_limit=self.dissemination_limit
        )


@dataclass(frozen=True)
class _DiversityFactory:
    dissemination_limit: int = 5
    params: Optional[DiversityParams] = None
    #: Kernel backend name (``repro.kernels``), kept for the callers
    #: that pass one; Algorithm 1 scores the same way under every backend.
    kernel: str = "python"

    def __call__(
        self, asn: int, topology: Topology
    ) -> PathConstructionAlgorithm:
        return DiversityAlgorithm(
            asn,
            topology,
            dissemination_limit=self.dissemination_limit,
            params=self.params,
            kernel=self.kernel,
        )


def baseline_factory(dissemination_limit: int = 5) -> AlgorithmFactory:
    """Factory for per-AS baseline algorithm instances."""
    return _BaselineFactory(dissemination_limit)


def diversity_factory(
    dissemination_limit: int = 5,
    params: Optional[DiversityParams] = None,
    kernel: str = "python",
) -> AlgorithmFactory:
    """Factory for per-AS path-diversity algorithm instances."""
    return _DiversityFactory(dissemination_limit, params, kernel)


def algorithm_factory(
    algorithm: str,
    dissemination_limit: int = 5,
    params: Optional[DiversityParams] = None,
    kernel: str = "python",
) -> AlgorithmFactory:
    """The factory an algorithm *name* stands for. Specs and task
    envelopes carry names + params because those pickle and hash;
    this is the one place a name becomes a factory."""
    if algorithm == "baseline":
        return baseline_factory(dissemination_limit)
    if algorithm == "diversity":
        return diversity_factory(dissemination_limit, params, kernel)
    raise ValueError(f"unknown algorithm {algorithm!r}; use baseline|diversity")


#: The beacon-store eviction policy each algorithm name pairs with: the
#: diversity algorithm with the diversity-preserving store, the baseline
#: with the production shortest-path policy.
ALGORITHM_EVICTION = {"baseline": "shortest", "diversity": "diverse"}


@dataclass
class BeaconServerSim:
    """The simulated beacon-server state of one AS."""

    asn: int
    store: BeaconStore
    algorithm: PathConstructionAlgorithm
    egress_links: List[Link] = field(default_factory=list)
    originates: bool = False


class BeaconingSimulation:
    """Runs one beaconing process over a topology and collects metrics."""

    #: Class-level default: ``__getstate__`` drops ``obs``, so a simulation
    #: restored from a warm snapshot (like a fresh one with no bundle
    #: attached) falls back to the no-op bundle until ``attach_telemetry``.
    obs: Telemetry = NULL_TELEMETRY

    #: Whether :meth:`step` emits the per-interval trace span and the
    #: ``beaconing.intervals`` counter. Shard workers set this False — the
    #: shard coordinator emits them exactly once per *global* interval so
    #: sharded and single-process telemetry stay byte-identical.
    _interval_telemetry: bool = True

    def __init__(
        self,
        topology: Topology,
        algorithm_factory: AlgorithmFactory,
        config: Optional[BeaconingConfig] = None,
        *,
        obs: Optional[Telemetry] = None,
    ) -> None:
        if obs is not None:
            self.obs = obs
        self.topology = topology
        self.config = config or BeaconingConfig()
        self.metrics = TrafficMetrics()
        self.now = 0.0
        self.intervals_run = 0
        self._failed_links: set = set()
        self._failed_ases: set = set()
        self._in_flight: List[Transmission] = []
        self.servers: Dict[int, BeaconServerSim] = {}
        #: Optional deterministic message-loss model consulted at delivery:
        #: ``loss_model(transmission, interval) -> bool`` (True = drop).
        self.loss_model: Optional[Callable[[Transmission, int], bool]] = None
        #: Beacons dropped by the loss model since construction.
        self.pcbs_lost = 0
        self._factory = algorithm_factory
        self._build_servers(algorithm_factory)

    # --------------------------------------------------------------- setup

    def _build_servers(self, factory: AlgorithmFactory) -> None:
        mode = self.config.mode
        for node in self.topology.ases():
            # Core beaconing runs among core ASes only; intra-ISD beaconing
            # involves every AS of the ISD (leaves receive but never send).
            if mode is BeaconingMode.CORE and not node.is_core:
                continue
            egress = self._egress_links(node.asn)
            self.servers[node.asn] = BeaconServerSim(
                asn=node.asn,
                store=BeaconStore(
                    self.config.storage_limit,
                    eviction_policy=self.config.eviction_policy,
                ),
                algorithm=factory(node.asn, self.topology),
                egress_links=egress,
                originates=node.is_core,
            )
        if not any(server.originates for server in self.servers.values()):
            raise ValueError(
                "no core AS in topology: nothing would originate beacons"
            )

    def _egress_links(self, asn: int) -> List[Link]:
        links: List[Link] = []
        for link in self.topology.as_node(asn).links():
            if self.config.mode is BeaconingMode.CORE:
                if link.relationship is Relationship.CORE:
                    links.append(link)
            else:
                # Intra-ISD beaconing forwards only provider -> customer.
                if link.is_provider(asn):
                    links.append(link)
        links.sort(key=lambda l: l.link_id)
        return links

    # ----------------------------------------------------------------- run

    def run(self) -> "BeaconingSimulation":
        """Run all intervals of the configured duration."""
        for _ in range(self.config.num_intervals):
            self.step()
        self._deliver()
        return self

    def reset_metrics(self) -> TrafficMetrics:
        """Discard traffic counters (e.g. after a warm-up phase) and return
        the metrics object that will collect the next window."""
        self.metrics = TrafficMetrics()
        return self.metrics

    def run_intervals(self, count: int) -> "BeaconingSimulation":
        """Run exactly ``count`` beaconing intervals."""
        for _ in range(count):
            self.step()
        return self

    def attach_telemetry(self, obs: Telemetry) -> None:
        """Attach (or replace) the telemetry bundle — e.g. after loading a
        warm snapshot, so only the measured window is counted."""
        self.obs = obs

    def __getstate__(self) -> dict:
        # Telemetry never travels with warm-state snapshots: a cached
        # simulation must not resurrect a stale recorder, and the cache
        # key deliberately ignores observability settings.
        state = self.__dict__.copy()
        state.pop("obs", None)
        return state

    def step(self) -> None:
        """One beaconing interval: deliver, originate, select-and-send."""
        obs = self.obs
        if not obs.enabled:
            self._step_inner()
            return
        pcbs_before = self.metrics.total_pcbs
        bytes_before = self.metrics.total_bytes
        lost_before = self.pcbs_lost
        mode = self.config.mode.value
        if self._interval_telemetry:
            with obs.causal.span(
                "beaconing", "interval", mode=mode, interval=self.intervals_run
            ):
                self._step_inner()
        else:
            self._step_inner()
        labels = {"mode": mode}
        metrics = obs.metrics
        if self._interval_telemetry:
            metrics.counter("beaconing.intervals", labels).inc()
        metrics.counter("beaconing.pcbs_disseminated", labels).inc(
            self.metrics.total_pcbs - pcbs_before
        )
        metrics.counter("beaconing.bytes_sent", labels).inc(
            self.metrics.total_bytes - bytes_before
        )
        lost = self.pcbs_lost - lost_before
        if lost:
            metrics.counter("beaconing.pcbs_lost", labels).inc(lost)

    def _step_inner(self) -> None:
        self._deliver()
        self._originate()
        for asn in sorted(self.servers):
            if asn in self._failed_ases:
                continue
            server = self.servers[asn]
            if not server.egress_links:
                continue
            transmissions = server.algorithm.select(
                server.store, server.egress_links, self.now
            )
            for transmission in transmissions:
                self.metrics.record(transmission)
            self._in_flight.extend(transmissions)
        self.now += self.config.interval
        self.intervals_run += 1

    def _deliver(self) -> None:
        for transmission in self._in_flight:
            if transmission.receiver in self._failed_ases:
                continue
            if self.loss_model is not None and self.loss_model(
                transmission, self.intervals_run
            ):
                self.pcbs_lost += 1
                continue
            receiver = self.servers.get(transmission.receiver)
            if receiver is not None:
                receiver.store.insert(transmission.pcb, self.now)
        self._in_flight = []

    def _originate(self) -> None:
        for server in self.servers.values():
            if server.originates and server.asn not in self._failed_ases:
                pcb = PCB.originate(
                    server.asn, self.now, self.config.pcb_lifetime
                )
                server.store.insert(pcb, self.now)

    # ------------------------------------------------------------ failures

    def fail_link(self, link_id: int) -> int:
        """Fail an inter-domain link mid-simulation.

        The two reactions of §4.1 at beaconing level: the link disappears
        from every beacon server's egress set, and stored beacons crossing
        it are revoked (dropped), so subsequent intervals re-explore around
        the failure. Stateful algorithms are notified so their sent-path
        bookkeeping does not suppress re-dissemination after recovery.
        Returns the number of beacons revoked.
        """
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "fail_link", link_id=link_id, interval=self.intervals_run
        )
        return self._fail_link_impl(link_id)

    def _fail_link_impl(self, link_id: int) -> int:
        """Validation-free core of :meth:`fail_link`. Shard workers apply
        remote failures through this path — the link may not exist in the
        worker's halo topology, but stored beacons crossing it still must
        be revoked everywhere."""
        self._failed_links.add(link_id)
        revoked = 0
        for server in self.servers.values():
            revoked += server.store.remove_crossing(link_id)
            server.algorithm.on_link_revoked(link_id)
        self._in_flight = [
            t
            for t in self._in_flight
            if link_id not in t.pcb.link_ids()
        ]
        self._refresh_egress()
        return revoked

    def recover_link(self, link_id: int) -> None:
        """Bring a previously failed link back into service.

        The link reappears in the egress sets it belongs to; subsequent
        intervals re-disseminate across it (stores refill hop by hop from
        the origins, one interval per AS hop).
        """
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "recover_link", link_id=link_id,
            interval=self.intervals_run,
        )
        self._recover_link_impl(link_id)

    def _recover_link_impl(self, link_id: int) -> None:
        self._failed_links.discard(link_id)
        self._refresh_egress()

    def fail_as(self, asn: int) -> int:
        """Take an entire AS out of service (§5.3's partial-outage view).

        The AS stops originating and propagating, every link incident to
        it disappears from its neighbors' egress sets, its own beacon
        store is wiped (the beacon-server process is gone), and beacons
        whose path visits the AS are revoked everywhere — each of its
        links is effectively failed. Returns the number of beacons revoked.
        """
        self.topology.as_node(asn)  # validate the asn
        return self._fail_as_impl(asn, self.topology.incident_link_ids(asn))

    def _fail_as_impl(self, asn: int, incident: Sequence[int]) -> int:
        """Validation-free core of :meth:`fail_as`. ``incident`` is the
        failed AS's incident link-id set, supplied by the caller because a
        shard worker's halo topology may not contain the AS at all."""
        if asn in self._failed_ases:
            return 0
        self._failed_ases.add(asn)
        revoked = 0
        for server in self.servers.values():
            if server.asn == asn:
                revoked += server.store.clear()
            else:
                revoked += server.store.remove_traversing_as(asn)
            for link_id in incident:
                server.algorithm.on_link_revoked(link_id)
        self._in_flight = [
            t
            for t in self._in_flight
            if t.sender != asn
            and t.receiver != asn
            and not t.pcb.contains_as(asn)
        ]
        self._refresh_egress()
        return revoked

    def recover_as(self, asn: int) -> None:
        """Restart a failed AS with a fresh beacon server.

        Store and algorithm state are rebuilt from scratch (a process
        restart keeps no in-memory state); its links return to service
        unless individually failed.
        """
        self.topology.as_node(asn)  # validate the asn
        self._recover_as_impl(asn)

    def _recover_as_impl(self, asn: int) -> None:
        if asn not in self._failed_ases:
            return
        self._failed_ases.discard(asn)
        server = self.servers.get(asn)
        if server is not None:
            server.store = BeaconStore(
                self.config.storage_limit,
                eviction_policy=self.config.eviction_policy,
            )
            server.algorithm = self._factory(asn, self.topology)
        self._refresh_egress()

    def _refresh_egress(self) -> None:
        """Recompute every server's egress set from the topology, minus
        failed links and links terminating at failed ASes."""
        for server in self.servers.values():
            server.egress_links = [
                link
                for link in self._egress_links(server.asn)
                if link.link_id not in self._failed_links
                and link.other(server.asn) not in self._failed_ases
            ]

    def failed_links(self) -> List[int]:
        return sorted(self._failed_links)

    def failed_ases(self) -> List[int]:
        return sorted(self._failed_ases)

    # ------------------------------------------------------------- queries

    @property
    def end_time(self) -> float:
        return self.now

    def paths_at(self, asn: int, origin: int) -> List[PCB]:
        """Disseminated beacons from ``origin`` stored at ``asn``, valid as
        of the last executed beaconing interval."""
        server = self.servers.get(asn)
        if server is None:
            return []
        last_interval = max(0.0, self.now - self.config.interval)
        return server.store.beacons(origin, now=last_interval)

    def directed_interfaces(self) -> List[tuple]:
        """The full directed-interface set of this beaconing process:
        every ``(link_id, sender)`` a participant could send a beacon on
        (egress links of every server), whether or not it saw traffic.
        Failed links are excluded. This is the interface population that
        per-interface bandwidth distributions (Figure 9) cover."""
        keys = {
            (link.link_id, server.asn)
            for server in self.servers.values()
            for link in server.egress_links
        }
        return sorted(keys)

    def participant_asns(self) -> List[int]:
        return sorted(self.servers)

    def originator_asns(self) -> List[int]:
        return sorted(
            asn for asn, server in self.servers.items() if server.originates
        )
