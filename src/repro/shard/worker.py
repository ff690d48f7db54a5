"""Shard-local beaconing simulation and the shard worker process body.

A :class:`ShardSimulation` is a :class:`~repro.simulation.beaconing.
BeaconingSimulation` restricted to the ASes a shard *owns*, running over
the shard's halo topology (owned ASes plus their direct neighbors as
ghost endpoints). Owned servers therefore see exactly the egress link
sets they would in a single-process run; transmissions whose receiver is
remote are handed to the cross-shard plane instead of being delivered
locally.

The same command dispatch (:func:`dispatch`) backs both execution modes:
the coordinator calls it directly for serial (in-process) shards, and
:func:`shard_worker_main` runs it behind a ``multiprocessing.Pipe`` for
process shards — one code path, byte-identical behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.beacon_store import BeaconStore
from ..core.policy import Transmission
from ..obs import Telemetry
from ..obs.context import TraceContext
from ..simulation.beaconing import (
    AlgorithmFactory,
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    BeaconServerSim,
)
from ..simulation.metrics import TrafficMetrics
from ..topology.model import Topology
from .plane import AS_DOWN, AS_UP, LINK_DOWN, LINK_UP, FaultDirective, PlaneMessage

__all__ = [
    "ShardSimulation",
    "ShardHostConfig",
    "ShardReport",
    "dispatch",
    "shard_worker_main",
]


class ShardSimulation(BeaconingSimulation):
    """One shard's beaconing over its halo topology.

    Differences from the base simulation, all in service of the
    determinism contract:

    * only *owned* ASes get beacon servers (ghost neighbors are pure link
      endpoints), and the "no core AS" origination check is skipped — the
      coordinator validates it globally;
    * the per-interval trace span and ``beaconing.intervals`` counter are
      suppressed (``_interval_telemetry``): the coordinator emits them
      once per global interval;
    * fault handling goes through the validation-free ``*_impl`` hooks so
      remote links/ASes absent from the halo are still revoked from
      stores and algorithm state.
    """

    _interval_telemetry = False

    #: Which shard of the plan this simulation is; set by
    #: :meth:`ShardHostConfig.build`.
    shard_index: int = -1
    #: ``(parent context, coordinator-clock time)`` at which telemetry
    #: attached — where this shard's span hangs and starts (``None``
    #: until it joins a trace).
    trace_join: Optional[Tuple[TraceContext, float]] = None
    #: Whether this shard owns its telemetry bundle (process mode) and
    #: must ship causal spans back in its report; serial shards record
    #: into the coordinator's tracer directly.
    _own_telemetry: bool = False

    def __init__(
        self,
        topology: Topology,
        algorithm_factory: AlgorithmFactory,
        config: Optional[BeaconingConfig] = None,
        *,
        owned: Sequence[int],
        obs: Optional[Telemetry] = None,
    ) -> None:
        self._owned = frozenset(owned)
        self._held: List[Tuple[int, int, int, Transmission]] = []
        super().__init__(topology, algorithm_factory, config, obs=obs)

    def _build_servers(self, factory: AlgorithmFactory) -> None:
        mode = self.config.mode
        for node in self.topology.ases():
            if node.asn not in self._owned:
                continue
            if mode is BeaconingMode.CORE and not node.is_core:
                continue
            self.servers[node.asn] = BeaconServerSim(
                asn=node.asn,
                store=BeaconStore(
                    self.config.storage_limit,
                    eviction_policy=self.config.eviction_policy,
                ),
                algorithm=factory(node.asn, self.topology),
                egress_links=self._egress_links(node.asn),
                originates=node.is_core,
            )
        # No "no core AS" origination check here: a leaf-only shard is
        # legitimate — the coordinator validates origination globally.

    # ------------------------------------------------------ plane exchange

    def drain_boundary(self) -> List[PlaneMessage]:
        """Split this interval's transmissions: keep locally-received ones
        (tagged with their canonical key), return the boundary ones.

        The per-sender ``seq`` is assigned walking ``_in_flight``, which
        the select loop filled sender-by-sender in ascending ASN order —
        so ``(src, seq)`` reproduces the single-process emission order.
        """
        interval = self.intervals_run
        outgoing: List[PlaneMessage] = []
        held: List[Tuple[int, int, int, Transmission]] = []
        seq: Dict[int, int] = {}
        for transmission in self._in_flight:
            index = seq.get(transmission.sender, 0)
            seq[transmission.sender] = index + 1
            if transmission.receiver in self._owned:
                held.append(
                    (
                        transmission.sender,
                        index,
                        transmission.link.link_id,
                        transmission,
                    )
                )
            else:
                outgoing.append(
                    PlaneMessage(
                        interval=interval,
                        src=transmission.sender,
                        seq=index,
                        link_id=transmission.link.link_id,
                        receiver=transmission.receiver,
                        pcb=transmission.pcb,
                    )
                )
        self._held = held
        self._in_flight = []
        return outgoing

    def ingest_boundary(self, inbound: Sequence[PlaneMessage]) -> None:
        """Merge routed-in boundary messages with the held local ones into
        ``_in_flight``, in canonical delivery order.

        A sender's transmissions never split across source shards, so
        sorting the union by ``(src, seq, link_id)`` reconstructs exactly
        the single-process ``_in_flight`` order — which the next
        interval's ``_deliver`` turns into identical per-store insertion
        sequences (and identical eviction decisions).
        """
        entries = self._held
        self._held = []
        for message in inbound:
            entries.append(
                (
                    message.src,
                    message.seq,
                    message.link_id,
                    Transmission(
                        pcb=message.pcb,
                        link=self.topology.link(message.link_id),
                        sender=message.src,
                        receiver=message.receiver,
                    ),
                )
            )
        entries.sort(key=lambda entry: entry[:3])
        self._in_flight = [entry[3] for entry in entries]

    # -------------------------------------------------------------- faults

    def apply_directive(self, directive: FaultDirective) -> int:
        """Apply a broadcast fault directive; returns beacons revoked
        locally. Targets may be absent from the halo topology — stores
        and algorithm state still reference them."""
        if directive.kind == LINK_DOWN:
            return self._fail_link_impl(directive.target)
        if directive.kind == LINK_UP:
            self._recover_link_impl(directive.target)
            return 0
        if directive.kind == AS_DOWN:
            return self._fail_as_impl(
                directive.target, directive.incident_link_ids
            )
        if directive.kind == AS_UP:
            self._recover_as_impl(directive.target)
            return 0
        raise ValueError(f"unknown fault directive kind {directive.kind!r}")


@dataclass
class ShardHostConfig:
    """Everything needed to build (or restore) one shard's simulation."""

    index: int
    topology: Topology
    owned: Tuple[int, ...]
    factory: AlgorithmFactory
    config: BeaconingConfig
    #: A warm-state snapshot of the shard simulation, when restoring.
    state: Optional[ShardSimulation] = None

    def build(self) -> ShardSimulation:
        if self.state is not None:
            sim = self.state
        else:
            sim = ShardSimulation(
                self.topology, self.factory, self.config, owned=self.owned
            )
        sim.shard_index = self.index
        return sim


@dataclass
class ShardReport:
    """End-of-run collection shipped from a shard to the coordinator."""

    index: int
    metrics: TrafficMetrics
    directed_interfaces: List[tuple]
    participant_asns: List[int]
    originator_asns: List[int]
    pcbs_lost: int
    intervals_run: int
    #: Worker-side telemetry registry snapshot (process mode only; serial
    #: shards write into the coordinator's registry directly).
    metrics_snapshot: Optional[Dict] = None
    #: Worker-side causal spans (process mode only, same reasoning).
    causal: Optional[List] = None


def dispatch(sim: ShardSimulation, command: str, payload: Any) -> Any:
    """Execute one coordinator command against a shard simulation."""
    if command == "step":
        sim.step()
        return sim.drain_boundary()
    if command == "ingest":
        sim.ingest_boundary(payload)
        return None
    if command == "deliver":
        sim._deliver()
        return None
    if command == "fault":
        return sim.apply_directive(payload)
    if command == "loss":
        sim.loss_model = payload
        return None
    if command == "paths":
        asn, origin = payload
        return sim.paths_at(asn, origin)
    if command == "pcbs_lost":
        return sim.pcbs_lost
    if command == "metrics":
        return sim.metrics
    if command == "interfaces":
        return sim.directed_interfaces()
    if command == "participants":
        return (sim.participant_asns(), sim.originator_asns())
    if command == "reset_metrics":
        sim.reset_metrics()
        return None
    if command == "telemetry":
        # ``{"labels": ..., "trace": {"seed", "parent", "t0"}}``. The
        # optional trace block joins this shard to the coordinator's
        # trace: span ids mint under a per-shard salt and times come
        # stamped with the coordinator's clock, so process mode
        # reproduces the serial shards' spans byte for byte.
        trace = payload.get("trace")
        tel = Telemetry.collecting(labels=payload["labels"])
        if trace is not None:
            tel.causal.configure(
                seed=trace["seed"],
                salt=f"s{sim.shard_index}",
                worker=f"shard{sim.shard_index}",
            )
            tel.causal.current = TraceContext.from_wire(trace["parent"])
            sim.trace_join = (tel.causal.current, trace["t0"])
        sim._own_telemetry = True
        sim.attach_telemetry(tel)
        return None
    if command == "snapshot":
        return sim
    if command == "collect":
        snapshot = None
        causal = None
        if sim.obs.metrics.enabled:
            snapshot = sim.obs.metrics.snapshot()
        tracer = sim.obs.causal
        if tracer.enabled and sim.trace_join is not None:
            parent, t0 = sim.trace_join
            t1 = t0
            if isinstance(payload, dict) and "t1" in payload:
                t1 = payload["t1"]
            tracer.record(
                parent,
                "shard",
                f"shard:{sim.shard_index}",
                t0,
                t1,
                salt=f"s{sim.shard_index}",
                worker=f"shard{sim.shard_index}",
                intervals=sim.intervals_run,
                pcbs_lost=sim.pcbs_lost,
            )
            if sim._own_telemetry:
                causal = tracer.export()
        return ShardReport(
            index=sim.shard_index,
            metrics=sim.metrics,
            directed_interfaces=sim.directed_interfaces(),
            participant_asns=sim.participant_asns(),
            originator_asns=sim.originator_asns(),
            pcbs_lost=sim.pcbs_lost,
            intervals_run=sim.intervals_run,
            metrics_snapshot=snapshot,
            causal=causal,
        )
    raise ValueError(f"unknown shard command {command!r}")


def shard_worker_main(conn, host: ShardHostConfig) -> None:
    """Process-mode worker loop: build the shard, serve commands until
    ``stop``. Every command gets exactly one ``(status, value)`` reply so
    the pipe never desynchronises; errors are shipped back as strings."""
    import traceback

    try:
        sim = host.build()
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            break
        if command == "stop":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", dispatch(sim, command, payload)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()
