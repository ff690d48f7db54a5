"""Shard-local beaconing simulation.

A :class:`ShardSimulation` is a :class:`~repro.simulation.beaconing.
BeaconingSimulation` restricted to the ASes a shard *owns*, running over
the shard's halo topology (owned ASes plus their direct neighbors as
ghost endpoints). Owned servers therefore see exactly the egress link
sets they would in a single-process run; transmissions whose receiver is
remote are handed to the cross-shard plane instead of being delivered
locally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.beacon_store import BeaconStore
from ..core.policy import Transmission
from ..obs.context import TraceContext
from ..simulation.beaconing import (
    AlgorithmFactory,
    BeaconingConfig,
    BeaconingMode,
    BeaconingSimulation,
    BeaconServerSim,
)
from ..topology.model import Topology
from .plane import AS_DOWN, AS_UP, LINK_DOWN, LINK_UP, FaultDirective, PlaneMessage

__all__ = ["ShardSimulation"]


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

    #: Which shard of the plan this simulation is; set by the
    #: coordinator.
    shard_index: int = -1

    def __init__(
        self,
        topology: Topology,
        algorithm_factory: AlgorithmFactory,
        config: Optional[BeaconingConfig] = None,
        *,
        owned: Sequence[int],
    ) -> None:
        self._owned = frozenset(owned)
        self._held: List[Tuple[int, int, int, Transmission]] = []
        super().__init__(topology, algorithm_factory, config)

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

    # ----------------------------------------------------------- telemetry

    def record_span(self, parent: TraceContext, t0: float, t1: float) -> None:
        """This shard's ``shard:{index}`` span under ``parent``, from
        telemetry attach (``t0``) to coordinator close (``t1``), both read
        on the coordinator's clock."""
        index = self.shard_index
        self.obs.causal.record(
            parent,
            "shard",
            f"shard:{index}",
            t0,
            t1,
            salt=f"s{index}",
            worker=f"shard{index}",
            intervals=self.intervals_run,
            pcbs_lost=self.pcbs_lost,
        )
