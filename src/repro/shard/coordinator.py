"""Interval-lockstep coordinator for sharded beaconing.

:class:`ShardedBeaconing` presents the same surface as
:class:`~repro.simulation.beaconing.BeaconingSimulation` — ``step``/
``run``, the failure API, telemetry attachment and the metric queries —
so the fault injector and the experiment runtime drive it unchanged. Each
global interval it:

1. steps every shard in turn and drains its boundary transmissions,
2. routes them through the :class:`~repro.shard.plane.MessagePlane`,
3. hands each shard its inbound messages in canonical delivery order.

Between coordinator steps every shard's ``_in_flight`` is therefore fully
reassembled, which is what lets fault events applied *between* intervals
(the injector's contract) behave identically to the single-process run.

Determinism contract: for any shard count, ``metrics``/``paths_at``/
telemetry counters are byte-identical to a plain ``BeaconingSimulation``
on the same topology. See ``plane.py`` for why canonical ordering is
sufficient, and ``DESIGN.md`` for the full argument.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.pcb import PCB
from ..core.policy import Transmission
from ..obs import NULL_TELEMETRY, Telemetry
from ..obs.context import TraceContext
from ..simulation.beaconing import AlgorithmFactory, BeaconingConfig
from ..simulation.metrics import TrafficMetrics
from ..topology.model import Topology
from .partition import ShardPlan, partition_topology
from .plane import (
    AS_DOWN,
    AS_UP,
    LINK_DOWN,
    LINK_UP,
    FaultDirective,
    MessagePlane,
)
from .worker import ShardSimulation

__all__ = ["ShardedBeaconing"]


class ShardedBeaconing:
    """Sharded drop-in for :class:`BeaconingSimulation`: every shard's
    :class:`ShardSimulation` runs in this process, in lockstep.

    ``processes`` accepts only ``False``; the process-per-shard mode was
    removed.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm_factory: AlgorithmFactory,
        config: Optional[BeaconingConfig] = None,
        *,
        shards: int = 1,
        processes: bool = False,
        plan: Optional[ShardPlan] = None,
        obs: Optional[Telemetry] = None,
        initial_states: Optional[Sequence[ShardSimulation]] = None,
    ) -> None:
        if processes:
            raise ValueError(
                "process shards were removed: shards run in-process "
                "(processes=False)"
            )
        self.topology = topology
        self.config = config or BeaconingConfig()
        self.obs: Telemetry = NULL_TELEMETRY
        self.plan = plan if plan is not None else partition_topology(
            topology, shards
        )
        if not any(node.is_core for node in topology.ases()):
            # Mirror the single-process constructor's validation, which a
            # per-shard build skips (a leaf-only shard is legitimate).
            raise ValueError(
                "no core AS in topology: nothing would originate beacons"
            )
        self.now = 0.0
        self.intervals_run = 0
        self._failed_links: set = set()
        self._failed_ases: set = set()
        self._loss_model: Optional[Callable[[Transmission, int], bool]] = None
        self._plane = MessagePlane(
            shard_of=self.plan.assignment, num_shards=self.plan.num_shards
        )
        self._metrics_cache: Optional[TrafficMetrics] = None
        #: ``(parent context, coordinator-clock time)`` at which the shards
        #: joined a trace: where their ``shard:{index}`` spans hang and
        #: start (``None`` until telemetry with an active trace attaches).
        self._trace_join: Optional[Tuple[TraceContext, float]] = None
        self._closed = False

        if initial_states is not None:
            if len(initial_states) != self.plan.num_shards:
                raise ValueError(
                    f"got {len(initial_states)} shard states for "
                    f"{self.plan.num_shards} shards"
                )
            self.now = initial_states[0].now
            self.intervals_run = initial_states[0].intervals_run
            self._shards: List[ShardSimulation] = list(initial_states)
        else:
            self._shards = [
                ShardSimulation(
                    topology.subtopology(
                        self.plan.halo_asns(topology, index),
                        name=f"{topology.name}-shard{index}",
                    ),
                    algorithm_factory,
                    self.config,
                    owned=self.plan.members[index],
                )
                for index in range(self.plan.num_shards)
            ]
        for index, sim in enumerate(self._shards):
            sim.shard_index = index
        if obs is not None:
            self.attach_telemetry(obs)

    # ----------------------------------------------------------------- run

    def run(self) -> "ShardedBeaconing":
        """Run all intervals of the configured duration."""
        for _ in range(self.config.num_intervals):
            self.step()
        self.deliver_final()
        return self

    def run_intervals(self, count: int) -> "ShardedBeaconing":
        for _ in range(count):
            self.step()
        return self

    def step(self) -> None:
        """One global beaconing interval across all shards."""
        self._check_open()
        obs = self.obs
        if obs.enabled:
            mode = self.config.mode.value
            with obs.causal.span(
                "beaconing", "interval", mode=mode, interval=self.intervals_run
            ):
                self._advance()
            obs.metrics.counter("beaconing.intervals", {"mode": mode}).inc()
        else:
            self._advance()
        self.now += self.config.interval
        self.intervals_run += 1
        self._metrics_cache = None

    def _advance(self) -> None:
        outgoing = []
        for sim in self._shards:
            sim.step()
            outgoing.append(sim.drain_boundary())
        for messages in outgoing:
            self._plane.route(messages)
        for index, sim in enumerate(self._shards):
            sim.ingest_boundary(self._plane.take(index))

    def deliver_final(self) -> None:
        """Deliver the last interval's in-flight beacons (the equivalent
        of the single-process ``run()``'s trailing ``_deliver``)."""
        self._check_open()
        for sim in self._shards:
            sim._deliver()
        self._metrics_cache = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBeaconing is closed")

    # ------------------------------------------------------------ telemetry

    def attach_telemetry(self, obs: Telemetry) -> None:
        """Attach the telemetry bundle; the shards write into it directly.

        When the bundle carries an active causal trace, shards join it:
        each records one ``shard:{index}`` span from here to
        :meth:`close`."""
        self.obs = obs
        causal = obs.causal
        if causal.enabled and causal.current is not None:
            self._trace_join = (causal.current, causal.now())
        for sim in self._shards:
            sim.attach_telemetry(obs)

    # ------------------------------------------------------------ failures

    def _fault(self, directive: FaultDirective) -> int:
        return sum(sim.apply_directive(directive) for sim in self._shards)

    def fail_link(self, link_id: int) -> int:
        self._check_open()
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "fail_link", link_id=link_id,
            interval=self.intervals_run,
        )
        self._failed_links.add(link_id)
        return self._fault(FaultDirective(LINK_DOWN, link_id))

    def recover_link(self, link_id: int) -> None:
        self._check_open()
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "recover_link", link_id=link_id,
            interval=self.intervals_run,
        )
        self._failed_links.discard(link_id)
        self._fault(FaultDirective(LINK_UP, link_id))

    def fail_as(self, asn: int) -> int:
        self._check_open()
        self.topology.as_node(asn)  # validate the asn
        if asn in self._failed_ases:
            return 0
        # Incident links come from the full topology: the shards' halos
        # may not contain the AS, but their stores/algorithms still hold
        # state crossing its links.
        incident = self.topology.incident_link_ids(asn)
        self._failed_ases.add(asn)
        return self._fault(FaultDirective(AS_DOWN, asn, incident))

    def recover_as(self, asn: int) -> None:
        self._check_open()
        self.topology.as_node(asn)  # validate the asn
        if asn not in self._failed_ases:
            return
        self._failed_ases.discard(asn)
        self._fault(FaultDirective(AS_UP, asn))

    def failed_links(self) -> List[int]:
        return sorted(self._failed_links)

    def failed_ases(self) -> List[int]:
        return sorted(self._failed_ases)

    @property
    def loss_model(self):
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model) -> None:
        self._check_open()
        self._loss_model = model
        for sim in self._shards:
            sim.loss_model = model

    # ------------------------------------------------------------- queries

    @property
    def end_time(self) -> float:
        return self.now

    @property
    def pcbs_lost(self) -> int:
        return sum(sim.pcbs_lost for sim in self._shards)

    @property
    def metrics(self) -> TrafficMetrics:
        if self._metrics_cache is None:
            merged = TrafficMetrics()
            for sim in self._shards:
                merged.merge(sim.metrics)
            merged.canonicalize()
            self._metrics_cache = merged
        return self._metrics_cache

    def reset_metrics(self) -> TrafficMetrics:
        self._check_open()
        for sim in self._shards:
            sim.reset_metrics()
        self._metrics_cache = None
        return self.metrics

    def paths_at(self, asn: int, origin: int) -> List[PCB]:
        shard = self.plan.assignment.get(asn)
        if shard is None:
            return []
        self._check_open()
        return self._shards[shard].paths_at(asn, origin)

    def directed_interfaces(self) -> List[tuple]:
        keys = set()
        for sim in self._shards:
            keys.update(sim.directed_interfaces())
        return sorted(keys)

    def participant_asns(self) -> List[int]:
        return sorted(
            asn for sim in self._shards for asn in sim.participant_asns()
        )

    def originator_asns(self) -> List[int]:
        return sorted(
            asn for sim in self._shards for asn in sim.originator_asns()
        )

    # ------------------------------------------------------------ lifecycle

    def snapshot_states(self) -> List[ShardSimulation]:
        """Per-shard simulations for the warm-state cache (the sharded
        analogue of pickling the whole single-process sim)."""
        self._check_open()
        return list(self._shards)

    def close(self) -> None:
        """Record each shard's ``shard:{index}`` span when the shards
        joined a trace, and refuse every later ``step``, fault, loss-model
        change and ``paths_at``. The metric queries keep answering from
        the shard simulations. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._trace_join is not None:
            parent, t0 = self._trace_join
            t1 = self.obs.causal.now()
            for sim in self._shards:
                sim.record_span(parent, t0, t1)

    def __enter__(self) -> "ShardedBeaconing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
