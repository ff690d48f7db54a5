"""Interval-lockstep coordinator for sharded beaconing.

:class:`ShardedBeaconing` presents the same surface as
:class:`~repro.simulation.beaconing.BeaconingSimulation` — ``step``/
``run``, the failure API, telemetry attachment and the metric queries —
so the fault injector and the experiment runtime drive it unchanged. Each
global interval it:

1. steps every shard (concurrently in process mode) and drains their
   boundary transmissions,
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

import multiprocessing
from typing import Callable, List, Optional, Sequence

from ..core.pcb import PCB
from ..core.policy import Transmission
from ..obs import NULL_TELEMETRY, Telemetry
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
from .worker import (
    ShardHostConfig,
    ShardReport,
    ShardSimulation,
    dispatch,
    shard_worker_main,
)

__all__ = ["ShardedBeaconing"]


class _SerialShard:
    """In-process shard handle; start/finish execute synchronously."""

    def __init__(self, host: ShardHostConfig) -> None:
        self.sim = host.build()
        self._pending = None

    def start(self, command: str, payload=None) -> None:
        self._pending = dispatch(self.sim, command, payload)

    def finish(self):
        value, self._pending = self._pending, None
        return value

    def call(self, command: str, payload=None):
        self.start(command, payload)
        return self.finish()

    def stop(self) -> None:
        pass


class _ProcessShard:
    """Shard handle backed by a worker process over a pipe. ``start`` on
    every handle before ``finish`` on any is what runs shards in
    parallel within one interval."""

    def __init__(self, host: ShardHostConfig, ctx) -> None:
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=shard_worker_main, args=(child, host), daemon=True
        )
        self._proc.start()
        child.close()

    def start(self, command: str, payload=None) -> None:
        self._conn.send((command, payload))

    def finish(self):
        status, value = self._conn.recv()
        if status != "ok":
            raise RuntimeError(f"shard worker failed:\n{value}")
        return value

    def call(self, command: str, payload=None):
        self.start(command, payload)
        return self.finish()

    def stop(self) -> None:
        try:
            self.call("stop")
        except (OSError, EOFError, RuntimeError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()


class ShardedBeaconing:
    """Sharded drop-in for :class:`BeaconingSimulation`.

    ``processes=False`` runs every shard in-process in lockstep (useful
    for testing the plane and for ``--jobs``-parallel runtimes where the
    cores are already busy); ``processes=True`` gives each shard its own
    worker process. Both modes produce byte-identical results — that is
    the point.

    In process mode ``algorithm_factory`` must be picklable (the built-in
    ``baseline_factory``/``diversity_factory`` objects are).
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
        self.topology = topology
        self.config = config or BeaconingConfig()
        self.obs: Telemetry = NULL_TELEMETRY
        self.plan = plan if plan is not None else partition_topology(
            topology, shards
        )
        self.processes = bool(processes)
        self._factory = algorithm_factory
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
        self._reports: Optional[List[ShardReport]] = None
        self._closed = False

        if initial_states is not None:
            if len(initial_states) != self.plan.num_shards:
                raise ValueError(
                    f"got {len(initial_states)} shard states for "
                    f"{self.plan.num_shards} shards"
                )
            self.now = initial_states[0].now
            self.intervals_run = initial_states[0].intervals_run

        hosts = [
            ShardHostConfig(
                index=index,
                topology=topology.subtopology(
                    self.plan.halo_asns(topology, index),
                    name=f"{topology.name}-shard{index}",
                ),
                owned=self.plan.members[index],
                factory=algorithm_factory,
                config=self.config,
                state=(
                    initial_states[index]
                    if initial_states is not None
                    else None
                ),
            )
            for index in range(self.plan.num_shards)
        ]
        if self.processes:
            ctx = multiprocessing.get_context()
            self._handles: List = [_ProcessShard(host, ctx) for host in hosts]
        else:
            self._handles = [_SerialShard(host) for host in hosts]
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
        handles = self._handles
        for handle in handles:
            handle.start("step")
        outgoing = [handle.finish() for handle in handles]
        for messages in outgoing:
            self._plane.route(messages)
        for index, handle in enumerate(handles):
            handle.start("ingest", self._plane.take(index))
        for handle in handles:
            handle.finish()

    def deliver_final(self) -> None:
        """Deliver the last interval's in-flight beacons (the equivalent
        of the single-process ``run()``'s trailing ``_deliver``)."""
        self._broadcast("deliver")
        self._metrics_cache = None

    def _broadcast(self, command: str, payload=None) -> List:
        for handle in self._handles:
            handle.start(command, payload)
        return [handle.finish() for handle in self._handles]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBeaconing is closed")

    # ------------------------------------------------------------ telemetry

    def attach_telemetry(self, obs: Telemetry) -> None:
        """Attach the telemetry bundle. Serial shards write into the
        coordinator's registry directly; process shards get their own
        registry with the same constant labels, merged commutatively at
        :meth:`close` — byte-identical either way.

        When the bundle carries an active causal trace, shards join it:
        each records one ``shard:{index}`` span spanning attach→collect,
        with both endpoints stamped here from the coordinator's clock so
        serial and process shards produce identical spans."""
        self.obs = obs
        causal = obs.causal
        joining = causal.enabled and causal.current is not None
        if self.processes:
            if obs.metrics.enabled:
                payload = {"labels": dict(obs.metrics.const_labels)}
                if joining:
                    payload["trace"] = {
                        "seed": causal.seed,
                        "parent": causal.current.to_wire(),
                        "t0": causal.now(),
                    }
                self._broadcast("telemetry", payload)
        else:
            if joining:
                join = (causal.current, causal.now())
                for handle in self._handles:
                    handle.sim.trace_join = join
            for handle in self._handles:
                handle.sim.attach_telemetry(obs)

    # ------------------------------------------------------------ failures

    def fail_link(self, link_id: int) -> int:
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "fail_link", link_id=link_id,
            interval=self.intervals_run,
        )
        self._failed_links.add(link_id)
        return sum(
            self._broadcast("fault", FaultDirective(LINK_DOWN, link_id))
        )

    def recover_link(self, link_id: int) -> None:
        self.topology.link(link_id)  # validate the id
        self.obs.causal.instant(
            "beaconing", "recover_link", link_id=link_id,
            interval=self.intervals_run,
        )
        self._failed_links.discard(link_id)
        self._broadcast("fault", FaultDirective(LINK_UP, link_id))

    def fail_as(self, asn: int) -> int:
        self.topology.as_node(asn)  # validate the asn
        if asn in self._failed_ases:
            return 0
        # Incident links come from the full topology: the shards' halos
        # may not contain the AS, but their stores/algorithms still hold
        # state crossing its links.
        incident = self.topology.incident_link_ids(asn)
        self._failed_ases.add(asn)
        return sum(
            self._broadcast("fault", FaultDirective(AS_DOWN, asn, incident))
        )

    def recover_as(self, asn: int) -> None:
        self.topology.as_node(asn)  # validate the asn
        if asn not in self._failed_ases:
            return
        self._failed_ases.discard(asn)
        self._broadcast("fault", FaultDirective(AS_UP, asn))

    def failed_links(self) -> List[int]:
        return sorted(self._failed_links)

    def failed_ases(self) -> List[int]:
        return sorted(self._failed_ases)

    @property
    def loss_model(self):
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model) -> None:
        self._loss_model = model
        self._broadcast("loss", model)

    # ------------------------------------------------------------- queries

    @property
    def end_time(self) -> float:
        return self.now

    @property
    def pcbs_lost(self) -> int:
        if self._reports is not None:
            return sum(report.pcbs_lost for report in self._reports)
        return sum(self._broadcast("pcbs_lost"))

    @property
    def metrics(self) -> TrafficMetrics:
        if self._metrics_cache is None:
            merged = TrafficMetrics()
            if self._reports is not None:
                parts = [report.metrics for report in self._reports]
            else:
                parts = self._broadcast("metrics")
            for part in parts:
                merged.merge(part)
            merged.canonicalize()
            self._metrics_cache = merged
        return self._metrics_cache

    def reset_metrics(self) -> TrafficMetrics:
        self._check_open()
        self._broadcast("reset_metrics")
        self._metrics_cache = None
        return self.metrics

    def paths_at(self, asn: int, origin: int) -> List[PCB]:
        shard = self.plan.assignment.get(asn)
        if shard is None:
            return []
        self._check_open()
        return self._handles[shard].call("paths", (asn, origin))

    def directed_interfaces(self) -> List[tuple]:
        if self._reports is not None:
            parts = [report.directed_interfaces for report in self._reports]
        else:
            parts = self._broadcast("interfaces")
        keys = set()
        for part in parts:
            keys.update(part)
        return sorted(keys)

    def participant_asns(self) -> List[int]:
        return sorted(self._gather_participants()[0])

    def originator_asns(self) -> List[int]:
        return sorted(self._gather_participants()[1])

    def _gather_participants(self):
        participants: List[int] = []
        originators: List[int] = []
        if self._reports is not None:
            for report in self._reports:
                participants.extend(report.participant_asns)
                originators.extend(report.originator_asns)
        else:
            for part, orig in self._broadcast("participants"):
                participants.extend(part)
                originators.extend(orig)
        return participants, originators

    # ------------------------------------------------------------ lifecycle

    def snapshot_states(self) -> List[ShardSimulation]:
        """Per-shard simulation snapshots for the warm-state cache (the
        sharded analogue of pickling the whole single-process sim)."""
        self._check_open()
        return self._broadcast("snapshot")

    def close(self) -> None:
        """Collect final per-shard reports, merge process-mode telemetry
        into the coordinator registry, and stop workers. Metric queries
        keep answering from the collected reports; ``step``/``paths_at``
        do not. Idempotent."""
        if self._closed:
            return
        collect_payload = None
        if self.obs.causal.enabled:
            collect_payload = {"t1": self.obs.causal.now()}
        self._reports = self._broadcast("collect", collect_payload)
        if self.processes and self.obs.metrics.enabled:
            for report in self._reports:
                if report.metrics_snapshot:
                    self.obs.metrics.merge_snapshot(report.metrics_snapshot)
                if report.causal:
                    self.obs.causal.extend(report.causal)
        for handle in self._handles:
            handle.stop()
        self._closed = True
        self._metrics_cache = None

    def __enter__(self) -> "ShardedBeaconing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
