"""Interval-lockstep coordinator for sharded beaconing.

:class:`ShardedBeaconing` steps one :class:`ShardSimulation` per shard of
a :func:`~repro.shard.partition.partition_topology` plan. Each global
interval it:

1. steps every shard in turn and drains its boundary transmissions,
2. routes them through the :class:`~repro.shard.plane.MessagePlane`,
3. hands each shard its inbound messages in canonical delivery order.

Determinism contract: for any shard count, ``metrics`` and ``paths_at``
are byte-identical to a plain ``BeaconingSimulation`` on the same
topology. See ``plane.py`` for why canonical ordering is sufficient, and
``DESIGN.md`` for the full argument.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.pcb import PCB
from ..simulation.beaconing import AlgorithmFactory, BeaconingConfig
from ..simulation.metrics import TrafficMetrics
from ..topology.model import Topology
from .partition import partition_topology
from .plane import MessagePlane
from .worker import ShardSimulation

__all__ = ["ShardedBeaconing"]


class ShardedBeaconing:
    """Every shard's :class:`ShardSimulation` stepped in this process, in
    lockstep.

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
    ) -> None:
        if processes:
            raise ValueError(
                "process shards were removed: shards run in-process "
                "(processes=False)"
            )
        self.config = config or BeaconingConfig()
        self.plan = partition_topology(topology, shards)
        if not any(node.is_core for node in topology.ases()):
            # Mirror the single-process constructor's validation, which a
            # per-shard build skips (a leaf-only shard is legitimate).
            raise ValueError(
                "no core AS in topology: nothing would originate beacons"
            )
        self._plane = MessagePlane(
            shard_of=self.plan.assignment, num_shards=self.plan.num_shards
        )
        self._metrics_cache: Optional[TrafficMetrics] = None
        self._closed = False
        self._shards: List[ShardSimulation] = [
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

    # ----------------------------------------------------------------- run

    def run(self) -> "ShardedBeaconing":
        """Run all intervals of the configured duration, then deliver the
        last interval's in-flight beacons (as the single-process
        ``run()`` does)."""
        self._check_open()
        for _ in range(self.config.num_intervals):
            self.step()
        for sim in self._shards:
            sim._deliver()
        self._metrics_cache = None
        return self

    def run_intervals(self, count: int) -> "ShardedBeaconing":
        for _ in range(count):
            self.step()
        return self

    def step(self) -> None:
        """One global beaconing interval across all shards."""
        self._check_open()
        outgoing = []
        for sim in self._shards:
            sim.step()
            outgoing.append(sim.drain_boundary())
        for messages in outgoing:
            self._plane.route(messages)
        for index, sim in enumerate(self._shards):
            sim.ingest_boundary(self._plane.take(index))
        self._metrics_cache = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBeaconing is closed")

    # ------------------------------------------------------------- queries

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

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Refuse every later ``step``, ``run``, ``reset_metrics`` and
        ``paths_at``. ``metrics`` keeps answering from the shard
        simulations. Idempotent."""
        self._closed = True

    def __enter__(self) -> "ShardedBeaconing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
