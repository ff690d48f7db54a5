"""repro.shard — sharded beaconing simulation kernel.

Partitions the AS topology into N shards (ISD-aware, degree-balanced
fallback), runs each shard's beaconing in lockstep — in-process or one
worker process per shard — and exchanges boundary PCBs and fault
directives through a cross-shard message plane between intervals.

The determinism contract: a sharded run is byte-identical to the
single-process :class:`~repro.simulation.beaconing.BeaconingSimulation`
for any shard count, in metrics, stored paths and telemetry counters.
"""

from .coordinator import ShardedBeaconing
from .partition import ShardPlan, partition_topology
from .plane import FaultDirective, MessagePlane, PlaneMessage, canonical_order
from .worker import ShardHostConfig, ShardReport, ShardSimulation

__all__ = [
    "ShardedBeaconing",
    "ShardPlan",
    "partition_topology",
    "FaultDirective",
    "MessagePlane",
    "PlaneMessage",
    "canonical_order",
    "ShardHostConfig",
    "ShardReport",
    "ShardSimulation",
]
