"""repro.shard — sharded beaconing simulation kernel.

Partitions the AS topology into N shards (ISD-aware, degree-balanced
fallback), steps each shard's beaconing in lockstep in one process, and
exchanges boundary PCBs through a cross-shard message plane between
intervals. The benchmark's ``shard.serial2`` layer measures it and the
shard equivalence tests pin it; experiments run the single-process
:class:`~repro.simulation.beaconing.BeaconingSimulation`.

The determinism contract: a sharded run is byte-identical to the
single-process simulation for any shard count, in metrics and stored
paths.
"""

from .coordinator import ShardedBeaconing
from .partition import partition_topology
from .plane import MessagePlane, PlaneMessage, canonical_order

__all__ = [
    "ShardedBeaconing",
    "partition_topology",
    "MessagePlane",
    "PlaneMessage",
    "canonical_order",
]
