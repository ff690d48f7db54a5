"""Seeded user-driven flow workloads.

The ROADMAP's north star is a system "serving heavy traffic from millions
of users"; this module is the demand side of that story. A
:class:`FlowGenerator` emits a deterministic stream of flows between
endpoint ASes: source and destination popularity follow a Zipf law over
the endpoint ranking (a handful of ASes originate/sink most traffic, a
long tail does the rest — the standard shape of inter-domain traffic
matrices), and flow sizes follow a geometric packet-count distribution
(many mice, few elephants).

Determinism contract: the flows of tick *t* are a pure function of
``(config, endpoints, t)`` — each tick gets its own ``random.Random``
seeded from the config seed and the tick index — so any two runs (or any
two worker processes) generate byte-identical workloads regardless of
execution order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from typing import List, Sequence, Tuple

__all__ = ["FlowConfig", "Flow", "FlowGenerator"]

#: Zipf popularity exponent over an endpoint ranking (1.0-1.5 is the range
#: usually fitted to inter-domain traffic matrices). Flows, the service's
#: clients and Table 1's destinations all draw with it.
ZIPF_EXPONENT = 1.2
#: Mean packets per flow (geometric; 1 is the minimum).
MEAN_FLOW_PACKETS = 4
#: Hard cap on packets per flow (keeps the tail bounded).
MAX_FLOW_PACKETS = 64
#: Payload bytes per packet.
PAYLOAD_BYTES = 1200


def zipf_weights(count: int) -> List[float]:
    """Zipf weight ``1/r^s`` of ranks ``1..count``."""
    return [1.0 / rank**ZIPF_EXPONENT for rank in range(1, count + 1)]


def cumulative(weights: Sequence[float]) -> List[float]:
    """The normalised cumulative vector of *weights*: one uniform draw
    bisected into it picks index ``i`` with probability ``weights[i] /
    sum(weights)``. The last entry is clamped to 1.0 against float
    round-off."""
    total = sum(weights)
    table: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        table.append(acc)
    table[-1] = 1.0
    return table


@dataclass(frozen=True)
class FlowConfig:
    """Shape of the generated workload."""

    #: New flows started per tick.
    flows_per_tick: int = 20
    #: Length of the workload in ticks.
    num_ticks: int = 12
    seed: int = 7

    def __post_init__(self) -> None:
        if self.flows_per_tick < 1 or self.num_ticks < 1:
            raise ValueError("flows_per_tick and num_ticks must be positive")


@dataclass(frozen=True, slots=True)
class Flow:
    """One user flow: a burst of packets between two endpoint ASes."""

    flow_id: int
    tick: int
    src: int
    dst: int
    num_packets: int

    @property
    def size_bytes(self) -> int:
        """Application payload the flow wants delivered (goodput bytes)."""
        return self.num_packets * PAYLOAD_BYTES


class FlowGenerator:
    """Deterministic Zipf-popularity flow source over a set of endpoints."""

    def __init__(self, endpoints: Sequence[int], config: FlowConfig) -> None:
        self.endpoints: Tuple[int, ...] = tuple(sorted(set(endpoints)))
        if len(self.endpoints) < 2:
            raise ValueError("need at least two endpoint ASes")
        self.config = config
        # One uniform draw into the Zipf cumulative vector is one
        # popularity-weighted pick.
        self._cumulative = cumulative(zipf_weights(len(self.endpoints)))

    def _pick(self, rng: Random) -> int:
        return self.endpoints[bisect_left(self._cumulative, rng.random())]

    def flows_for_tick(self, tick: int) -> List[Flow]:
        """The flows starting in tick ``tick`` (pure function of the seed)."""
        config = self.config
        rng = Random((config.seed << 24) ^ (tick * 0x9E3779B1) ^ tick)
        flows: List[Flow] = []
        for index in range(config.flows_per_tick):
            src = self._pick(rng)
            dst = self._pick(rng)
            while dst == src:
                dst = self._pick(rng)
            extra = int(rng.expovariate(1.0 / (MEAN_FLOW_PACKETS - 1)))
            packets = min(1 + extra, MAX_FLOW_PACKETS)
            flows.append(
                Flow(
                    flow_id=tick * config.flows_per_tick + index,
                    tick=tick,
                    src=src,
                    dst=dst,
                    num_packets=packets,
                )
            )
        return flows
