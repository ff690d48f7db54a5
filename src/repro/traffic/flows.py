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


@dataclass(frozen=True)
class FlowConfig:
    """Shape of the generated workload."""

    #: New flows started per tick.
    flows_per_tick: int = 20
    #: Length of the workload in ticks.
    num_ticks: int = 12
    #: Zipf popularity exponent over the endpoint ranking (1.0-1.5 is the
    #: range usually fitted to inter-domain traffic matrices).
    zipf_exponent: float = 1.2
    #: Mean packets per flow (geometric; 1 is the minimum).
    mean_flow_packets: int = 4
    #: Hard cap on packets per flow (keeps the tail bounded).
    max_flow_packets: int = 64
    #: Payload bytes per packet.
    payload_bytes: int = 1200
    seed: int = 7

    def __post_init__(self) -> None:
        if self.flows_per_tick < 1 or self.num_ticks < 1:
            raise ValueError("flows_per_tick and num_ticks must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if not 1 <= self.mean_flow_packets <= self.max_flow_packets:
            raise ValueError(
                "need 1 <= mean_flow_packets <= max_flow_packets"
            )
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")


@dataclass(frozen=True)
class Flow:
    """One user flow: a burst of packets between two endpoint ASes."""

    flow_id: int
    tick: int
    src: int
    dst: int
    num_packets: int
    payload_bytes: int

    @property
    def size_bytes(self) -> int:
        """Application payload the flow wants delivered (goodput bytes)."""
        return self.num_packets * self.payload_bytes


class FlowGenerator:
    """Deterministic Zipf-popularity flow source over a set of endpoints."""

    def __init__(self, endpoints: Sequence[int], config: FlowConfig) -> None:
        self.endpoints: Tuple[int, ...] = tuple(sorted(set(endpoints)))
        if len(self.endpoints) < 2:
            raise ValueError("need at least two endpoint ASes")
        self.config = config
        # Zipf weight of rank r (0-based) is 1/(r+1)^s; the cumulative
        # vector turns one uniform draw into one popularity-weighted pick.
        weights = [
            1.0 / (rank + 1) ** config.zipf_exponent
            for rank in range(len(self.endpoints))
        ]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float round-off
        self._cumulative = cumulative

    def _pick(self, rng: Random) -> int:
        return self.endpoints[bisect_left(self._cumulative, rng.random())]

    def flows_for_tick(self, tick: int) -> List[Flow]:
        """The flows starting in tick ``tick`` (pure function of the seed)."""
        config = self.config
        rng = Random((config.seed << 24) ^ (tick * 0x9E3779B1) ^ tick)
        flows: List[Flow] = []
        mean_extra = max(0, config.mean_flow_packets - 1)
        for index in range(config.flows_per_tick):
            src = self._pick(rng)
            dst = self._pick(rng)
            while dst == src:
                dst = self._pick(rng)
            if mean_extra:
                extra = int(rng.expovariate(1.0 / mean_extra))
            else:
                extra = 0
            packets = min(1 + extra, config.max_flow_packets)
            flows.append(
                Flow(
                    flow_id=tick * config.flows_per_tick + index,
                    tick=tick,
                    src=src,
                    dst=dst,
                    num_packets=packets,
                    payload_bytes=config.payload_bytes,
                )
            )
        return flows
