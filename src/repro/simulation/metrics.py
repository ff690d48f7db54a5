"""Traffic accounting for beaconing simulations.

The paper measures "the amount of PCB traffic sent on each inter-domain
interface" (Section 5.2) and, for Figure 9, the per-interface bandwidth in
bytes per second. An *interface* here is one direction of one inter-domain
link, identified by ``(link_id, sender ASN)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.policy import Transmission

__all__ = ["InterfaceStats", "InterfaceSnapshot", "TrafficMetrics"]

InterfaceKey = Tuple[int, int]  # (link_id, sender ASN)


@dataclass(slots=True)
class InterfaceStats:
    """Cumulative PCB traffic sent on one directed interface."""

    pcbs: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.pcbs += 1
        self.bytes += size

    def snapshot(self) -> "InterfaceSnapshot":
        return InterfaceSnapshot(pcbs=self.pcbs, bytes=self.bytes)


@dataclass(frozen=True, slots=True)
class InterfaceSnapshot:
    """Read-only view of one interface's counters.

    Queries return snapshots rather than live counter objects: a mutable
    stand-in for an unknown interface invites silently-lost updates (the
    caller mutates a throwaway), and handing out live registered objects
    lets callers corrupt the accounting. All mutation goes through
    :meth:`TrafficMetrics.record`.
    """

    pcbs: int = 0
    bytes: int = 0


class TrafficMetrics:
    """Aggregates beaconing traffic by interface and by receiving AS."""

    def __init__(self) -> None:
        self._interfaces: Dict[InterfaceKey, InterfaceStats] = {}
        self._received_bytes: Dict[int, int] = {}
        self._received_pcbs: Dict[int, int] = {}
        self.total_pcbs = 0
        self.total_bytes = 0

    def record(self, transmissions: Sequence[Transmission]) -> int:
        """Count a batch of sent beacons against their interfaces and
        receivers; returns the batch's bytes."""
        batch_bytes = 0
        for transmission in transmissions:
            size = transmission.wire_size
            key = (transmission.link.link_id, transmission.sender)
            stats = self._interfaces.get(key)
            if stats is None:
                stats = InterfaceStats()
                self._interfaces[key] = stats
            stats.add(size)
            receiver = transmission.receiver
            self._received_bytes[receiver] = self._received_bytes.get(receiver, 0) + size
            self._received_pcbs[receiver] = self._received_pcbs.get(receiver, 0) + 1
            batch_bytes += size
        self.total_pcbs += len(transmissions)
        self.total_bytes += batch_bytes
        return batch_bytes

    def merge(self, other: "TrafficMetrics") -> None:
        """Fold another window's counters into this one (commutative).

        Interface and receiver accounting are plain sums, so per-shard
        metrics merged in any order equal the single-process totals —
        :meth:`record` updates both the sending interface and the
        receiver at send time, in the sending shard.
        """
        for key, stats in other._interfaces.items():
            mine = self._interfaces.get(key)
            if mine is None:
                mine = InterfaceStats()
                self._interfaces[key] = mine
            mine.pcbs += stats.pcbs
            mine.bytes += stats.bytes
        for asn, value in other._received_bytes.items():
            self._received_bytes[asn] = self._received_bytes.get(asn, 0) + value
        for asn, value in other._received_pcbs.items():
            self._received_pcbs[asn] = self._received_pcbs.get(asn, 0) + value
        self.total_pcbs += other.total_pcbs
        self.total_bytes += other.total_bytes

    def canonicalize(self) -> None:
        """Rebuild internal tables in sorted-key order so a merged object
        iterates (and serialises) identically to a single-process one."""
        self._interfaces = {
            key: self._interfaces[key] for key in sorted(self._interfaces)
        }
        self._received_bytes = {
            asn: self._received_bytes[asn]
            for asn in sorted(self._received_bytes)
        }
        self._received_pcbs = {
            asn: self._received_pcbs[asn]
            for asn in sorted(self._received_pcbs)
        }

    # ------------------------------------------------------------- queries

    def interface_stats(self, link_id: int, sender: int) -> InterfaceSnapshot:
        stats = self._interfaces.get((link_id, sender))
        if stats is None:
            return InterfaceSnapshot()
        return stats.snapshot()

    def interfaces(self) -> Dict[InterfaceKey, InterfaceSnapshot]:
        return {key: stats.snapshot() for key, stats in self._interfaces.items()}

    def bytes_received_by(self, asn: int) -> int:
        return self._received_bytes.get(asn, 0)

    def pcbs_received_by(self, asn: int) -> int:
        return self._received_pcbs.get(asn, 0)

    def per_interface_bandwidth(
        self,
        duration: float,
        interfaces: Optional[Iterable[InterfaceKey]] = None,
    ) -> List[float]:
        """Bytes per second sent on each directed interface.

        ``interfaces`` should be the topology's full directed-interface set
        (e.g. :meth:`BeaconingSimulation.directed_interfaces`): interfaces
        that sent nothing then report 0 Bps instead of vanishing from the
        distribution, which would bias a bandwidth CDF (Figure 9) upward.
        Without ``interfaces`` only active interfaces are reported.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if interfaces is None:
            return [
                stats.bytes / duration for stats in self._interfaces.values()
            ]
        out: List[float] = []
        for key in interfaces:
            stats = self._interfaces.get(key)
            out.append(stats.bytes / duration if stats is not None else 0.0)
        return out

    def mean_pcb_size(self) -> float:
        return self.total_bytes / self.total_pcbs if self.total_pcbs else 0.0
