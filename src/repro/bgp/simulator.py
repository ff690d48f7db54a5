"""Event-driven BGP/BGPsec convergence simulation.

Mirrors the paper's SimBGP configuration (Section 5.1): one internal
BGP(sec) speaker per AS, a 15-second MRAI timer per session, and a 5 ms
processing delay per incoming update message. Every AS originates one
prefix; per-origin overheads are later weighted by the number of prefixes
the AS announces (exactly the paper's "we multiply the overhead for each
destination prefix by the number of prefixes its AS announces").

The simulation runs to convergence (BGP with Gao-Rexford preferences and
shortest-path tie-breaking is safe, so the event queue drains) and exposes:

* per-AS update counts — total and per origin AS;
* the converged best AS path per (AS, origin) pair;
* BGP multipath sets: all equally-preferred routes per pair, the paper's
  "best possible case for BGP ... assuming full BGP multi-path support".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..simulation.engine import Simulator
from ..topology.model import Relationship, Topology
from .policy import NeighborKind
from .speaker import Advertisement, Speaker

__all__ = ["BGPConfig", "BGPSimulation"]


@dataclass(frozen=True)
class BGPConfig:
    """Timing of the convergence simulation (paper defaults)."""

    mrai: float = 15.0
    processing_delay: float = 0.005
    link_delay: float = 0.01
    #: Safety horizon; the queue normally drains long before.
    max_time: float = 24 * 3600.0

    def __post_init__(self) -> None:
        if self.mrai < 0 or self.processing_delay < 0 or self.link_delay <= 0:
            raise ValueError("invalid BGP timing configuration")


def _neighbor_kind(topology: Topology, asn: int, neighbor: int) -> NeighborKind:
    """Classify ``neighbor`` from ``asn``'s point of view.

    CORE links (between SCION core ASes) count as peering — the closest BGP
    equivalent of a settlement-free core mesh.
    """
    kinds: Set[NeighborKind] = set()
    for link in topology.links_between(asn, neighbor):
        if link.relationship is Relationship.PROVIDER_CUSTOMER:
            kinds.add(
                NeighborKind.CUSTOMER
                if link.is_provider(asn)
                else NeighborKind.PROVIDER
            )
        else:
            kinds.add(NeighborKind.PEER)
    # A multi-relationship adjacency (rare, exists in inferred data) uses
    # the most preferred role.
    return min(kinds)


class BGPSimulation:
    """Full-mesh-of-prefixes BGP convergence over an AS topology."""

    def __init__(
        self, topology: Topology, config: Optional[BGPConfig] = None
    ) -> None:
        self.topology = topology
        self.config = config or BGPConfig()
        self.simulator = Simulator()
        self.speakers: Dict[int, Speaker] = {}
        self._busy_until: Dict[int, float] = {}
        self._mrai_timer_armed: Dict[Tuple[int, int], bool] = {}
        for asn in topology.asns():
            neighbors = {
                neighbor: _neighbor_kind(topology, asn, neighbor)
                for neighbor in topology.neighbors(asn)
            }
            self.speakers[asn] = Speaker(
                asn, neighbors, mrai=self.config.mrai
            )
            self._busy_until[asn] = 0.0
        self.converged = False

    # ------------------------------------------------------------------ run

    def run(
        self, extra_originations: Sequence[Tuple[int, int]] = ()
    ) -> "BGPSimulation":
        """Originate every prefix and run to convergence.

        ``extra_originations`` is a sequence of ``(asn, prefix)`` pairs
        announced *in addition* to every AS's own prefix — the hook for
        prefix-hijack scenarios, where an attacker originates a victim's
        prefix and the converged ``best_path`` origins show which ASes
        were deceived.
        """
        extra: Dict[int, List[int]] = {}
        for asn, prefix in extra_originations:
            if asn not in self.speakers:
                raise ValueError(f"unknown originating AS {asn}")
            extra.setdefault(asn, []).append(prefix)
        for asn in sorted(self.speakers):
            speaker = self.speakers[asn]
            speaker.originate(asn)
            speaker.enqueue(asn)
            for prefix in extra.get(asn, ()):
                speaker.originate(prefix)
                speaker.enqueue(prefix)
            self._schedule_flushes(speaker)
        self.simulator.run(until=self.config.max_time)
        self.converged = len(self.simulator.queue) == 0
        return self

    def _schedule_flushes(self, speaker: Speaker) -> None:
        for neighbor in sorted(speaker.neighbors):
            if not speaker.pending_for(neighbor):
                continue
            key = (speaker.asn, neighbor)
            if self._mrai_timer_armed.get(key):
                continue
            ready = max(self.simulator.now, speaker.mrai_ready_at(neighbor))
            self._mrai_timer_armed[key] = True
            self.simulator.schedule_at(
                ready, lambda s=speaker, n=neighbor: self._flush(s, n)
            )

    def _flush(self, speaker: Speaker, neighbor: int) -> None:
        self._mrai_timer_armed[(speaker.asn, neighbor)] = False
        advertisements = speaker.flush(neighbor, self.simulator.now)
        for advertisement in advertisements:
            self._deliver(advertisement)
        # Changes enqueued while the timer ran need a new timer.
        if speaker.pending_for(neighbor):
            self._schedule_flushes(speaker)

    def _deliver(self, advertisement: Advertisement) -> None:
        receiver = self.speakers[advertisement.receiver]
        arrival = self.simulator.now + self.config.link_delay
        processed_at = (
            max(arrival, self._busy_until[receiver.asn])
            + self.config.processing_delay
        )
        self._busy_until[receiver.asn] = processed_at
        self.simulator.schedule_at(
            processed_at,
            lambda: self._process(receiver, advertisement),
        )

    def _process(self, receiver: Speaker, advertisement: Advertisement) -> None:
        changed = receiver.receive(advertisement)
        if changed:
            receiver.enqueue(advertisement.prefix)
            self._schedule_flushes(receiver)

    # -------------------------------------------------------------- queries

    def best_path(self, asn: int, origin: int) -> Optional[Tuple[int, ...]]:
        """Converged best AS path from ``asn`` to ``origin`` (origin-first),
        or None if unreachable under Gao-Rexford policies."""
        if asn == origin:
            return (origin,)
        best = self.speakers[asn].loc_rib.best(origin)
        if best is None:
            return None
        return best.as_path + (asn,)

    def updates_received(self, asn: int) -> int:
        return self.speakers[asn].updates_received

    def updates_received_by_origin(self, asn: int) -> Dict[int, int]:
        return dict(self.speakers[asn].received_by_origin)

    def total_updates(self) -> int:
        return sum(s.updates_received for s in self.speakers.values())
