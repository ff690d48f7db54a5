"""A BGP(sec) speaker: decision process, export filters, MRAI batching.

One speaker per AS, mirroring the paper's SimBGP setup in which "only the
internal BGPsec speaker has LOC_RIB, and border routers just forward traffic
between the interfaces": border routers contribute no control-plane state,
so the AS graph is the session graph.

Per-neighbor Minimum Route Advertisement Interval (MRAI) timers batch
advertisements: when a best route changes while the timer runs, the prefix
joins the neighbor's pending set and is advertised when the timer fires
(the paper configures 15-second MRAI timers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .policy import NeighborKind, Route, may_export
from .rib import AdjRIBIn, LocRIB

__all__ = ["Advertisement", "Speaker"]


@dataclass(frozen=True, slots=True)
class Advertisement:
    """An UPDATE on the wire: one prefix, the advertised AS path."""

    sender: int
    receiver: int
    prefix: int
    as_path: Tuple[int, ...]


class Speaker:
    """The control-plane state of one AS."""

    def __init__(
        self,
        asn: int,
        neighbors: Dict[int, NeighborKind],
        *,
        mrai: float = 15.0,
    ) -> None:
        self.asn = asn
        self.neighbors = dict(neighbors)
        self.mrai = mrai
        self.adj_rib_in = AdjRIBIn()
        self.loc_rib = LocRIB()
        #: Next time an advertisement to the neighbor is allowed.
        self._mrai_ready_at: Dict[int, float] = {n: 0.0 for n in neighbors}
        #: Prefixes awaiting the neighbor's MRAI timer.
        self.pending: Dict[int, Set[int]] = {n: set() for n in neighbors}
        #: Per-prefix path last advertised to the neighbor (dedup).
        self._advertised: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.updates_received = 0
        self.updates_sent = 0
        #: Received update count per origin AS (first AS of the path).
        self.received_by_origin: Dict[int, int] = {}

    # ----------------------------------------------------------- origination

    def originate(self, prefix: int) -> bool:
        """Install a self-originated route; returns True if LocRIB changed."""
        route = Route(prefix=prefix, as_path=(self.asn,), neighbor=None)
        return self.loc_rib.install(route)

    # -------------------------------------------------------------- receive

    def receive(self, advertisement: Advertisement) -> bool:
        """Process one incoming UPDATE; returns True if the best route for
        the prefix changed (and neighbors may need to be told)."""
        self.updates_received += 1
        origin = advertisement.as_path[0]
        self.received_by_origin[origin] = (
            self.received_by_origin.get(origin, 0) + 1
        )
        if self.asn in advertisement.as_path:
            return False  # loop detection: discard
        kind = self.neighbors.get(advertisement.sender)
        if kind is None:
            raise ValueError(
                f"AS {self.asn} received update from non-neighbor "
                f"{advertisement.sender}"
            )
        route = Route(
            prefix=advertisement.prefix,
            as_path=advertisement.as_path,
            neighbor=advertisement.sender,
            learned_from=kind,
        )
        self.adj_rib_in.update(route)
        return self._decide(advertisement.prefix)

    def _decide(self, prefix: int) -> bool:
        """Best-path selection for one prefix."""
        candidates: List[Route] = self.adj_rib_in.routes_for_prefix(prefix)
        current = self.loc_rib.best(prefix)
        if current is not None and current.is_self_originated:
            candidates.append(current)
        if not candidates:
            return self.loc_rib.remove(prefix) is not None
        best = min(candidates, key=lambda route: route.preference_key())
        return self.loc_rib.install(best)

    # --------------------------------------------------------------- export

    @staticmethod
    def _exports(best: Route, neighbor: int, kind: NeighborKind) -> bool:
        """May ``best`` be advertised to ``neighbor``? Gao-Rexford export,
        and never back to the next hop."""
        return best.neighbor != neighbor and may_export(best, kind)

    def enqueue(self, prefix: int) -> None:
        """Mark a changed prefix as pending towards all eligible neighbors."""
        best = self.loc_rib.best(prefix)
        if best is None:
            return
        for neighbor, kind in self.neighbors.items():
            if self._exports(best, neighbor, kind):
                self.pending[neighbor].add(prefix)

    def mrai_ready_at(self, neighbor: int) -> float:
        return self._mrai_ready_at[neighbor]

    def flush(self, neighbor: int, now: float) -> List[Advertisement]:
        """Advertisements to emit to ``neighbor`` now (MRAI permitting).

        Resets the neighbor's MRAI timer if anything is sent. Prefixes whose
        best path did not change since the last advertisement to this
        neighbor are skipped.
        """
        if now < self._mrai_ready_at[neighbor]:
            return []
        pending = self.pending[neighbor]
        if not pending:
            return []
        kind = self.neighbors[neighbor]
        advertisements: List[Advertisement] = []
        for prefix in sorted(pending):
            best = self.loc_rib.best(prefix)
            if best is None or not self._exports(best, neighbor, kind):
                continue
            as_path = best.as_path + (self.asn,) if not (
                best.is_self_originated
            ) else (self.asn,)
            if self._advertised.get((neighbor, prefix)) == as_path:
                continue
            self._advertised[(neighbor, prefix)] = as_path
            advertisements.append(
                Advertisement(
                    sender=self.asn,
                    receiver=neighbor,
                    prefix=prefix,
                    as_path=as_path,
                )
            )
        pending.clear()
        if advertisements:
            self._mrai_ready_at[neighbor] = now + self.mrai
            self.updates_sent += len(advertisements)
        return advertisements
