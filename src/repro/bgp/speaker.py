"""A BGP(sec) speaker: decision process, export filters, MRAI batching.

One speaker per AS, mirroring the paper's SimBGP setup in which "only the
internal BGPsec speaker has LOC_RIB, and border routers just forward traffic
between the interfaces": border routers contribute no control-plane state,
so the AS graph is the session graph.

Per-neighbor Minimum Route Advertisement Interval (MRAI) timers batch
advertisements: when a best route changes while the timer runs, the prefix
joins the neighbor's pending set and is advertised when the timer fires
(the paper configures 15-second MRAI timers).

Each fact is held once. The path a best route is exported with is built
once per best route and shared by every advertisement of it, by each
receiver's Adj-RIB-In and by the record of what was last advertised.
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
        #: Path last advertised per neighbor and prefix (dedup).
        self._advertised: Dict[int, Dict[int, Tuple[int, ...]]] = {
            n: {} for n in neighbors
        }
        #: Export path of the current best route per prefix, built at its
        #: first advertisement and dropped when the best route changes.
        self._export_paths: Dict[int, Tuple[int, ...]] = {}
        self.updates_received = 0
        self.updates_sent = 0
        #: Received update count per origin AS (first AS of the path).
        self.received_by_origin: Dict[int, int] = {}

    # ----------------------------------------------------------- origination

    def originate(self, prefix: int) -> bool:
        """Install a self-originated route; returns True if LocRIB changed."""
        route = Route(prefix=prefix, as_path=(self.asn,), neighbor=None)
        return self._install(route)

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
        # Best-path selection; the route just stored is among the candidates.
        candidates = self.adj_rib_in.routes_for_prefix(route.prefix)
        current = self.loc_rib.best(route.prefix)
        if current is not None and current.is_self_originated:
            candidates += (current,)
        return self._install(
            min(candidates, key=lambda candidate: candidate.preference_key())
        )

    def _install(self, best: Route) -> bool:
        """Install ``best``; a changed best route drops its export path."""
        changed = self.loc_rib.install(best)
        if changed:
            self._export_paths.pop(best.prefix, None)
        return changed

    def _export_path(self, best: Route) -> Tuple[int, ...]:
        """The path ``best`` is advertised with, one tuple per best route."""
        as_path = self._export_paths.get(best.prefix)
        if as_path is None:
            as_path = best.as_path if best.is_self_originated else (
                best.as_path + (self.asn,)
            )
            self._export_paths[best.prefix] = as_path
        return as_path

    # --------------------------------------------------------------- export

    @staticmethod
    def _exports(best: Route, neighbor: int, kind: NeighborKind) -> bool:
        """May ``best`` be advertised to ``neighbor``? Gao-Rexford export,
        and never back to the next hop."""
        return best.neighbor != neighbor and may_export(best, kind)

    def enqueue(self, prefix: int) -> None:
        """Mark a changed prefix as pending towards all eligible neighbors."""
        best = self.loc_rib.best(prefix)
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
        advertised = self._advertised[neighbor]
        advertisements: List[Advertisement] = []
        for prefix in sorted(pending):
            best = self.loc_rib.best(prefix)
            if not self._exports(best, neighbor, kind):
                continue
            as_path = self._export_path(best)
            if advertised.get(prefix) == as_path:
                continue
            advertised[prefix] = as_path
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
