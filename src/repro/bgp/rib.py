"""Routing information bases.

Each BGPsec speaker keeps an Adj-RIB-In (the latest route learned from each
neighbor, per prefix) and a Loc-RIB (the selected best route per prefix). The
paper's configuration — "Within an AS, only the internal BGPsec speaker has
LOC_RIB, and border routers just forward traffic" — maps to one
:class:`~repro.bgp.speaker.Speaker` per AS here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .policy import Route

__all__ = ["AdjRIBIn", "LocRIB"]


class AdjRIBIn:
    """Routes learned per prefix and neighbor; newest replaces older.

    Keyed prefix first, so the decision process for one prefix reads that
    prefix's routes (at most one per neighbor) and nothing else. A prefix's
    routes are one tuple in first-learned order; a newer route from the
    same neighbor takes the older one's place.
    """

    def __init__(self) -> None:
        self._routes: Dict[int, Tuple[Route, ...]] = {}

    def update(self, route: Route) -> None:
        neighbor = route.neighbor
        if neighbor is None:
            raise ValueError("Adj-RIB-In stores only learned routes")
        routes = self._routes.get(route.prefix, ())
        for index, held in enumerate(routes):
            if held.neighbor == neighbor:
                routes = routes[:index] + (route,) + routes[index + 1:]
                break
        else:
            routes += (route,)
        self._routes[route.prefix] = routes

    def routes_for_prefix(self, prefix: int) -> Tuple[Route, ...]:
        return self._routes.get(prefix, ())

    def __len__(self) -> int:
        return sum(len(routes) for routes in self._routes.values())


class LocRIB:
    """Best selected route per prefix; an installed prefix keeps one."""

    def __init__(self) -> None:
        self._best: Dict[int, Route] = {}

    def best(self, prefix: int) -> Optional[Route]:
        return self._best.get(prefix)

    def install(self, route: Route) -> bool:
        """Install a route; returns True if the best route changed."""
        current = self._best.get(route.prefix)
        if current == route:
            return False
        self._best[route.prefix] = route
        return True

