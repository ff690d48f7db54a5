"""Routing information bases.

Each BGPsec speaker keeps an Adj-RIB-In per neighbor (all routes learned
from that neighbor) and a Loc-RIB (the selected best route per prefix). The
paper's configuration — "Within an AS, only the internal BGPsec speaker has
LOC_RIB, and border routers just forward traffic" — maps to one
:class:`~repro.bgp.speaker.Speaker` per AS here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .policy import Route

__all__ = ["AdjRIBIn", "LocRIB"]


class AdjRIBIn:
    """Routes learned per (neighbor, prefix); newest replaces older."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[int, int], Route] = {}

    def update(self, route: Route) -> None:
        if route.neighbor is None:
            raise ValueError("Adj-RIB-In stores only learned routes")
        self._routes[(route.neighbor, route.prefix)] = route

    def routes_for_prefix(self, prefix: int) -> List[Route]:
        return [
            route
            for (_, route_prefix), route in self._routes.items()
            if route_prefix == prefix
        ]

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())


class LocRIB:
    """Best selected route per prefix."""

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

    def remove(self, prefix: int) -> Optional[Route]:
        return self._best.pop(prefix, None)

    def prefixes(self) -> List[int]:
        return list(self._best)

    def __len__(self) -> int:
        return len(self._best)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._best.values())
