"""Gao-Rexford routing policies.

The standard economic model of inter-domain routing, used by both the BGP
decision process and the export filters of our simulator:

* **Preference**: routes learned from customers are preferred over routes
  learned from peers, which are preferred over routes learned from
  providers; ties break on shorter AS path, then on lower neighbor ASN
  (a deterministic stand-in for router-id tie-breaking).
* **Export** (valley-freeness): routes learned from a customer are exported
  to everyone; routes learned from a peer or provider are exported only to
  customers. Own prefixes are exported to everyone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["NeighborKind", "Route", "may_export"]


class NeighborKind(enum.IntEnum):
    """Business relationship of a neighbor, ordered by route preference."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True)
class Route:
    """A candidate route to ``prefix`` learned from ``neighbor``.

    ``as_path`` starts at the origin AS and ends at the AS that advertised
    the route to us (our neighbor). ``learned_from`` classifies that
    neighbor. Self-originated routes have ``neighbor is None``.
    """

    prefix: int
    as_path: Tuple[int, ...]
    neighbor: Optional[int]
    learned_from: NeighborKind = NeighborKind.CUSTOMER

    @property
    def is_self_originated(self) -> bool:
        return self.neighbor is None

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    def preference_key(self) -> Tuple[int, int, int]:
        """Sort key: lower is better (Gao-Rexford, then path length, then
        deterministic neighbor tie-break)."""
        return (
            -1 if self.is_self_originated else int(self.learned_from),
            self.path_length,
            self.neighbor if self.neighbor is not None else -1,
        )


def may_export(route: Route, to_neighbor: NeighborKind) -> bool:
    """Gao-Rexford export rule: does AS policy allow advertising ``route``
    to a neighbor of the given kind?"""
    if route.is_self_originated:
        return True
    if route.learned_from is NeighborKind.CUSTOMER:
        return True
    return to_neighbor is NeighborKind.CUSTOMER
