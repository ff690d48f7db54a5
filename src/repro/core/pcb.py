"""Path-segment Construction Beacons (PCBs).

A PCB (Section 2.2) is initiated by a core AS and iteratively extended: each
AS appends its AS number and the interface pair of the link it used, signs
the beacon, and forwards it. We model a PCB as an immutable sequence of
:class:`Hop` entries; each non-origin hop records the inter-domain link that
was traversed to reach it, from which the interface identifiers on either
side can be recovered via the topology.

Two notions of identity matter for the algorithms:

* the **path key** ``(origin, link ids...)`` identifies *the path*; the paper
  treats a newer beacon over the same path as "a newer instance of a PCB
  with the same path";
* the **instance** additionally carries ``issued_at`` (the origination
  timestamp) and ``lifetime``; the PCB is valid in
  ``[issued_at, issued_at + lifetime]``.

Wire sizes follow the PCB layout with one ECDSA-384 signature per AS entry
(the signature scheme the paper assumes for both SCION and BGPsec).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Hop",
    "PCB",
    "PCB_HEADER_BYTES",
    "PCB_HOP_FIXED_BYTES",
    "SIGNATURE_BYTES",
]

#: Segment-info header: origination timestamp, segment id, origin ISD-AS.
PCB_HEADER_BYTES = 32
#: Per-AS entry without the signature: ISD-AS (8), ingress/egress interface
#: ids (2+2), hop-field MAC (6), expiry/meta (6), certificate pointer (8).
PCB_HOP_FIXED_BYTES = 32
#: ECDSA-384 signature, one per AS entry.
SIGNATURE_BYTES = 96


@dataclass(frozen=True, slots=True)
class Hop:
    """One AS entry of a PCB.

    ``ingress_link_id`` is the id of the inter-domain link over which the
    beacon entered this AS — ``None`` for the origin hop.
    """

    asn: int
    ingress_link_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class PCB:
    """An immutable beacon instance.

    The path-derived values the selection algorithms and the beacon store
    read millions of times are computed once at construction (hop tuples
    are immutable); they take no part in equality, hashing, ``repr`` or
    pickling.
    """

    origin: int
    issued_at: float
    lifetime: float
    hops: Tuple[Hop, ...]
    expires_at: float = field(init=False, compare=False, repr=False)
    _asns: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    _link_ids: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    _path_key: Tuple[int, Tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        hops = self.hops
        if not hops:
            raise ValueError("a PCB needs at least the origin hop")
        if hops[0].asn != self.origin:
            raise ValueError("first hop must be the origin AS")
        if hops[0].ingress_link_id is not None:
            raise ValueError("origin hop has no ingress link")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")
        link_ids = tuple([hop.ingress_link_id for hop in hops[1:]])
        if None in link_ids:
            raise ValueError("non-origin hops must record their ingress link")
        derive = object.__setattr__
        derive(self, "expires_at", self.issued_at + self.lifetime)
        # A tuple, not a frozenset: paths are a handful of hops, and a set
        # per beacon is the larger part of a beacon's memory.
        derive(self, "_asns", tuple([hop.asn for hop in hops]))
        derive(self, "_link_ids", link_ids)
        derive(self, "_path_key", (self.origin, link_ids))

    def __reduce__(self):
        # Rebuild from the four fields: the derived slots are recomputed
        # (and the invariants rechecked) on load, never stored.
        return (PCB, (self.origin, self.issued_at, self.lifetime, self.hops))

    # ------------------------------------------------------------- factory

    @classmethod
    def originate(cls, origin: int, issued_at: float, lifetime: float) -> "PCB":
        """A fresh origin beacon containing only the origin hop."""
        return cls(
            origin=origin,
            issued_at=issued_at,
            lifetime=lifetime,
            hops=(Hop(origin),),
        )

    def extend(self, link_id: int, next_asn: int) -> "PCB":
        """The beacon as propagated over ``link_id`` to ``next_asn``.

        The origination timestamp and lifetime are set by the *initiator*
        (Section 2.2) and are therefore preserved.

        The child is assembled from this beacon's derived tuples: its
        hops passed ``__post_init__`` once already, so only what the new
        hop can break is checked again.
        """
        if next_asn in self._asns:
            raise ValueError(
                f"AS {next_asn} is already on the path; beaconing never loops"
            )
        if link_id is None:
            raise ValueError("non-origin hops must record their ingress link")
        link_ids = self._link_ids + (link_id,)
        child = object.__new__(PCB)
        derive = object.__setattr__
        derive(child, "origin", self.origin)
        derive(child, "issued_at", self.issued_at)
        derive(child, "lifetime", self.lifetime)
        derive(child, "hops", self.hops + (Hop(next_asn, link_id),))
        derive(child, "expires_at", self.expires_at)
        derive(child, "_asns", self._asns + (next_asn,))
        derive(child, "_link_ids", link_ids)
        derive(child, "_path_key", (self.origin, link_ids))
        return child

    # ----------------------------------------------------------- validity

    def age(self, now: float) -> float:
        return now - self.issued_at

    def remaining_lifetime(self, now: float) -> float:
        return self.expires_at - now

    def is_valid(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at

    # --------------------------------------------------------------- path

    @property
    def last_asn(self) -> int:
        """The AS currently holding (i.e. last having extended) the beacon."""
        return self.hops[-1].asn

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    @property
    def path_length(self) -> int:
        """Number of inter-domain links on the path."""
        return len(self.hops) - 1

    def path_asns(self) -> Tuple[int, ...]:
        return self._asns

    def link_ids(self) -> Tuple[int, ...]:
        """Link ids of the traversed inter-domain links, in path order."""
        return self._link_ids

    def contains_as(self, asn: int) -> bool:
        return asn in self._asns

    def contains_link(self, link_id: int) -> bool:
        return link_id in self._link_ids

    def path_key(self) -> Tuple[int, Tuple[int, ...]]:
        """Identity of *the path*, shared by all instances over it."""
        return self._path_key

    # ---------------------------------------------------------------- size

    def wire_size(self) -> int:
        """Serialized size in bytes, one ECDSA-384 signature per AS entry."""
        return PCB_HEADER_BYTES + self.num_hops * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )
