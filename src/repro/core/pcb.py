"""Path-segment Construction Beacons (PCBs).

A PCB (Section 2.2) is initiated by a core AS and iteratively extended: each
AS appends its AS number and the interface pair of the link it used, signs
the beacon, and forwards it. We model a PCB by two immutable tuples, the AS
numbers in path order and the ids of the inter-domain links between them,
from which the interface identifiers on either side can be recovered via
the topology. Its :class:`Hop` entries are derived on demand, never stored.

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

from dataclasses import FrozenInstanceError, dataclass, field
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


@dataclass(slots=True, init=False, unsafe_hash=True)
class PCB:
    """An immutable beacon instance. The values derived from its path are
    computed once at construction, and take no part in equality, hashing,
    ``repr`` or pickling."""

    origin: int
    issued_at: float
    lifetime: float
    _asns: Tuple[int, ...]
    _link_ids: Tuple[int, ...]
    expires_at: float = field(compare=False, repr=False)
    _path_key: Tuple[int, Tuple[int, ...]] = field(compare=False, repr=False)

    def __new__(cls, origin, issued_at, lifetime, hops: Tuple[Hop, ...]) -> "PCB":
        if not hops:
            raise ValueError("a PCB needs at least the origin hop")
        if hops[0].ingress_link_id is not None:
            raise ValueError("origin hop has no ingress link")
        asns, link_ids = zip(*[(hop.asn, hop.ingress_link_id) for hop in hops])
        return _from_path(origin, issued_at, lifetime, asns, link_ids[1:])

    # Frozen by hand: with slots, ``frozen=True`` raises TypeError for ``hops``.
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The two tuples; the checks rerun on load. Pickles that carry
        # ``hops`` (written before it was derived) load through ``__new__``.
        path = (self._asns, self._link_ids)
        return (_from_path, (self.origin, self.issued_at, self.lifetime, *path))

    # ------------------------------------------------------------- factory

    @classmethod
    def originate(cls, origin: int, issued_at: float, lifetime: float) -> "PCB":
        """A fresh origin beacon containing only the origin hop."""
        return _from_path(origin, issued_at, lifetime, (origin,), ())

    def extend(self, link_id: int, next_asn: int) -> "PCB":
        """The beacon as propagated over ``link_id`` to ``next_asn``.

        The origination timestamp and lifetime are set by the *initiator*
        (Section 2.2) and are therefore preserved.

        The child is assembled from this beacon's tuples: they passed the
        checks once already, so only what the new hop can break is checked
        again.
        """
        if next_asn in self._asns:
            raise ValueError(
                f"AS {next_asn} is already on the path; beaconing never loops"
            )
        if link_id is None:
            raise ValueError("non-origin hops must record their ingress link")
        return _assemble(
            self.origin, self.issued_at, self.lifetime,
            self._asns + (next_asn,), self._link_ids + (link_id,),
            self.expires_at,
        )

    # ----------------------------------------------------------- validity

    def age(self, now: float) -> float:
        return now - self.issued_at

    def remaining_lifetime(self, now: float) -> float:
        return self.expires_at - now

    def is_valid(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at

    # --------------------------------------------------------------- path

    @property
    def hops(self) -> Tuple[Hop, ...]:
        """The AS entries, rebuilt on every read: code that runs per
        beacon reads :meth:`path_asns` and :meth:`link_ids`."""
        return (Hop(self.origin),) + tuple(map(Hop, self._asns[1:], self._link_ids))

    @property
    def path_length(self) -> int:
        """Number of inter-domain links on the path."""
        return len(self._link_ids)

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
        return PCB_HEADER_BYTES + len(self._asns) * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )


def _from_path(origin, issued_at, lifetime, asns, link_ids) -> PCB:
    """The beacon over two path tuples, after every check a path can fail:
    what the constructor, :meth:`PCB.originate` and unpickling build."""
    if not asns or asns[0] != origin:
        raise ValueError("first hop must be the origin AS")
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if None in link_ids or len(link_ids) != len(asns) - 1:
        raise ValueError("non-origin hops must record their ingress link")
    if len(set(asns)) != len(asns):
        raise ValueError("an AS is on the path twice; beaconing never loops")
    return _assemble(
        origin, issued_at, lifetime, asns, link_ids, issued_at + lifetime
    )


# The slots' own setters, which the frozen ``__setattr__`` does not reach:
# assembling a beacon is what each propagation costs.
_set_origin = PCB.origin.__set__
_set_issued_at = PCB.issued_at.__set__
_set_lifetime = PCB.lifetime.__set__
_set_asns = PCB._asns.__set__
_set_link_ids = PCB._link_ids.__set__
_set_expires_at = PCB.expires_at.__set__
_set_path_key = PCB._path_key.__set__


def _assemble(origin, issued_at, lifetime, asns, link_ids, expires_at) -> PCB:
    """The beacon over already checked values."""
    pcb = object.__new__(PCB)
    _set_origin(pcb, origin)
    _set_issued_at(pcb, issued_at)
    _set_lifetime(pcb, lifetime)
    _set_asns(pcb, asns)
    _set_link_ids(pcb, link_ids)
    _set_expires_at(pcb, expires_at)
    _set_path_key(pcb, (origin, link_ids))
    return pcb
