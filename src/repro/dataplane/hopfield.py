"""Hop fields and packet-carried forwarding state (Section 2.3).

"The path segments contain compact hop-fields, that encode information
about which interfaces may be used to enter and leave an AS. The hop-fields
are cryptographically protected, preventing path alteration."

Each AS authenticates its hop field with a MAC computed under its local
forwarding key, chained over the previous hop field's MAC so that a hop
cannot be spliced into a different path. A keyed BLAKE2b truncated to 6
bytes stands in for the AES-CMAC of the production implementation — the
evaluation needs the *semantics* (alteration detection, chaining) and the
*size*, not the cipher.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

__all__ = [
    "MAC_BYTES",
    "ZERO_MAC",
    "HOP_FIELD_BYTES",
    "INFO_FIELD_BYTES",
    "forwarding_key",
    "pack_covered",
    "pack_timestamp",
    "keyed_state",
    "keyed_mac",
    "compute_mac",
    "HopField",
    "make_hop_field",
]

MAC_BYTES = 6
#: The ``prev_mac`` the first hop field of a path is chained over.
ZERO_MAC = b"\x00" * MAC_BYTES
#: ingress (2) + egress (2) + expiry (1) + flags (1) + MAC (6).
HOP_FIELD_BYTES = 12
#: timestamp (4) + segment id (2) + flags/hop count (2).
INFO_FIELD_BYTES = 8


#: The key every AS-local forwarding key derives from.
FORWARDING_SECRET = b"repro-forwarding"


# Derived once per AS, not once per hop field built: a pure
# function of one immutable value, 16 bytes per AS. The bound only guards
# a caller that invents ASNs without end.
@lru_cache(maxsize=1 << 16)
def forwarding_key(asn: int) -> bytes:
    """Derive the AS-local forwarding key (toy KDF, deterministic)."""
    return hashlib.blake2b(
        asn.to_bytes(8, "big"), key=FORWARDING_SECRET, digest_size=16
    ).digest()


#: ``|ingress|egress|expiry|`` — the bytes of a hop field its MAC covers,
#: between the path's packed timestamp and the previous hop field's MAC.
_COVERED = struct.Struct(">cIcIcdc")
#: A forwarding path's timestamp as its hop fields' MACs cover it.
_TIMESTAMP = struct.Struct(">d")


# Hop fields that share ``(ingress, egress, expiry)`` — every path built
# over one segment at one expiry — share one bytes object instead of each
# holding a copy. Interned by value, packed first: ``0.0 == -0.0`` but
# they pack apart, so a cache keyed on the numbers could hand back the
# other's bytes. The bound only guards a caller that builds without end.
@lru_cache(maxsize=1 << 16)
def _interned(packed: bytes) -> bytes:
    return packed


def pack_covered(ingress_ifid: int, egress_ifid: int, expiry: float) -> bytes:
    """``|ingress|egress|expiry|``: what a hop field contributes to its
    MAC's input (:attr:`HopField.covered`)."""
    return _interned(
        _COVERED.pack(b"|", ingress_ifid, b"|", egress_ifid, b"|", expiry, b"|")
    )


def pack_timestamp(timestamp: float) -> bytes:
    """The path timestamp as a full IEEE-754 double, the first eight bytes
    of every MAC's input (:attr:`~.packet.ForwardingPath.packed_timestamp`)."""
    return _interned(_TIMESTAMP.pack(timestamp))


# One keyed BLAKE2b state per forwarding key, bounded like
# :func:`forwarding_key`: keying is a compression of its own, so a MAC
# copies the keyed state instead of keying a fresh hasher.
@lru_cache(maxsize=1 << 16)
def keyed_state(key: bytes) -> "hashlib._Hash":
    """The BLAKE2b state keyed with ``key`` that :func:`keyed_mac` copies.

    Shared and never updated: every MAC works on a copy.
    """
    return hashlib.blake2b(key=key, digest_size=MAC_BYTES)


def keyed_mac(
    state: "hashlib._Hash", timestamp: bytes, covered: bytes, prev_mac: bytes
) -> bytes:
    """The chained hop-field MAC under a pre-keyed ``state`` — the one
    definition every MAC, computed or verified, goes through.

    The input is ``timestamp + covered + prev_mac``: the path's
    :func:`pack_timestamp`, the hop field's :func:`pack_covered` and
    the previous MAC, so ``keyed_mac(keyed_state(key), …)`` is
    ``blake2b(timestamp | ingress | egress | expiry | prev_mac, key=key,
    digest_size=6)``. Timestamp and expiry are full doubles: hop fields
    differing only in fractional seconds must not collide.
    """
    hasher = state.copy()
    hasher.update(timestamp + covered + prev_mac)
    return hasher.digest()


def compute_mac(
    key: bytes,
    timestamp: float,
    ingress_ifid: int,
    egress_ifid: int,
    expiry: float,
    prev_mac: bytes,
) -> bytes:
    """Chained hop-field MAC: ``blake2b(payload, key=key, digest_size=6)``."""
    return keyed_mac(
        keyed_state(key),
        pack_timestamp(timestamp),
        pack_covered(ingress_ifid, egress_ifid, expiry),
        prev_mac,
    )


@dataclass(frozen=True, slots=True)
class HopField:
    """One AS's entry in the packet-carried forwarding state.

    ``ingress_ifid``/``egress_ifid`` are the interface ids the packet must
    use to enter/leave the AS, in *forwarding order*; 0 marks the local
    endpoint side (no inter-domain interface).

    :attr:`covered` is derived from the fields at construction (and so
    by ``dataclasses.replace``): the bytes of this hop field the MAC
    covers, as a packet carries them. It serializes immutable fields and
    is no verdict: every router still recomputes the MAC over it, per
    packet and per hop.
    """

    asn: int
    ingress_ifid: int
    egress_ifid: int
    expiry: float
    mac: bytes
    covered: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "covered",
            pack_covered(self.ingress_ifid, self.egress_ifid, self.expiry),
        )


def make_hop_field(
    asn: int,
    ingress_ifid: int,
    egress_ifid: int,
    *,
    timestamp: float,
    expiry: float,
    prev_mac: bytes = ZERO_MAC,
    key: Optional[bytes] = None,
) -> HopField:
    """Create an authenticated hop field for ``asn``."""
    mac = compute_mac(
        key if key is not None else forwarding_key(asn),
        timestamp,
        ingress_ifid,
        egress_ifid,
        expiry,
        prev_mac,
    )
    return HopField(
        asn=asn,
        ingress_ifid=ingress_ifid,
        egress_ifid=egress_ifid,
        expiry=expiry,
        mac=mac,
    )
