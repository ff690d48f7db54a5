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
import hmac
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

__all__ = [
    "MAC_BYTES",
    "ZERO_MAC",
    "HOP_FIELD_BYTES",
    "INFO_FIELD_BYTES",
    "forwarding_key",
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


# Derived once per (asn, secret), not once per hop field built: a pure
# function of two immutable values, 16 bytes per AS. The bound only guards
# a caller that invents ASNs without end.
@lru_cache(maxsize=1 << 16)
def forwarding_key(asn: int, secret: bytes = b"repro-forwarding") -> bytes:
    """Derive the AS-local forwarding key (toy KDF, deterministic)."""
    return hashlib.blake2b(
        asn.to_bytes(8, "big"), key=secret, digest_size=16
    ).digest()


#: ``timestamp | ingress | egress | expiry |`` — everything the MAC covers
#: but the ``prev_mac`` that follows it, in one pack.
_MAC_HEAD = struct.Struct(">dcIcIcdc")


def compute_mac(
    key: bytes,
    timestamp: float,
    ingress_ifid: int,
    egress_ifid: int,
    expiry: float,
    prev_mac: bytes,
) -> bytes:
    """Chained hop-field MAC.

    ``timestamp`` and ``expiry`` are hashed as full IEEE-754 doubles:
    hop fields differing only in fractional seconds must not collide.
    """
    payload = (
        _MAC_HEAD.pack(
            timestamp, b"|", ingress_ifid, b"|", egress_ifid, b"|", expiry, b"|"
        )
        + prev_mac
    )
    return hashlib.blake2b(payload, key=key, digest_size=MAC_BYTES).digest()


@dataclass(frozen=True)
class HopField:
    """One AS's entry in the packet-carried forwarding state.

    ``ingress_ifid``/``egress_ifid`` are the interface ids the packet must
    use to enter/leave the AS, in *forwarding order*; 0 marks the local
    endpoint side (no inter-domain interface).
    """

    asn: int
    ingress_ifid: int
    egress_ifid: int
    expiry: float
    mac: bytes

    def verify(
        self, timestamp: float, prev_mac: bytes, *, key: Optional[bytes] = None
    ) -> bool:
        """Check the MAC under the AS's forwarding key."""
        expected = compute_mac(
            key if key is not None else forwarding_key(self.asn),
            timestamp,
            self.ingress_ifid,
            self.egress_ifid,
            self.expiry,
            prev_mac,
        )
        # Constant-time comparison, like a real border router: a '=='
        # short-circuits on the first differing byte, leaking match
        # length through timing.
        return hmac.compare_digest(expected, self.mac)

    def is_expired(self, now: float) -> bool:
        return now >= self.expiry


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
