"""BGP UPDATE message sizing per RFC 4271.

The paper "calculate[s] the size of update messages based on the individual
field sizes defined in RFC 4271". An UPDATE carries:

* the 19-byte BGP message header;
* 2 bytes withdrawn-routes length (we model announcements only);
* 2 bytes total-path-attribute length;
* the path attributes shared by all prefixes of the update:
  ORIGIN (4 B), AS_PATH (3 B attribute header + 2 B segment header +
  4 B per ASN, RFC 6793 four-octet AS numbers), NEXT_HOP (7 B);
* one NLRI entry per announced prefix (1 B length + up to 4 B IPv4 prefix;
  we assume /24-ish prefixes, 4 B).

BGP aggregates prefixes sharing identical attributes into one UPDATE — the
amortization BGPsec loses (see :mod:`repro.bgp.bgpsec`).
"""

from __future__ import annotations

__all__ = [
    "BGP_HEADER_BYTES",
    "WITHDRAWN_LEN_BYTES",
    "PATH_ATTR_LEN_BYTES",
    "ORIGIN_ATTR_BYTES",
    "AS_PATH_ATTR_OVERHEAD_BYTES",
    "AS_NUMBER_BYTES",
    "NEXT_HOP_ATTR_BYTES",
    "NLRI_BYTES",
    "bgp_update_size",
]

BGP_HEADER_BYTES = 19
WITHDRAWN_LEN_BYTES = 2
PATH_ATTR_LEN_BYTES = 2
#: Attribute header (flags 1 + type 1 + length 1) + 1 B origin code.
ORIGIN_ATTR_BYTES = 4
#: Attribute header (3) + path segment type/length (2).
AS_PATH_ATTR_OVERHEAD_BYTES = 5
AS_NUMBER_BYTES = 4
#: Attribute header (3) + IPv4 next hop (4).
NEXT_HOP_ATTR_BYTES = 7
#: NLRI length octet + a /24-ish prefix.
NLRI_BYTES = 5


def bgp_update_size(as_path_length: int) -> int:
    """Bytes of one UPDATE announcing one prefix over an AS path of
    ``as_path_length`` ASes."""
    if as_path_length < 1:
        raise ValueError("an announced route has at least the origin AS")
    return (
        BGP_HEADER_BYTES
        + WITHDRAWN_LEN_BYTES
        + PATH_ATTR_LEN_BYTES
        + ORIGIN_ATTR_BYTES
        + AS_PATH_ATTR_OVERHEAD_BYTES
        + AS_NUMBER_BYTES * as_path_length
        + NEXT_HOP_ATTR_BYTES
        + NLRI_BYTES
    )
