"""Struct-of-arrays layouts for the kernel backends.

The object graphs the engines operate on (tuples of frozen
:class:`~repro.dataplane.hopfield.HopField` dataclasses, per-candidate
link tuples) are convenient but force the hot loops into per-object
attribute chasing. The SoA forms here pack them into parallel columns —
one sequence per field, MACs in one contiguous byte string — which the
batched backend can turn into arrays, slice per-column, and compare in
single passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..dataplane.hopfield import MAC_BYTES, HopField

__all__ = ["HopFieldSoA", "pad_rows"]


@dataclass(frozen=True)
class HopFieldSoA:
    """The hop fields of one forwarding path, one column per field.

    ``macs`` concatenates the per-hop MACs (``MAC_BYTES`` each), so the
    whole chain can be compared against a recomputed chain with a single
    constant-time digest comparison.
    """

    asns: Tuple[int, ...]
    ingress: Tuple[int, ...]
    egress: Tuple[int, ...]
    expiry: Tuple[float, ...]
    macs: bytes

    @classmethod
    def from_hop_fields(cls, hop_fields: Sequence[HopField]) -> "HopFieldSoA":
        return cls(
            asns=tuple(hf.asn for hf in hop_fields),
            ingress=tuple(hf.ingress_ifid for hf in hop_fields),
            egress=tuple(hf.egress_ifid for hf in hop_fields),
            expiry=tuple(hf.expiry for hf in hop_fields),
            macs=b"".join(hf.mac for hf in hop_fields),
        )

    def __len__(self) -> int:
        return len(self.asns)

    def mac(self, index: int) -> bytes:
        return self.macs[index * MAC_BYTES : (index + 1) * MAC_BYTES]


def pad_rows(
    rows: Sequence[Tuple[int, ...]], fill: int
) -> Tuple[List[List[int]], List[int]]:
    """Pack ragged candidate rows into a rectangular matrix.

    Returns ``(matrix, lengths)`` where every row is right-padded with
    ``fill`` to the width of the longest row. ``fill`` is the caller's
    sentinel (the batched scorer points it at a neutral pad slot).
    """
    width = max((len(row) for row in rows), default=0)
    matrix = [list(row) + [fill] * (width - len(row)) for row in rows]
    return matrix, [len(row) for row in rows]
