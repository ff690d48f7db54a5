"""The pure-Python reference backend.

This is the semantics oracle: it sends every packet of a flow through
``RouterTable.deliver_packet``, a cursor walk in which each border router
on the path runs all of its checks on its own hop field (hop-AS match,
expiry, chained MAC under the AS key compared in constant time,
destination match, interface lookup in the live topology) — per packet
and per hop, with no verdict remembered per flow or per path; that
shortcut is the NumPy backend's. Only object construction is hoisted:
the consumed path and packet are built once per packet, not once per
hop. Beaconing candidates are scored with the scalar Link History Table
calls. Every other backend must match its outputs byte for byte.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..dataplane.router import ForwardingError
from .base import KernelBackend

__all__ = ["PythonBackend"]


class PythonBackend(KernelBackend):
    """Reference implementation: scalar loops, no dependencies."""

    name = "python"

    def deliver_flow(self, routers, packet, count, *, now) -> Tuple[int, int]:
        delivered = 0
        hops = 0
        for _ in range(count):
            try:
                _, traversed = routers.deliver_packet(packet, now=now)
            except ForwardingError:
                break
            delivered += 1
            hops = len(traversed)
        return delivered, hops

    def batch_diversity(
        self, table, rows: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[int, int, float]]:
        return [
            (
                table.version(row),
                sum(table.counter(link_id) for link_id in row),
                table.geometric_mean(row),
            )
            for row in rows
        ]
