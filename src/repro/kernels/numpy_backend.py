"""The NumPy batched backend.

Two ideas, both exploiting that router and table state never change
inside the loops being replaced:

* **Forwarding** — all packets of a flow are identical and router state
  is immutable within a run, so the per-packet hop walk is redundant:
  the path is validated *once* in struct-of-arrays form (column-wise
  expiry scan, single chained-MAC digest comparison) and the outcome is
  multiplied by the packet count. Validations are further memoized per
  ``(path, cursor, endpoints, now)`` across flows.

* **Scoring** — a candidate batch shares most of its links (every
  beacon × egress-link row repeats the beacon's path links), so the
  table is gathered once per *unique* link into columns (counter,
  version, log counter) and the per-row version/counter sums run as
  vectorized integer reductions.

Bit-exactness note: integer reductions are order-independent, but
float reductions are not, and NumPy's pairwise summation disagrees with
left-to-right scalar accumulation beyond 8 elements. The geometric-mean
log sums therefore accumulate left-to-right in Python over the
pre-gathered ``math.log`` column — same values, same order, same bits
as :meth:`~repro.core.link_history.LinkHistoryTable.geometric_mean`.
"""

from __future__ import annotations

import hmac
import math
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..dataplane.hopfield import MAC_BYTES, compute_mac
from .base import KernelBackend
from .soa import HopFieldSoA, pad_rows

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Batched implementation over struct-of-arrays columns."""

    name = "numpy"

    #: Bound on the per-run flow-validation memo (entries are tiny; the
    #: bound only guards pathological workloads).
    cache_capacity = 8192

    def __init__(self) -> None:
        self._flow_cache: "OrderedDict[Tuple, Tuple[bool, int]]" = OrderedDict()
        self._cache_routers = None

    # Memo state is a pure accelerator — never ship it in snapshots.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    # ---------------------------------------------------------- forwarding

    def deliver_flow(self, routers, packet, count, *, now) -> Tuple[int, int]:
        if self._cache_routers is not routers:
            # New topology / router table: previous validations are void.
            self._flow_cache.clear()
            self._cache_routers = routers
        key = (
            packet.path.timestamp,
            packet.path.hop_fields,
            packet.path.cursor,
            packet.source.asn,
            packet.destination.asn,
            now,
        )
        cached = self._flow_cache.get(key)
        if cached is None:
            cached = self._validate(routers, packet, now)
            self._flow_cache[key] = cached
            if len(self._flow_cache) > self.cache_capacity:
                self._flow_cache.popitem(last=False)
        else:
            self._flow_cache.move_to_end(key)
        ok, hops = cached
        return (count if ok else 0), hops

    def _validate(self, routers, packet, now: float) -> Tuple[bool, int]:
        """One struct-of-arrays pass over the checks a border-router walk
        performs; the boolean outcome (and traversed-hop count) is what
        the reference per-packet loop would produce for every packet of
        the flow. Check *order* differs from the scalar walk, which is
        unobservable: any failed check drops the whole flow."""
        path = packet.path
        start = path.cursor
        soa = HopFieldSoA.from_hop_fields(path.hop_fields[start:])
        if not len(soa) or soa.asns[0] != packet.source.asn:
            return False, 0
        egress = np.asarray(soa.egress, dtype=np.int64)
        terminal = np.flatnonzero(egress == 0)
        if terminal.size == 0:
            # The walk runs off the end of the path ("already consumed").
            return False, 0
        # Hops past the first egress-0 field are never visited (the walk
        # terminates there), so they are exempt from every check.
        hops = int(terminal[0]) + 1
        if soa.asns[hops - 1] != packet.destination.asn:
            return False, 0
        expiry = np.asarray(soa.expiry[:hops], dtype=np.float64)
        if bool((expiry <= now).any()):
            return False, 0
        # Interface walk: each hop must sit at the AS the previous egress
        # link leads to, and that link must exist.
        topology = routers.topology
        current = packet.source.asn
        for index in range(hops):
            if soa.asns[index] != current:
                return False, 0
            if index < hops - 1:
                link = topology.as_node(current).interfaces.get(
                    soa.egress[index]
                )
                if link is None:
                    return False, 0
                current = link.other(current)
        # Chained MACs: recompute the whole chain, compare once.
        prev = path.prev_mac()
        expected = bytearray()
        for index in range(hops):
            expected += compute_mac(
                routers.forwarding_key(soa.asns[index]),
                path.timestamp,
                soa.ingress[index],
                soa.egress[index],
                soa.expiry[index],
                prev,
            )
            prev = soa.mac(index)
        if not hmac.compare_digest(
            bytes(expected), soa.macs[: hops * MAC_BYTES]
        ):
            return False, 0
        return True, hops

    # ------------------------------------------------------------- scoring

    def batch_diversity(
        self, table, rows: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[int, int, float]]:
        if not rows:
            return []
        # Gather the table once per unique link into parallel columns.
        slot: Dict[int, int] = {}
        counts: List[int] = []
        versions: List[int] = []
        logs: List[float] = []
        zeros: List[bool] = []
        for row in rows:
            for link_id in row:
                if link_id not in slot:
                    slot[link_id] = len(counts)
                    count = table.counter(link_id)
                    counts.append(count)
                    versions.append(table.version((link_id,)))
                    logs.append(math.log(count) if count else 0.0)
                    zeros.append(count == 0)
        # Neutral pad slot: contributes 0 to the sums, never flags a zero.
        pad = len(counts)
        counts.append(0)
        versions.append(0)
        zeros.append(False)
        matrix, _ = pad_rows(
            [tuple(slot[link_id] for link_id in row) for row in rows], pad
        )
        index = np.asarray(matrix, dtype=np.intp)
        version_sum = np.asarray(versions, dtype=np.int64)[index].sum(axis=1)
        counter_sum = np.asarray(counts, dtype=np.int64)[index].sum(axis=1)
        any_zero = np.asarray(zeros, dtype=bool)[index].any(axis=1)
        out: List[Tuple[int, int, float]] = []
        for i, row in enumerate(rows):
            if not row or any_zero[i]:
                gm = 0.0
            else:
                # Left-to-right accumulation over the cached log column:
                # bit-identical to the scalar geometric_mean.
                log_sum = 0.0
                for link_id in row:
                    log_sum += logs[slot[link_id]]
                gm = math.exp(log_sum / len(row))
            out.append((int(version_sum[i]), int(counter_sum[i]), gm))
        return out
