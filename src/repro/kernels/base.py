"""The kernel backend contract.

A :class:`KernelBackend` implements the three measured hot loops of the
reproduction — per-flow packet forwarding over MAC-verified hop fields,
chained hop-field MAC verification, and beaconing candidate scoring over
Link History Tables — behind one interface, so the engines can swap a
pure-Python reference implementation for a batched (NumPy) one without
touching results.

Determinism contract (mirrors ``repro.shard``): every backend must
produce **byte-identical** metrics, selected paths, and telemetry
snapshots to the ``python`` reference backend. A backend is a pure
performance choice; it lives on task objects (never on cache-key-feeding
specs) and is enforced by the equivalence harness in
:mod:`repro.kernels.equivalence`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.link_history import LinkHistoryTable
    from ..dataplane.packet import ScionPacket
    from ..dataplane.router import RouterTable

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """One implementation of the measured hot loops.

    Backends may keep private memo state (e.g. per-path validation
    caches), but that state must never be observable in results: a
    backend with a cold cache and one with a warm cache return the same
    values. State is dropped on pickling so warm-run snapshots stay
    backend-agnostic.
    """

    #: Registry name (``--backend`` value).
    name: str = ""

    @abstractmethod
    def deliver_flow(
        self,
        routers: "RouterTable",
        packet: "ScionPacket",
        count: int,
        *,
        now: float,
    ) -> Tuple[int, int]:
        """Forward ``count`` identical packets of one flow.

        Returns ``(delivered, hops)`` where ``delivered`` is the number
        of packets that reached the destination and ``hops`` the number
        of ASes each delivered packet traversed (source included; 0 when
        nothing was delivered). Router state is immutable within a run,
        so delivery is all-or-nothing per flow — exactly the semantics of
        the reference per-packet loop.
        """

    @abstractmethod
    def batch_diversity(
        self,
        table: "LinkHistoryTable",
        rows: Sequence[Tuple[int, ...]],
    ) -> List[Tuple[int, int, float]]:
        """Score candidate link rows against one Link History Table.

        ``rows[i]`` is the counted-links tuple of candidate ``i`` (path
        links plus egress link). Returns, per row and bit-identical to
        the scalar table calls::

            (table.version(row),
             sum(table.counter(l) for l in row),
             table.geometric_mean(row))
        """
