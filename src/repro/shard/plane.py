"""Cross-shard message plane.

Between beaconing intervals, shards exchange boundary PCBs through the
coordinator-owned plane: transmissions whose receiver lives in another
shard, wrapped as :class:`PlaneMessage`.

Determinism contract: before a shard applies its inbound messages they are
sorted by the canonical key ``(interval, src AS, seq, link id)``, where
``seq`` is the per-sender emission index within the interval. The
single-process simulator emits transmissions sender-by-sender in ascending
ASN order, each sender's in emission order — exactly the canonical order —
so every receiver's beacon store sees the same insertion sequence (and
therefore makes the same eviction decisions) for any shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple

from ..core.pcb import PCB

__all__ = [
    "PlaneMessage",
    "MessagePlane",
    "canonical_order",
]


@dataclass(frozen=True)
class PlaneMessage:
    """One boundary transmission crossing shards between intervals."""

    #: Global beaconing interval the transmission was emitted in.
    interval: int
    #: Sending AS.
    src: int
    #: Emission index among ``src``'s transmissions this interval.
    seq: int
    #: Link the beacon traversed (present in the receiver's halo).
    link_id: int
    #: Receiving AS (owned by the destination shard).
    receiver: int
    pcb: PCB

    @property
    def sort_key(self) -> Tuple[int, int, int, int]:
        return (self.interval, self.src, self.seq, self.link_id)


def canonical_order(messages: Sequence[PlaneMessage]) -> List[PlaneMessage]:
    """Messages in the canonical delivery order (see module docstring)."""
    return sorted(messages, key=lambda message: message.sort_key)


@dataclass
class MessagePlane:
    """Routes boundary messages to per-shard inboxes (coordinator-owned)."""

    shard_of: Mapping[int, int]
    num_shards: int
    _inboxes: List[List[PlaneMessage]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._inboxes = [[] for _ in range(self.num_shards)]

    def route(self, messages: Sequence[PlaneMessage]) -> None:
        for message in messages:
            self._inboxes[self.shard_of[message.receiver]].append(message)

    def take(self, shard: int) -> List[PlaneMessage]:
        """Drain shard's inbox in canonical delivery order."""
        messages = canonical_order(self._inboxes[shard])
        self._inboxes[shard] = []
        return messages
