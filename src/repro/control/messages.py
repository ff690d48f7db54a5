"""Control-plane message accounting for the Table 1 analysis.

Table 1 classifies every SCION control-plane component by the *scope* of
its communication (AS-local, intra-ISD, global) and its *frequency* (hours,
minutes, seconds). This module defines the message log those components
write to, plus wire-size models for non-beacon messages (segment lookups,
registrations, revocations) derived from the segment layout of
:mod:`repro.core.pcb`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..core.pcb import PCB_HEADER_BYTES, PCB_HOP_FIXED_BYTES, SIGNATURE_BYTES
from .segments import PathSegment

__all__ = [
    "Scope",
    "Component",
    "ControlMessage",
    "ControlMessageLog",
    "segment_wire_size",
    "lookup_request_size",
    "revocation_size",
]


class Scope(enum.Enum):
    """How far a control-plane message travels."""

    AS = "AS"
    ISD = "ISD"
    GLOBAL = "Global"


class Component(enum.Enum):
    """The control-plane components of Table 1."""

    CORE_BEACONING = "Core Beaconing"
    INTRA_ISD_BEACONING = "Intra-ISD Beaconing"
    DOWN_SEGMENT_LOOKUP = "Down-Path Segment Lookup"
    CORE_SEGMENT_LOOKUP = "Core-Path Segment Lookup"
    ENDPOINT_PATH_LOOKUP = "Endpoint Path Lookup"
    PATH_REGISTRATION = "Path (De-)Registration"
    PATH_REVOCATION = "Path Revocation"


@dataclass(frozen=True)
class ControlMessage:
    """One logged control-plane message.

    ``subject`` identifies what the message is about (the destination AS of
    a lookup, for instance) so per-destination refresh frequencies can be
    derived from the log.
    """

    component: Component
    scope: Scope
    size: int
    time: float
    sender: int
    receiver: int
    subject: Optional[int] = None


class ControlMessageLog:
    """Append-only log with per-component aggregation."""

    def __init__(self) -> None:
        self._messages: List[ControlMessage] = []

    def record(self, message: ControlMessage) -> None:
        self._messages.append(message)

    def log(
        self,
        component: Component,
        scope: Scope,
        size: int,
        time: float,
        sender: int,
        receiver: int,
        subject: Optional[int] = None,
    ) -> None:
        self.record(
            ControlMessage(
                component, scope, size, time, sender, receiver, subject
            )
        )

    def messages(
        self, component: Optional[Component] = None
    ) -> List[ControlMessage]:
        if component is None:
            return list(self._messages)
        return [m for m in self._messages if m.component is component]

    def count(self, component: Optional[Component] = None) -> int:
        return len(self.messages(component))

    def bytes(self, component: Optional[Component] = None) -> int:
        return sum(m.size for m in self.messages(component))

    def scopes(self, component: Component) -> set:
        return {m.scope for m in self.messages(component)}

    def times(self, component: Component) -> List[float]:
        return [m.time for m in self.messages(component)]

    def __len__(self) -> int:
        return len(self._messages)


def segment_wire_size(segment: PathSegment) -> int:
    """Serialized size of a path segment (same layout as a beacon)."""
    return PCB_HEADER_BYTES + len(segment.asns) * (
        PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
    )


#: A lookup request: destination (ISD, AS) plus transport/auth overhead.
LOOKUP_REQUEST_BYTES = 64
#: A revocation: the revoked (AS, interface) pair, timestamps, signature.
REVOCATION_BYTES = 40 + SIGNATURE_BYTES


def lookup_request_size() -> int:
    return LOOKUP_REQUEST_BYTES


def revocation_size() -> int:
    return REVOCATION_BYTES
