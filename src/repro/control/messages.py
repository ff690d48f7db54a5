"""Control-plane message accounting for the Table 1 analysis.

Table 1 classifies every SCION control-plane component by the *scope* of
its communication (AS-local, intra-ISD, global) and its *frequency* (hours,
minutes, seconds). This module defines the message tallies those components
write to, plus wire-size models for non-beacon messages (segment lookups,
registrations, revocations) derived from the segment layout of
:mod:`repro.core.pcb`.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from ..core.pcb import PCB_HEADER_BYTES, PCB_HOP_FIXED_BYTES, SIGNATURE_BYTES
from .segments import PathSegment

__all__ = [
    "Scope",
    "Component",
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


class _Tally:
    """What the log keeps of one component's messages. A flow is (sender,
    receiver, subject), the subject being what its messages are about (a
    lookup's destination AS, say); it holds one event time until a
    second, distinct one arrives."""

    __slots__ = ("count", "bytes", "scopes", "flows")

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0
        self.scopes: Set[Scope] = set()
        self.flows: Dict[tuple, Union[float, Set[float]]] = {}


class ControlMessageLog:
    """Per-component tallies of the control-plane messages logged: count,
    bytes, scopes and each flow's distinct event times. Memory grows with
    distinct (component, flow, time) triples, not with messages."""

    def __init__(self) -> None:
        self._tallies = {component: _Tally() for component in Component}

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
        tally = self._tallies[component]
        tally.count += 1
        tally.bytes += size
        tally.scopes.add(scope)
        flow = (sender, receiver, subject)
        times = tally.flows.get(flow)
        if times is None:
            tally.flows[flow] = time
        elif isinstance(times, set):
            times.add(time)
        elif times != time:
            tally.flows[flow] = {times, time}

    def _selected(self, component: Optional[Component]) -> Iterable[_Tally]:
        if component is None:
            return self._tallies.values()
        return (self._tallies[component],)

    def count(self, component: Optional[Component] = None) -> int:
        return sum(tally.count for tally in self._selected(component))

    def bytes(self, component: Optional[Component] = None) -> int:
        return sum(tally.bytes for tally in self._selected(component))

    def scopes(self, component: Component) -> Set[Scope]:
        return set(self._tallies[component].scopes)

    def flow_times(self, component: Component) -> Iterator[List[float]]:
        """Each flow's distinct event times, ascending."""
        for times in self._tallies[component].flows.values():
            yield sorted(times) if isinstance(times, set) else [times]

    def __len__(self) -> int:
        return self.count()


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
