"""Control service substrate: segments, path servers, revocation, network."""

from .segments import PathSegment, SegmentType
from .messages import (
    Component,
    ControlMessageLog,
    Scope,
    lookup_request_size,
    revocation_size,
    segment_wire_size,
)
from .path_server import CorePathServer, LocalPathServer, SegmentCache
from .revocation import Revocation, RevocationService, SCMPNotification
from .network import ScionNetwork

__all__ = [
    "PathSegment",
    "SegmentType",
    "Component",
    "ControlMessageLog",
    "Scope",
    "lookup_request_size",
    "revocation_size",
    "segment_wire_size",
    "CorePathServer",
    "LocalPathServer",
    "SegmentCache",
    "Revocation",
    "RevocationService",
    "SCMPNotification",
    "ScionNetwork",
]
