"""Control service substrate: segments, path servers, revocation, network."""

from .segments import PathSegment, SegmentType
from .messages import Component, ControlMessageLog, Scope, segment_wire_size
from .path_server import CorePathServer, LocalPathServer, SegmentCache
from .revocation import RevocationService
from .network import ScionNetwork

__all__ = [
    "PathSegment",
    "SegmentType",
    "Component",
    "ControlMessageLog",
    "Scope",
    "segment_wire_size",
    "CorePathServer",
    "LocalPathServer",
    "SegmentCache",
    "RevocationService",
    "ScionNetwork",
]
