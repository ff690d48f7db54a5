"""BGP and BGPsec comparison substrate."""

from .messages import bgp_update_size, BGP_HEADER_BYTES, NLRI_BYTES
from .bgpsec import bgpsec_update_size, BGPSEC_SIGNATURE_BYTES
from .policy import NeighborKind, Route, may_export
from .rib import AdjRIBIn, LocRIB
from .speaker import Advertisement, Speaker
from .simulator import BGPConfig, BGPSimulation
from .prefixes import assign_prefix_counts
from .churn import BGPChurnModel, monthly_bgp_bytes, monthly_bgpsec_bytes
from .extrapolation import (
    OutsideOriginMapping,
    map_outside_origins,
    tier1_hop_distance,
)

__all__ = [
    "bgp_update_size",
    "BGP_HEADER_BYTES",
    "NLRI_BYTES",
    "bgpsec_update_size",
    "BGPSEC_SIGNATURE_BYTES",
    "NeighborKind",
    "Route",
    "may_export",
    "AdjRIBIn",
    "LocRIB",
    "Advertisement",
    "Speaker",
    "BGPConfig",
    "BGPSimulation",
    "assign_prefix_counts",
    "BGPChurnModel",
    "monthly_bgp_bytes",
    "monthly_bgpsec_bytes",
    "OutsideOriginMapping",
    "map_outside_origins",
    "tier1_hop_distance",
]
