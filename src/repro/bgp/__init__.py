"""BGP and BGPsec comparison substrate."""

from .messages import bgp_update_size
from .bgpsec import bgpsec_update_size
from .policy import NeighborKind, Route, may_export
from .rib import AdjRIBIn, LocRIB
from .speaker import Advertisement, Speaker
from .simulator import BGPSimulation
from .prefixes import assign_prefix_counts
from .churn import BGPChurnModel, monthly_bgp_bytes, monthly_bgpsec_bytes
from .extrapolation import map_outside_origins, tier1_hop_distance

__all__ = [
    "bgp_update_size",
    "bgpsec_update_size",
    "NeighborKind",
    "Route",
    "may_export",
    "AdjRIBIn",
    "LocRIB",
    "Advertisement",
    "Speaker",
    "BGPSimulation",
    "assign_prefix_counts",
    "BGPChurnModel",
    "monthly_bgp_bytes",
    "monthly_bgpsec_bytes",
    "map_outside_origins",
    "tier1_hop_distance",
]
