"""Deployment models from Section 3: SIGs, IXPs, leased-line economics."""

from .leased_line import ConnectivityRequirement, CostComparison, compare_costs
from .sig import ASMap, CarrierGradeSIG, IPPacket, ScionIPGateway
from .ixp import ExposedIXP, big_switch_peering

__all__ = [
    "ConnectivityRequirement",
    "CostComparison",
    "compare_costs",
    "ASMap",
    "CarrierGradeSIG",
    "IPPacket",
    "ScionIPGateway",
    "ExposedIXP",
    "big_switch_peering",
]
