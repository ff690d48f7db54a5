"""End-to-end data-plane traffic workloads.

``repro.traffic`` drives seeded user flows through the full stack — path
lookup at the path-server hierarchy, pluggable per-flow path selection,
hop-field-MAC-verified forwarding through border routers, SIG gateways
for legacy ASes — and reports per-link utilization, goodput over time,
per-flow latency and lookup-cache hit rates. See
:mod:`repro.traffic.engine` for the pipeline description.
"""

from .engine import TrafficConfig, TrafficEngine, TrafficFaultPlan
from .flows import Flow, FlowConfig, FlowGenerator
from .metrics import TrafficRunResult, path_key
from .worker import TrafficSpec, select_legacy_asns

__all__ = [
    "Flow",
    "FlowConfig",
    "FlowGenerator",
    "TrafficConfig",
    "TrafficEngine",
    "TrafficFaultPlan",
    "TrafficRunResult",
    "path_key",
    "TrafficSpec",
    "select_legacy_asns",
]
