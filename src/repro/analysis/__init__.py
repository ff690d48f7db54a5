"""Analysis layer: path quality (resilience/capacity), overhead, statistics."""

from .stats import EmpiricalCDF
from .flows import (
    flow_graph_from_links,
    flow_graph_from_topology,
    max_flow,
    unit_max_flow_between,
)
from .resilience import links_of_paths, path_set_resilience
from .overhead import (
    SECONDS_PER_MONTH,
    OverheadComparison,
    scale_to_month,
)

__all__ = [
    "EmpiricalCDF",
    "flow_graph_from_links",
    "flow_graph_from_topology",
    "max_flow",
    "unit_max_flow_between",
    "links_of_paths",
    "path_set_resilience",
    "SECONDS_PER_MONTH",
    "OverheadComparison",
    "scale_to_month",
]
