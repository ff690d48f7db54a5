"""Topology substrate: AS-level multigraphs, CAIDA formats, generators."""

from .model import ASNode, Link, LinkEnd, Relationship, Topology, TopologyError
from .generator import (
    InternetGeneratorConfig,
    generate_core_mesh,
    generate_internet,
)
from .caida import (
    load_topology,
    parse_as_rel,
    parse_as_rel_geo,
    write_as_rel,
    write_as_rel_geo,
)
from .isd import (
    assign_isds,
    customer_cone,
    promote_core_links,
    prune_to_highest_degree,
    rank_by_customer_cone,
)
from .scionlab import SCIONLAB_CORE_COUNT, scionlab_core
from .latency import LatencyModel

__all__ = [
    "ASNode",
    "Link",
    "LinkEnd",
    "Relationship",
    "Topology",
    "TopologyError",
    "InternetGeneratorConfig",
    "generate_core_mesh",
    "generate_internet",
    "load_topology",
    "parse_as_rel",
    "parse_as_rel_geo",
    "write_as_rel",
    "write_as_rel_geo",
    "assign_isds",
    "customer_cone",
    "promote_core_links",
    "prune_to_highest_degree",
    "rank_by_customer_cone",
    "SCIONLAB_CORE_COUNT",
    "scionlab_core",
    "LatencyModel",
]
