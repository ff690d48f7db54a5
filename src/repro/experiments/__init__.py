"""Experiment harnesses: one module per table/figure of the paper."""

from .config import TEST_SCALE, get_scale
from .common import (
    build_core_topologies,
    build_full_stack_topology,
    build_large_isd,
)
from .figure6 import sample_pairs

__all__ = [
    "TEST_SCALE",
    "get_scale",
    "build_core_topologies",
    "build_full_stack_topology",
    "build_large_isd",
    "sample_pairs",
]
