"""The paper's primary contribution: SCION path-construction algorithms.

Exposes the beacon (PCB) model, the per-AS beacon store, the baseline
path construction algorithm, and the path-diversity-based path construction
algorithm (Section 4.2 / Algorithm 1) together with its scoring functions
and parameter search.
"""

from .pcb import PCB, Hop, PCB_HEADER_BYTES, PCB_HOP_FIXED_BYTES, SIGNATURE_BYTES
from .beacon_store import BeaconStore
from .link_history import LinkHistoryTable
from .sent_registry import SentRecord, SentRegistry
from .scoring import (
    DiversityParams,
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)
from .policy import Transmission
from .baseline import BaselineAlgorithm
from .diversity import DiversityAlgorithm
from .latency import LatencyAwareAlgorithm
from .tuning import coarse_then_fine_search, grid_search

__all__ = [
    "PCB",
    "Hop",
    "PCB_HEADER_BYTES",
    "PCB_HOP_FIXED_BYTES",
    "SIGNATURE_BYTES",
    "BeaconStore",
    "LinkHistoryTable",
    "SentRecord",
    "SentRegistry",
    "DiversityParams",
    "diversity_score",
    "exponent_f",
    "exponent_g",
    "final_score",
    "Transmission",
    "BaselineAlgorithm",
    "DiversityAlgorithm",
    "LatencyAwareAlgorithm",
    "coarse_then_fine_search",
    "grid_search",
]
