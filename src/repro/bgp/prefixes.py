"""Per-AS announced prefix counts.

The paper weighs per-prefix BGPsec overhead by "the number of prefixes its
AS announces", read from RouteViews. Without the dataset we sample a
deterministic heavy-tailed assignment: prefix counts in the real Internet
are strongly skewed and correlate with network size, which degree proxies.
"""

from __future__ import annotations

import math
import random
from typing import Dict

from ..topology.model import Topology

__all__ = ["assign_prefix_counts"]

#: Topology-wide mean prefix count per AS.
MEAN_PREFIXES = 10.0
#: Log-space standard deviation of the lognormal noise.
PREFIX_SIGMA = 1.0


def assign_prefix_counts(topology: Topology, *, seed: int = 0) -> Dict[int, int]:
    """Deterministic prefix count per AS (>= 1).

    Counts follow ``degree-weight x lognormal`` noise, normalized so the
    topology-wide mean is approximately :data:`MEAN_PREFIXES` per AS.
    """
    rng = random.Random(seed)
    raw: Dict[int, float] = {}
    for asn in sorted(topology.asns()):
        degree_weight = 1.0 + math.log1p(topology.degree(asn))
        noise = math.exp(rng.gauss(0.0, PREFIX_SIGMA))
        raw[asn] = degree_weight * noise
    scale = MEAN_PREFIXES * len(raw) / sum(raw.values())
    return {asn: max(1, round(value * scale)) for asn, value in raw.items()}
