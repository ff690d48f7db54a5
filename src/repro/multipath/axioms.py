"""Axiomatic property checks for multipath schedulers.

Baumeister et al. analyze multipath path-selection strategies against
formal axioms rather than benchmarks; this module is the executable
version for the strategies in :mod:`repro.multipath.scheduler`. Each
checker takes one :class:`~repro.multipath.scheduler.PathSplit` and
returns a (possibly empty) list of :class:`AxiomViolation` — the harness
(:func:`check_strategy`) sweeps every registered strategy across seeded
synthetic path universes, so the axioms are pinned as properties over
many topologies, not examples.

The three axioms:

* **efficiency** — packet conservation: assignments sum exactly to the
  flow's packet count, at most ``k`` paths are selected, and every
  selected path came from the candidate set;
* **loop-freedom** — every selected path is loop-free at the AS level
  and no path appears twice in one split;
* **fairness** — the packet counts are a largest-remainder apportionment
  of the declared weights: every count is within one packet of its exact
  quota, and a strictly larger weight never receives fewer packets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..dataplane.combinator import EndToEndPath
from .scheduler import (
    POLICY_NAMES,
    STRATEGY_NAMES,
    MultipathScheduler,
    PathSplit,
    SchedulerContext,
    get_strategy,
)

__all__ = [
    "AxiomViolation",
    "check_efficiency",
    "check_loop_freedom",
    "check_fairness",
    "check_split",
    "check_strategy",
    "check_all_strategies",
    "synthetic_universe",
]


@dataclass(frozen=True)
class AxiomViolation:
    """One broken axiom, human-readable: which axiom, which strategy
    produced the split, and what exactly went wrong."""

    axiom: str
    strategy: str
    detail: str


def check_efficiency(
    split: PathSplit,
    candidates: Sequence[EndToEndPath],
    k: int,
    strategy: str = "",
) -> List[AxiomViolation]:
    violations: List[AxiomViolation] = []
    total = sum(a.packets for a in split.assignments)
    if total != split.num_packets:
        violations.append(
            AxiomViolation(
                "efficiency",
                strategy,
                f"assigned {total} packets, flow offered {split.num_packets}",
            )
        )
    if not split.assignments or len(split.assignments) > k:
        violations.append(
            AxiomViolation(
                "efficiency",
                strategy,
                f"selected {len(split.assignments)} paths with k={k}",
            )
        )
    if any(a.packets < 0 for a in split.assignments):
        violations.append(
            AxiomViolation("efficiency", strategy, "negative packet share")
        )
    identities = {(p.asns, p.link_ids) for p in candidates}
    for assignment in split.assignments:
        identity = (assignment.path.asns, assignment.path.link_ids)
        if identity not in identities:
            violations.append(
                AxiomViolation(
                    "efficiency",
                    strategy,
                    f"selected path {identity} is not a candidate",
                )
            )
    return violations


def check_loop_freedom(
    split: PathSplit, strategy: str = ""
) -> List[AxiomViolation]:
    violations: List[AxiomViolation] = []
    seen = set()
    for assignment in split.assignments:
        path = assignment.path
        if not path.is_loop_free():
            violations.append(
                AxiomViolation(
                    "loop-freedom",
                    strategy,
                    f"selected path visits an AS twice: {path.asns}",
                )
            )
        identity = (path.asns, path.link_ids)
        if identity in seen:
            violations.append(
                AxiomViolation(
                    "loop-freedom",
                    strategy,
                    f"path selected twice in one split: {identity}",
                )
            )
        seen.add(identity)
    return violations


def check_fairness(
    split: PathSplit, strategy: str = ""
) -> List[AxiomViolation]:
    violations: List[AxiomViolation] = []
    if not split.assignments:
        return violations
    total_weight = sum(a.weight for a in split.assignments)
    if total_weight <= 0:
        return [
            AxiomViolation(
                "fairness", strategy, f"non-positive weight sum {total_weight}"
            )
        ]
    for assignment in split.assignments:
        quota = split.num_packets * assignment.weight / total_weight
        if abs(assignment.packets - quota) >= 1.0 + 1e-9:
            violations.append(
                AxiomViolation(
                    "fairness",
                    strategy,
                    f"share {assignment.packets} deviates a full packet "
                    f"from quota {quota:.3f} (weight {assignment.weight})",
                )
            )
    for a in split.assignments:
        for b in split.assignments:
            if a.weight > b.weight and a.packets < b.packets:
                violations.append(
                    AxiomViolation(
                        "fairness",
                        strategy,
                        f"weight {a.weight:.4f} got {a.packets} packets but "
                        f"weight {b.weight:.4f} got {b.packets}",
                    )
                )
    return violations


def check_split(
    split: PathSplit,
    candidates: Sequence[EndToEndPath],
    k: int,
    strategy: str = "",
) -> List[AxiomViolation]:
    """All three axioms over one split."""
    return (
        check_efficiency(split, candidates, k, strategy)
        + check_loop_freedom(split, strategy)
        + check_fairness(split, strategy)
    )


# ------------------------------------------------------- seeded universes


def _link_latency(seed: int, link_id: int) -> float:
    digest = hashlib.blake2b(
        f"lat:{seed}:{link_id}".encode("ascii"), digest_size=4
    ).digest()
    return 0.002 + (int.from_bytes(digest, "big") % 10_000) / 10_000 * 0.08


#: Candidate paths per synthetic universe, and the most links one path has.
UNIVERSE_PATHS = 8
UNIVERSE_MAX_HOPS = 6


def synthetic_universe(seed: int) -> Tuple[List[EndToEndPath], SchedulerContext]:
    """One seeded candidate universe: :data:`UNIVERSE_PATHS` loop-free
    end-to-end paths between a fixed (src, dst) pair over a synthetic AS
    pool, plus a context with a deterministic per-link latency oracle.

    Paths vary in length, share infrastructure through a stable link-id
    map (the same AS pair always gets the same link), and are unique by
    identity — the shape a real lookup returns, cheap enough to sweep the
    axiom harness across dozens of seeds.
    """
    rng = random.Random(seed)
    src, dst = 1, 2
    pool = list(range(10, 10 + UNIVERSE_PATHS * 2))
    link_ids: Dict[Tuple[int, int], int] = {}

    def link_of(a: int, b: int) -> int:
        pair = (min(a, b), max(a, b))
        if pair not in link_ids:
            link_ids[pair] = 100_000 + len(link_ids)
        return link_ids[pair]

    paths: List[EndToEndPath] = []
    identities = set()
    attempts = 0
    while len(paths) < UNIVERSE_PATHS and attempts < UNIVERSE_PATHS * 20:
        attempts += 1
        hops = rng.randint(1, UNIVERSE_MAX_HOPS - 1)
        middle = rng.sample(pool, hops)
        asns = (src, *middle, dst)
        links = tuple(
            link_of(asns[i], asns[i + 1]) for i in range(len(asns) - 1)
        )
        if (asns, links) in identities:
            continue
        identities.add((asns, links))
        paths.append(
            EndToEndPath(asns=asns, link_ids=links, expires_at=1e9)
        )

    def path_latency(path: EndToEndPath) -> float:
        return sum(_link_latency(seed, link) for link in path.link_ids)

    return paths, SchedulerContext(path_latency, seed=seed)


def check_strategy(
    strategy: MultipathScheduler,
    universes: Sequence[Tuple[List[EndToEndPath], SchedulerContext]],
    *,
    k_values: Sequence[int] = (1, 2, 3),
    packet_counts: Sequence[int] = (1, 5, 12),
    flow_keys: Sequence[int] = (0, 1, 7),
) -> List[AxiomViolation]:
    """Sweep one strategy across universes x k x packets x flow keys and
    collect every axiom violation (empty means the strategy is sound over
    the sweep)."""
    violations: List[AxiomViolation] = []
    for candidates, ctx in universes:
        if not candidates:
            continue
        for k in k_values:
            for num_packets in packet_counts:
                for flow_key in flow_keys:
                    split = strategy.split(
                        flow_key, num_packets, candidates, k, ctx
                    )
                    violations.extend(
                        check_split(split, candidates, k, strategy.name)
                    )
    return violations


def check_all_strategies(
    num_universes: int = 24, **kwargs
) -> List[AxiomViolation]:
    """The full harness: every registered strategy over ``num_universes``
    seeded universes. Used by the test suite and the bench tool."""
    universes = [synthetic_universe(seed) for seed in range(num_universes)]
    violations: List[AxiomViolation] = []
    for name in STRATEGY_NAMES + POLICY_NAMES:
        violations.extend(
            check_strategy(get_strategy(name), universes, **kwargs)
        )
    return violations
