"""Per-flow path selection: the one contract endpoints choose paths by.

A :class:`MultipathScheduler` splits one flow's packets across up to
``k`` of its candidate end-to-end paths; an endpoint *policy* (the
traffic engine's ``shortest-latency`` / ``most-disjoint`` /
``least-utilized``) is such a strategy run at ``k=1``. Following the
axiomatic treatment of multipath path selection (Baumeister et al.,
PAPERS.md), every strategy is a *pure* function of ``(flow key,
candidate set, k, context)`` and must satisfy three checkable axioms,
enforced by the property harness in :mod:`repro.multipath.axioms`:

* **efficiency** — every offered packet is assigned to exactly one
  selected path and at most ``k`` paths are selected;
* **loop-freedom** — only loop-free candidates are ever selected, each
  at most once;
* **fairness** — packets apportion to the strategy's declared weights by
  the largest-remainder method: no path deviates from its exact quota by
  a full packet, and a strictly larger weight never receives fewer
  packets.

Strategies never mutate shared state and break every tie on the path
identity ``(asns, link_ids)`` — a total order over distinct paths (see
:func:`latency_rank`) — so a split is reproducible from the flow key
alone, across processes, kernel backends and candidate permutations.
The only randomness is the seeded rotation of the round-robin remainder,
derived from ``blake2b(seed, flow_key)`` — never from a stateful RNG.
"""

from __future__ import annotations

import hashlib
from dataclasses import KW_ONLY, dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    FrozenSet,
    List,
    Mapping,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..dataplane.combinator import EndToEndPath

__all__ = [
    "PathAssignment",
    "PathSplit",
    "SchedulerContext",
    "MultipathScheduler",
    "STRATEGY_NAMES",
    "POLICY_NAMES",
    "get_strategy",
    "latency_rank",
    "largest_remainder",
    "split_diversity",
]


@dataclass(frozen=True, slots=True)
class PathAssignment:
    """One path's share of a split: the path, its packet count and the
    weight the strategy declared for it (the fairness axiom checks the
    counts against these weights)."""

    path: "EndToEndPath"
    packets: int
    weight: float


@dataclass(frozen=True, slots=True)
class PathSplit:
    """A complete, checkable split of one flow across selected paths.

    ``assignments`` covers *every* selected path, including those whose
    largest-remainder share rounded to zero packets — the axiom checkers
    need the declared weights of the full selection. Forwarding loops
    iterate :attr:`active` instead.
    """

    flow_key: int
    num_packets: int
    assignments: Tuple[PathAssignment, ...]

    @property
    def active(self) -> Tuple[PathAssignment, ...]:
        """Assignments that actually carry packets."""
        return tuple(a for a in self.assignments if a.packets > 0)


def _idle(link_id: int) -> float:
    return 0.0


@dataclass
class SchedulerContext:
    """What a scheduler may observe: a per-path latency oracle, the
    workload seed the round-robin rotation derives from, and — for the
    load- and history-aware rankings — the previous-tick utilization of
    a link and the links each ``(src, dst)`` pair used before. The two
    optional observations default to "idle network, no history", under
    which those rankings reduce to the latency ranking."""

    path_latency: Callable[["EndToEndPath"], float]
    _: KW_ONLY
    seed: int = 0
    #: Utilization of a link in [0, inf) (previous-tick view).
    link_utilization: Callable[[int], float] = _idle
    #: Links previously used by each (src, dst) pair.
    pair_links: Mapping[Tuple[int, int], FrozenSet[int]] = field(
        default_factory=dict
    )


def _identity(path: "EndToEndPath") -> Tuple:
    return (path.asns, path.link_ids)


def latency_rank(ctx: SchedulerContext, path: "EndToEndPath") -> Tuple:
    """The canonical ranking tuple: latency, then hop count, then the
    path identity. The final two components are a total order over
    *distinct* paths, so whatever a strategy prepends, its choice is a
    pure function of the candidate **set** — invariant under any
    permutation of the lookup order and independent of any RNG."""
    return (ctx.path_latency(path), path.num_links, path.asns, path.link_ids)


def _overlap_rank(ctx: SchedulerContext, used) -> Callable:
    """Rank by links shared with ``used``, then :func:`latency_rank`."""
    return lambda path: (
        sum(1 for link in path.link_ids if link in used),
        latency_rank(ctx, path),
    )


def largest_remainder(
    num_packets: int, weights: Sequence[float], *, offset: int = 0
) -> List[int]:
    """Apportion ``num_packets`` proportionally to ``weights`` (Hamilton's
    method): floor every exact quota, then hand the leftover packets out
    by largest fractional remainder. Exact-remainder ties rotate from
    position ``offset`` so equal-weight strategies can spread the
    remainder across flows deterministically.

    Guarantees (the fairness axiom): shares sum to ``num_packets``, every
    share is within one packet of its exact quota, and a strictly larger
    weight never yields a smaller share.
    """
    if num_packets < 0:
        raise ValueError("num_packets must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must all be positive")
    total = float(sum(weights))
    quotas = [num_packets * w / total for w in weights]
    shares = [int(q) for q in quotas]
    leftover = num_packets - sum(shares)
    if leftover:
        count = len(weights)
        order = sorted(
            range(count),
            key=lambda i: (-(quotas[i] - shares[i]), (i - offset) % count),
        )
        for i in order[:leftover]:
            shares[i] += 1
    return shares


def _rotation_digest(seed: int, flow_key: int, modulus: int) -> int:
    """Seeded, stateless rotation offset in ``[0, modulus)``."""
    if modulus <= 1:
        return 0
    digest = hashlib.blake2b(
        f"{seed}:{flow_key}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % modulus


def split_diversity(paths: Sequence["EndToEndPath"]) -> float:
    """Link-level diversity of a path set: unique links over total link
    slots. 1.0 means fully disjoint (a single path is trivially so);
    lower values measure how much infrastructure the paths share."""
    slots = sum(path.num_links for path in paths)
    if not slots:
        return 1.0
    unique = len({link for path in paths for link in path.link_ids})
    return unique / slots


class MultipathScheduler:
    """Base strategy: select the ``k`` candidates ranking lowest, declare
    weights, and let :meth:`split` apportion packets by largest
    remainder. Subclasses override :meth:`rank` (or :meth:`select`
    outright), :meth:`weights` and :meth:`rotation`."""

    name = "abstract"

    def rank(
        self, candidates: Sequence["EndToEndPath"], ctx: SchedulerContext
    ) -> Callable[["EndToEndPath"], Tuple]:
        """The key candidates rank by, lowest first."""
        return lambda path: latency_rank(ctx, path)

    def select(
        self,
        flow_key: int,
        candidates: Sequence["EndToEndPath"],
        k: int,
        ctx: SchedulerContext,
    ) -> List["EndToEndPath"]:
        return sorted(candidates, key=self.rank(candidates, ctx))[:k]

    def weights(
        self,
        flow_key: int,
        selected: Sequence["EndToEndPath"],
        ctx: SchedulerContext,
    ) -> List[float]:
        return [1.0] * len(selected)

    def rotation(
        self,
        flow_key: int,
        selected: Sequence["EndToEndPath"],
        ctx: SchedulerContext,
    ) -> int:
        """Remainder-tie rotation offset (0 unless the strategy seeds it)."""
        return 0

    def split(
        self,
        flow_key: int,
        num_packets: int,
        candidates: Sequence["EndToEndPath"],
        k: int,
        ctx: SchedulerContext,
    ) -> PathSplit:
        if num_packets < 1:
            raise ValueError("num_packets must be positive")
        if k < 1:
            raise ValueError("k must be positive")
        usable = [path for path in candidates if path.is_loop_free()]
        if not usable:
            raise ValueError("no loop-free candidate paths to split over")
        selected = self.select(flow_key, usable, k, ctx)
        if not selected or len(selected) > min(k, len(usable)):
            raise ValueError(
                f"strategy {self.name!r} selected {len(selected)} paths "
                f"from {len(usable)} candidates with k={k}"
            )
        weights = [float(w) for w in self.weights(flow_key, selected, ctx)]
        if len(weights) != len(selected) or any(w <= 0 for w in weights):
            raise ValueError(
                f"strategy {self.name!r} declared invalid weights {weights}"
            )
        shares = largest_remainder(
            num_packets,
            weights,
            offset=self.rotation(flow_key, selected, ctx),
        )
        return PathSplit(
            flow_key=flow_key,
            num_packets=num_packets,
            assignments=tuple(
                map(PathAssignment, selected, shares, weights)
            ),
        )


class ShortestLatencyScheduler(MultipathScheduler):
    """Equal split over the k lowest-latency paths; at ``k=1`` the
    endpoint policy minimizing end-to-end propagation latency (§4.2's
    latency criterion)."""

    name = "shortest-latency"


class SinglePathScheduler(MultipathScheduler):
    """The degenerate baseline: all packets ride the lowest-latency path
    whatever ``k`` allows. Exists so multipath runs can compare against
    single-path on the exact same selection machinery."""

    name = "single"

    def select(self, flow_key, candidates, k, ctx):
        return super().select(flow_key, candidates, 1, ctx)


class MostDisjointScheduler(MultipathScheduler):
    """Equal split over the k paths overlapping least with the links
    this pair used before (``ctx.pair_links``).

    At ``k=1`` this spreads a pair's consecutive flows over disjoint
    infrastructure, the failure-resilience-maximizing strategy of the
    axiomatic analysis: a single link failure then hits the fewest of
    the pair's flows.

    **Ordering contract** (shared with :class:`MaxDisjointScheduler`):
    candidates rank by ``(overlap with the pair's previously used links,
    latency_rank)``, so the winner is identical across processes, kernel
    backends and candidate permutations — determinism needs no seed
    because no tie survives the full tuple. The regression test
    ``test_most_disjoint_permutation_invariant`` pins this contract.
    """

    name = "most-disjoint"

    def rank(self, candidates, ctx):
        pair = (candidates[0].source, candidates[0].destination)
        return _overlap_rank(ctx, ctx.pair_links.get(pair, frozenset()))


class LeastUtilizedScheduler(MultipathScheduler):
    """Equal split over the k paths with the coolest bottleneck (most
    utilized) link. The load-aware strategy: endpoints observe
    utilization (in practice via measurements or congestion signals) and
    route around hot links."""

    name = "least-utilized"

    def rank(self, candidates, ctx):
        utilization = ctx.link_utilization
        return lambda path: (
            max((utilization(link) for link in path.link_ids), default=0.0),
            latency_rank(ctx, path),
        )


class RoundRobinScheduler(MultipathScheduler):
    """Equal split over the k lowest-latency paths, with the remainder
    rotated by a seeded digest of the flow key — successive flows spread
    their leftover packets over different paths, the classic round-robin
    behavior, without any stateful cursor."""

    name = "round-robin"

    def rotation(self, flow_key, selected, ctx):
        return _rotation_digest(ctx.seed, flow_key, len(selected))


class WeightedEcmpScheduler(MultipathScheduler):
    """Weighted ECMP over the k lowest-latency paths: each path's weight
    is the inverse of its propagation latency, so faster paths carry
    proportionally more of the flow."""

    name = "weighted-ecmp"

    def weights(self, flow_key, selected, ctx):
        return [1.0 / max(ctx.path_latency(path), 1e-9) for path in selected]


class MaxDisjointScheduler(MultipathScheduler):
    """Greedy disjointness-maximizing selection: start from the
    lowest-latency path, then repeatedly add the candidate sharing the
    fewest links with everything already chosen (ties: latency, then the
    path-identity total order — the most-disjoint ordering contract).
    Equal split: the point is failure decorrelation, not load shaping."""

    name = "max-disjoint"

    def select(self, flow_key, candidates, k, ctx):
        remaining = sorted(candidates, key=_identity)
        first = min(remaining, key=lambda p: latency_rank(ctx, p))
        chosen = [first]
        remaining.remove(first)
        used = set(first.link_ids)
        while remaining and len(chosen) < k:
            best = min(remaining, key=_overlap_rank(ctx, used))
            chosen.append(best)
            remaining.remove(best)
            used.update(best.link_ids)
        return chosen


_STRATEGIES = {
    strategy.name: strategy
    for strategy in (
        SinglePathScheduler(),
        RoundRobinScheduler(),
        WeightedEcmpScheduler(),
        MaxDisjointScheduler(),
        ShortestLatencyScheduler(),
        MostDisjointScheduler(),
        LeastUtilizedScheduler(),
    )
}

#: The strategies the churn experiment, its CLI and its dataset sweep:
#: the baseline first, then the multipath strategies.
STRATEGY_NAMES: Tuple[str, ...] = (
    "single",
    "round-robin",
    "weighted-ecmp",
    "max-disjoint",
)

#: The rankings the traffic experiment sweeps as k=1 endpoint policies:
#: latency first (the default), then the alternatives.
POLICY_NAMES: Tuple[str, ...] = (
    "shortest-latency",
    "most-disjoint",
    "least-utilized",
)


def get_strategy(name: str) -> MultipathScheduler:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown multipath strategy {name!r}; "
            f"choose from {sorted(_STRATEGIES)}"
        ) from None
