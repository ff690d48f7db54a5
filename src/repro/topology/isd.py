"""Isolation-domain construction and topology sampling.

Implements the exact topology-preparation recipes of Section 5.1:

* **Core network extraction** — "We use the subset of the 2000
  highest-degree ASes from the topology of 12000 ASes in the CAIDA
  AS-rel-geo topology, by incrementally pruning the 10000 lowest-degree
  ASes": :func:`prune_to_highest_degree`.
* **ISD assignment** — "we assume 200 ISDs with 10 core ASes each":
  :func:`assign_isds` partitions a core network into ISDs of a fixed size
  using graph locality so ISDs are internally well connected.
* **Large-ISD construction** — "we first select its core ASes by picking
  the 11 highest-rank American ASes (by customer cone size) ... Then, we add
  their direct or indirect customers to the ISD by iterating down the
  Internet hierarchy": :func:`customer_cone`, ranked by
  :func:`rank_by_customer_cone`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import Relationship, Topology

__all__ = [
    "prune_to_highest_degree",
    "customer_cone",
    "rank_by_customer_cone",
    "assign_isds",
    "promote_core_links",
]


def prune_to_highest_degree(topo: Topology, keep: int) -> Topology:
    """Incrementally prune lowest-degree ASes until ``keep`` remain.

    Pruning is *incremental* (as in the paper): removing an AS lowers its
    neighbors' degrees, which can change which AS is pruned next. Returns a
    new topology; the input is not modified.
    """
    if keep <= 0:
        raise ValueError("keep must be positive")
    if keep >= topo.num_ases:
        return topo.subtopology(topo.asns(), name=f"{topo.name}-pruned")
    work = topo.subtopology(topo.asns(), name=f"{topo.name}-top{keep}")
    # A simple priority loop; degrees change as we prune, so recompute the
    # current minimum each round from a lazily maintained bucket structure.
    import heapq

    heap = [(work.degree(asn), asn) for asn in work.asns()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    while work.num_ases > keep and heap:
        degree, asn = heapq.heappop(heap)
        if asn in removed:
            continue
        if degree != work.degree(asn):
            heapq.heappush(heap, (work.degree(asn), asn))
            continue
        neighbors = work.neighbors(asn)
        work.remove_as(asn)
        removed.add(asn)
        for neighbor in neighbors:
            heapq.heappush(heap, (work.degree(neighbor), neighbor))
    return work


def customer_cone(topo: Topology, asn: int) -> Set[int]:
    """Direct and indirect customers of ``asn`` (excluding ``asn`` itself)."""
    cone: Set[int] = set()
    frontier = deque([asn])
    while frontier:
        current = frontier.popleft()
        for customer in topo.customers(current):
            if customer != asn and customer not in cone:
                cone.add(customer)
                frontier.append(customer)
    return cone


def rank_by_customer_cone(topo: Topology) -> List[int]:
    """ASes sorted by decreasing customer-cone size (CAIDA AS-rank style)."""
    sizes = {asn: len(customer_cone(topo, asn)) for asn in topo.asns()}
    return sorted(sizes, key=lambda asn: (-sizes[asn], asn))


def assign_isds(
    topo: Topology,
    num_isds: int,
    *,
    first_isd: int = 1,
) -> Dict[int, int]:
    """Partition a core network into ``num_isds`` contiguous ISDs.

    ISDs in practice are geographic/jurisdictional groupings of nearby ASes;
    we approximate this by growing all ISDs *simultaneously* with
    breadth-first search from seed ASes, always expanding the currently
    smallest ISD — so each ISD is a connected, local cluster and sizes
    stay balanced. A few deterministic seed placements are tried
    (high-degree hubs, mutually distant ASes, hashed samples) and the most
    size-balanced connected partition wins. Marks every AS as core and
    sets its ``isd``; returns the asn → isd mapping.

    Invariants (property-tested in ``tests/test_topology_isd.py``): every
    AS lands in exactly one ISD, every ISD is non-empty, and on a
    connected topology every ISD's induced subgraph is connected — ISD
    members reach each other without leaving the ISD.
    """
    asns = sorted(topo.asns())
    if num_isds < 1:
        raise ValueError("num_isds must be >= 1")
    if num_isds > len(asns):
        raise ValueError("more ISDs than ASes")
    best: Optional[Dict[int, int]] = None
    best_score: Optional[Tuple[float, int]] = None
    for attempt, seeds in enumerate(_seed_sets(topo, num_isds)):
        assignment = _grow_isds(topo, seeds, first_isd)
        _repair_isd_connectivity(topo, assignment)
        _rebalance_isds(topo, assignment)
        sizes: Dict[int, int] = {}
        for isd in assignment.values():
            sizes[isd] = sizes.get(isd, 0) + 1
        score = (max(sizes.values()) / min(sizes.values()), attempt)
        if best_score is None or score < best_score:
            best, best_score = assignment, score
        if best_score[0] <= 2.0:
            break  # balanced enough; later placements can't matter much
    assert best is not None
    for asn, isd_id in best.items():
        node = topo.as_node(asn)
        node.isd = isd_id
        node.is_core = True
    return best


def _seed_sets(topo: Topology, num_isds: int) -> Iterable[List[int]]:
    """Candidate seed placements for the simultaneous growth, in the
    order they are tried. All deterministic: hub ASes (high degree,
    pairwise non-adjacent where possible), mutually distant ASes, then a
    few hash-shuffled samples to escape adversarial geometries."""
    asns = sorted(topo.asns())
    ranked = sorted(asns, key=lambda asn: (-topo.degree(asn), asn))

    # Highest-degree hubs, preferring pairwise non-adjacent ones.
    hubs: List[int] = []
    for asn in ranked:
        if len(hubs) == num_isds:
            break
        if all(asn not in topo.neighbor_set(hub) for hub in hubs):
            hubs.append(asn)
    for asn in ranked:
        if len(hubs) == num_isds:
            break
        if asn not in hubs:
            hubs.append(asn)
    yield hubs

    # Mutually distant: farthest-point sampling by BFS distance.
    distant = [ranked[0]]
    distance = {ranked[0]: 0}
    frontier = deque(distant)
    while frontier:
        asn = frontier.popleft()
        for neighbor in sorted(topo.neighbors(asn)):
            if neighbor not in distance:
                distance[neighbor] = distance[asn] + 1
                frontier.append(neighbor)
    while len(distant) < num_isds:
        seed = max(
            (asn for asn in asns if asn not in distant),
            key=lambda asn: (distance.get(asn, -1), topo.degree(asn), -asn),
        )
        distant.append(seed)
        frontier = deque([seed])
        distance[seed] = 0
        while frontier:
            asn = frontier.popleft()
            for neighbor in sorted(topo.neighbors(asn)):
                if distance.get(neighbor, len(asns)) > distance[asn] + 1:
                    distance[neighbor] = distance[asn] + 1
                    frontier.append(neighbor)
    yield distant

    # Hash-shuffled samples (seeded RNG: deterministic for a given
    # topology size, independent of any global random state).
    import random as _random

    for salt in range(4):
        rng = _random.Random(len(asns) * 1000003 + salt)
        yield rng.sample(asns, num_isds)


def _grow_isds(
    topo: Topology, seeds: List[int], first_isd: int
) -> Dict[int, int]:
    """Simultaneous BFS growth: expand the smallest ISD by one adjacent
    unassigned AS per round; an enclosed ISD (empty frontier) stops."""
    assignment: Dict[int, int] = {}
    unassigned = set(topo.asns())
    frontiers: Dict[int, deque] = {}
    sizes: Dict[int, int] = {}
    for offset, seed in enumerate(seeds):
        isd = first_isd + offset
        assignment[seed] = isd
        unassigned.discard(seed)
        frontiers[isd] = deque(
            n for n in sorted(topo.neighbors(seed)) if n in unassigned
        )
        sizes[isd] = 1
    while unassigned:
        grew = False
        for isd in sorted(frontiers, key=lambda i: (sizes[i], i)):
            queue = frontiers[isd]
            asn = None
            while queue:
                candidate = queue.popleft()
                if candidate in unassigned:
                    asn = candidate
                    break
            if asn is None:
                continue
            assignment[asn] = isd
            unassigned.discard(asn)
            sizes[isd] += 1
            queue.extend(
                n for n in sorted(topo.neighbors(asn)) if n in unassigned
            )
            grew = True
            break
        if not grew:
            break
    # Stragglers are unreachable from every seed (disconnected topology):
    # attach each remaining component to the smallest ISD it touches, or
    # to the smallest ISD overall when it touches none.
    for pocket in _isd_components(topo, unassigned):
        touched = {
            assignment[n]
            for asn in pocket
            for n in topo.neighbors(asn)
            if n in assignment
        }
        pool = touched or set(sizes)
        isd = min(pool, key=lambda i: (sizes[i], i))
        for asn in pocket:
            assignment[asn] = isd
        sizes[isd] += len(pocket)
    return assignment


def _isd_components(
    topo: Topology, members: Iterable[int]
) -> List[List[int]]:
    """Connected components of the subgraph induced by ``members``."""
    member_set = set(members)
    components: List[List[int]] = []
    seen: Set[int] = set()
    for start in sorted(member_set):
        if start in seen:
            continue
        component = []
        frontier = deque([start])
        seen.add(start)
        while frontier:
            asn = frontier.popleft()
            component.append(asn)
            for neighbor in sorted(topo.neighbors(asn)):
                if neighbor in member_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


def _repair_isd_connectivity(
    topo: Topology, assignment: Dict[int, int]
) -> None:
    """Make every ISD's induced subgraph connected (in place).

    Simultaneous growth can strand a pocket when a region is claimed from
    two sides. Each repair round keeps every ISD's largest component and
    moves the others to the neighboring ISD they touch on the most links —
    the same locality criterion the growth optimizes. ISDs never empty
    (the largest component stays) and the loop is bounded: pockets only
    merge into larger regions, so the component count strictly drops each
    round. Components with no foreign neighbors (the topology itself is
    disconnected there) are left in place.
    """
    for _ in range(len(assignment) + 1):
        moved = False
        for isd in sorted(set(assignment.values())):
            members = [a for a in assignment if assignment[a] == isd]
            components = _isd_components(topo, members)
            if len(components) <= 1:
                continue
            components.sort(key=lambda comp: (-len(comp), min(comp)))
            for pocket in components[1:]:
                adjacency: Dict[int, int] = {}
                for asn in pocket:
                    for neighbor in topo.neighbors(asn):
                        other = assignment.get(neighbor)
                        if other is not None and other != isd:
                            adjacency[other] = adjacency.get(other, 0) + 1
                if not adjacency:
                    continue
                target = min(adjacency, key=lambda i: (-adjacency[i], i))
                for asn in pocket:
                    assignment[asn] = target
                moved = True
        if not moved:
            return


def _rebalance_isds(topo: Topology, assignment: Dict[int, int]) -> None:
    """Even out ISD sizes without breaking connectivity (in place).

    Simultaneous growth stays balanced until a small ISD gets enclosed by
    its neighbors; whatever region is left then falls to the last ISD with
    an open frontier. Each rebalance step picks a boundary AS of the most
    oversized ISD that touches an ISD at least two ASes smaller and moves
    it there. When the AS is an articulation point of the donor, the
    donor keeps its largest remaining component and the smaller split-off
    components travel with the AS (they attach to the recipient through
    it, so both sides stay connected). Moves are capped below the size
    gap, so the variance strictly decreases and the loop terminates.
    """
    members: Dict[int, Set[int]] = {}
    for asn, isd in assignment.items():
        members.setdefault(isd, set()).add(asn)
    sizes = {isd: len(group) for isd, group in members.items()}
    for _ in range(4 * len(assignment)):
        donors = sorted(sizes, key=lambda i: (-sizes[i], i))
        move = None
        for donor in donors:
            for asn in sorted(members[donor]):
                neighbor_isds = {
                    assignment[n]
                    for n in topo.neighbors(asn)
                    if assignment.get(n, donor) != donor
                }
                targets = [
                    i for i in neighbor_isds if sizes[i] + 2 <= sizes[donor]
                ]
                if not targets:
                    continue
                target = min(targets, key=lambda i: (sizes[i], i))
                remainder = members[donor] - {asn}
                moving = {asn}
                if remainder:
                    components = _isd_components(topo, remainder)
                    components.sort(key=lambda comp: (-len(comp), min(comp)))
                    for split in components[1:]:
                        moving.update(split)
                if len(moving) >= sizes[donor] - sizes[target]:
                    continue  # would overshoot: variance must decrease
                move = (donor, target, moving)
                break
            if move is not None:
                break
        if move is None:
            return
        donor, target, moving = move
        for asn in moving:
            members[donor].discard(asn)
            members[target].add(asn)
            assignment[asn] = target
        sizes[donor] -= len(moving)
        sizes[target] += len(moving)


def promote_core_links(topo: Topology) -> int:
    """Convert links whose both endpoints are core ASes into ``CORE`` links.

    SCION core beaconing floods over core links regardless of the previous
    business relationship. Returns the number of links converted.
    """
    converted = 0
    for link in list(topo.links()):
        if link.relationship is Relationship.CORE:
            continue
        if topo.as_node(link.a.asn).is_core and topo.as_node(link.b.asn).is_core:
            topo.remove_link(link.link_id)
            topo.add_link(
                link.a.asn,
                link.b.asn,
                Relationship.CORE,
                location=link.location,
                a_ifid=link.a.ifid,
                b_ifid=link.b.ifid,
                link_id=link.link_id,
            )
            converted += 1
    return converted
