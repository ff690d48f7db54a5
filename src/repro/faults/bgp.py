"""Fault injection for the BGP convergence simulation.

:class:`~repro.bgp.simulator.BGPSimulation` is an event-driven convergence
run, not an interval-stepped process, so faults are modeled as topology
surgery between convergence runs: the same fault schedule that drives a
beaconing run is collapsed to its failure set, a degraded topology is
built with those links and ASes removed, and BGP re-converges on it. The
differential across the three states — intact, degraded, recovered
(intact again) — is what the harness asserts on:

* no degraded best path traverses a failed link or a failed AS;
* pairs reachable while degraded are a subset of the intact ones;
* recovery is exact: BGP convergence is deterministic, so the recovered
  run reproduces the intact best paths pair for pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bgp.simulator import BGPConfig, BGPSimulation
from ..topology.model import Topology, TopologyError
from .schedule import FaultKind, FaultSchedule

__all__ = ["degraded_topology", "bgp_fault_differential", "BGPFaultReport"]


def degraded_topology(
    topology: Topology,
    failed_links: Iterable[int] = (),
    failed_ases: Iterable[int] = (),
) -> Topology:
    """The topology with the failed elements removed.

    Link and interface ids are preserved (the degraded topology is an
    induced sub-multigraph), so paths found on it are directly comparable
    with paths of the intact topology. Unknown link/AS ids raise
    :class:`~repro.topology.model.TopologyError` — a schedule must not
    silently target nothing.
    """
    downed = set(failed_ases)
    for asn in downed:
        topology.as_node(asn)  # validate against the intact topology
    for link_id in failed_links:
        topology.link(link_id)
    keep = [asn for asn in topology.asns() if asn not in downed]
    sub = topology.subtopology(keep, name=f"{topology.name}-degraded")
    for link_id in sorted(set(failed_links)):
        try:
            sub.remove_link(link_id)
        except TopologyError:
            # The link vanished with a failed endpoint AS already.
            pass
    return sub


@dataclass
class BGPFaultReport:
    """Per-pair best paths across the intact/degraded/recovered states."""

    pairs: List[Tuple[int, int]]
    failed_links: List[int]
    failed_ases: List[int]
    #: Aligned with ``pairs``; ``None`` marks an unreachable pair.
    intact_paths: List[Optional[Tuple[int, ...]]] = field(default_factory=list)
    degraded_paths: List[Optional[Tuple[int, ...]]] = field(
        default_factory=list
    )
    recovered_paths: List[Optional[Tuple[int, ...]]] = field(
        default_factory=list
    )

    def intact_reachable(self) -> int:
        return sum(1 for path in self.intact_paths if path)

    def degraded_reachable(self) -> int:
        return sum(1 for path in self.degraded_paths if path)

    def disconnected_pairs(self) -> List[Tuple[int, int]]:
        """Pairs the failures cut off entirely."""
        return [
            pair
            for pair, intact, degraded in zip(
                self.pairs, self.intact_paths, self.degraded_paths
            )
            if intact and not degraded
        ]

    def recovery_exact(self) -> bool:
        """Deterministic convergence: recovered == intact, pair for pair."""
        return self.recovered_paths == self.intact_paths

    def degraded_paths_avoid_failures(self) -> bool:
        """No degraded best path touches a failed AS (links are checked by
        construction: the degraded topology does not contain them)."""
        downed = set(self.failed_ases)
        return not any(
            path and downed.intersection(path) for path in self.degraded_paths
        )


def schedule_failure_sets(
    schedule: FaultSchedule,
) -> Tuple[List[int], List[int]]:
    """The distinct (links, ASes) a schedule fails at any point."""
    links = sorted(
        {
            event.target
            for event in schedule.events
            if event.kind is FaultKind.LINK_DOWN
        }
    )
    ases = sorted(
        {
            event.target
            for event in schedule.events
            if event.kind is FaultKind.AS_DOWN
        }
    )
    return links, ases


def bgp_fault_differential(
    topology: Topology,
    schedule: FaultSchedule,
    pairs: Sequence[Tuple[int, int]],
    *,
    config: Optional[BGPConfig] = None,
) -> BGPFaultReport:
    """Converge BGP on the intact, degraded and recovered topology.

    The schedule's failure set is applied as one simultaneous outage (the
    worst instant of the schedule); the recovered state re-converges the
    intact topology from scratch, which checks that convergence is
    deterministic — the property the beaconing-side harness leans on when
    it asserts post-recovery resilience returns to its pre-failure value.
    """
    failed_links, failed_ases = schedule_failure_sets(schedule)
    report = BGPFaultReport(
        pairs=list(pairs),
        failed_links=failed_links,
        failed_ases=failed_ases,
    )

    def best_paths(sim: BGPSimulation) -> List[Optional[Tuple[int, ...]]]:
        paths: List[Optional[Tuple[int, ...]]] = []
        for origin, receiver in report.pairs:
            if not sim.topology.has_as(origin) or not sim.topology.has_as(
                receiver
            ):
                paths.append(None)
                continue
            paths.append(sim.best_path(receiver, origin))
        return paths

    intact_sim = BGPSimulation(topology, config).run()
    report.intact_paths = best_paths(intact_sim)

    degraded = degraded_topology(topology, failed_links, failed_ases)
    degraded_sim = BGPSimulation(degraded, config).run()
    report.degraded_paths = best_paths(degraded_sim)

    recovered_sim = BGPSimulation(topology, config).run()
    report.recovered_paths = best_paths(recovered_sim)
    return report
