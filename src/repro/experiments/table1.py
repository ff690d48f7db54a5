"""Table 1: path-management overhead comparison.

Reproduces §4.1's classification of every SCION control-plane component by
communication **scope** (AS / ISD / Global) and **frequency** (hours /
minutes / seconds) — measured, not asserted: a full-stack
:class:`~repro.control.ScionNetwork` runs over a multi-ISD topology, a
Zipf-skewed endpoint workload exercises lookups, registrations refresh
periodically, and a link failure triggers revocations. Scope is the widest
scope observed in the message log; frequency classifies the median
inter-event gap of the component's busiest flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..control.messages import Component, ControlMessageLog, Scope
from ..control.network import ScionNetwork
from ..runtime import ExperimentRuntime
from ..traffic.flows import zipf_weights
from .common import build_full_stack_topology
from .config import Experiment, ExperimentScale
from .report import format_table

__all__ = ["Table1Row", "Table1Result", "run_table1", "classify_frequency"]

#: The paper's Table 1 (scope, frequency) per component, for comparison.
PAPER_TABLE: Dict[Component, Tuple[Scope, str]] = {
    Component.CORE_BEACONING: (Scope.GLOBAL, "Minutes"),
    Component.INTRA_ISD_BEACONING: (Scope.ISD, "Minutes"),
    Component.DOWN_SEGMENT_LOOKUP: (Scope.GLOBAL, "Hours"),
    Component.CORE_SEGMENT_LOOKUP: (Scope.ISD, "Hours"),
    Component.ENDPOINT_PATH_LOOKUP: (Scope.AS, "Seconds"),
    Component.PATH_REGISTRATION: (Scope.ISD, "Minutes"),
    Component.PATH_REVOCATION: (Scope.ISD, "Seconds"),
}


def classify_frequency(period_seconds: float) -> str:
    """Map an inter-event period to the paper's frequency classes."""
    if period_seconds < 0:
        raise ValueError("period cannot be negative")
    if period_seconds < 60.0:
        return "Seconds"
    if period_seconds < 3600.0:
        return "Minutes"
    return "Hours"


@dataclass(frozen=True)
class Table1Row:
    component: Component
    scope: Scope
    frequency: str
    messages: int
    bytes: int

    def matches_paper(self) -> bool:
        expected_scope, expected_frequency = PAPER_TABLE[self.component]
        return self.scope is expected_scope and (
            self.frequency == expected_frequency
        )


@dataclass
class Table1Result:
    rows: List[Table1Row]
    scale_name: str

    def matches_paper(self) -> bool:
        return all(row.matches_paper() for row in self.rows)

    def data(self) -> dict:
        rows = [
            {"component": row.component.value, "scope": row.scope.value,
             "frequency": row.frequency, "messages": row.messages,
             "bytes": row.bytes, "matches_paper": row.matches_paper()}
            for row in self.rows
        ]
        return {"scale": self.scale_name, "rows": rows}

    def render(self) -> str:
        headers = [
            "Control Plane Component", "Scope", "Frequency",
            "Messages", "Bytes", "Paper",
        ]
        body = [
            (
                row.component.value,
                row.scope.value,
                row.frequency,
                row.messages,
                row.bytes,
                "ok" if row.matches_paper() else
                f"paper: {PAPER_TABLE[row.component][0].value}/"
                f"{PAPER_TABLE[row.component][1]}",
            )
            for row in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                f"Table 1 (scale={self.scale_name}): path management "
                "overhead comparison"
            ),
        )


_SCOPE_ORDER = {Scope.AS: 0, Scope.ISD: 1, Scope.GLOBAL: 2}


def _widest_scope(log: ControlMessageLog, component: Component) -> Scope:
    scopes = log.scopes(component)
    return max(scopes, key=lambda s: _SCOPE_ORDER[s])


def _median_flow_period(
    log: ControlMessageLog, component: Component
) -> Optional[float]:
    """Median gap between consecutive distinct event times of the same
    (sender, receiver, subject) flow; None without enough events."""
    gaps: List[float] = []
    for times in log.flow_times(component):
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    if not gaps:
        return None
    gaps.sort()
    return gaps[len(gaps) // 2]


def _zipf_destination(rng: random.Random, destinations: List[int]) -> int:
    """Sample a destination with Zipf-distributed popularity (§4.1: 'the
    Zipf distribution of Internet traffic's destinations')."""
    return rng.choices(destinations, weights=zipf_weights(len(destinations)), k=1)[0]


def run_table1(
    scale: ExperimentScale,
    *,
    runtime: Optional[ExperimentRuntime] = None,
) -> Table1Result:
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "table1"
    rt.report.scale = scale.name

    # The full-stack scenario is one tightly-coupled network (beaconing,
    # registrations, lookups and revocations share state), so it runs
    # serially; the runtime contributes topology caching and phase timing.
    topology = rt.cached_value(
        "full-stack-topology",
        [scale],
        lambda: build_full_stack_topology(scale),
        phase="build-topology",
    )
    with rt.report.phase("beaconing-and-registration") as record:
        network = ScionNetwork(
            topology,
            algorithm="baseline",
            core_config=scale.core_beaconing_config(20),
            intra_config=scale.intra_isd_config(20),
        ).run()
        record.counters["core_pcbs"] = (
            network.core_sim.metrics.total_pcbs if network.core_sim else 0
        )
    rng = random.Random(scale.seed)

    # --- workload: three hours of endpoint activity ------------------------
    # Long enough that cached segment lookups visibly refresh at cache-TTL
    # (hours) granularity while endpoint flows arrive every few seconds.
    with rt.report.phase("endpoint-workload") as workload:
        leaves = sorted(network.local_servers)
        destinations = sorted(topology.asns())
        start = network.now
        window = 3 * 3600.0
        active = leaves[:2]
        steps = 720  # one flow every 15 seconds
        for step in range(steps):
            now = start + step * (window / steps)
            endpoint = active[step % len(active)]
            destination = _zipf_destination(
                rng, [d for d in destinations if d != endpoint]
            )
            try:
                network.lookup_paths(endpoint, destination, now=now)
            except ValueError:
                continue
        # Periodic re-registration every ten minutes.
        for minute in range(10, int(window // 60), 10):
            network.refresh_registrations(start + minute * 60.0)
        # A link failure triggers revocations near the end of the window.
        some_core_link = next(
            link for link in topology.links()
            if topology.as_node(link.a.asn).is_core
        )
        network.now = start + window - 30.0
        network.fail_link(some_core_link.link_id)
        assert network.revocations is not None
        revocation = network.revocations._revoked[some_core_link.link_id]
        network.revocations.notify_path_users(
            revocation,
            {leaf: [(some_core_link.link_id,)] for leaf in active},
            network.now + 1.0,
        )
        workload.counters["lookups"] = steps

    # --- classify ----------------------------------------------------------
    rows: List[Table1Row] = []
    log = network.log
    for component in Component:
        if component in (
            Component.CORE_BEACONING,
            Component.INTRA_ISD_BEACONING,
        ):
            rows.append(_beaconing_row(network, component, scale))
            continue
        if log.count(component) == 0:
            continue
        period = _median_flow_period(log, component)
        if period is None:
            # Single-shot events within the window: event-driven,
            # sub-minute reaction (revocations, one-off lookups).
            frequency = "Seconds"
        else:
            frequency = classify_frequency(period)
        rows.append(
            Table1Row(
                component=component,
                scope=_widest_scope(log, component),
                frequency=frequency,
                messages=log.count(component),
                bytes=log.bytes(component),
            )
        )
    return Table1Result(rows=rows, scale_name=scale.name)


def _beaconing_row(
    network: ScionNetwork, component: Component, scale: ExperimentScale
) -> Table1Row:
    """Beaconing rows come from the beaconing simulations' traffic."""
    if component is Component.CORE_BEACONING:
        sim = network.core_sim
        # Core beaconing spans every ISD of the network: global scope.
        scope = Scope.GLOBAL
        interval = network.core_config.interval
    else:
        sims = list(network.intra_sims.values())
        sim = sims[0] if sims else None
        scope = Scope.ISD
        interval = network.intra_config.interval
    messages = sim.metrics.total_pcbs if sim else 0
    total_bytes = sim.metrics.total_bytes if sim else 0
    if len(network.intra_sims) > 1 and component is Component.INTRA_ISD_BEACONING:
        messages = sum(s.metrics.total_pcbs for s in network.intra_sims.values())
        total_bytes = sum(
            s.metrics.total_bytes for s in network.intra_sims.values()
        )
    return Table1Row(
        component=component,
        scope=scope,
        frequency=classify_frequency(interval),
        messages=messages,
        bytes=total_bytes,
    )


EXPERIMENT = Experiment(
    name="table1",
    help="Table 1: scope and frequency of every control-plane component",
    run=lambda args, scale, runtime: run_table1(scale, runtime=runtime),
)
