"""Traffic-workload experiment: the data plane under user load.

The paper's tables and figures measure the *control* plane; this
experiment measures what the constructed paths are worth to users. A
seeded Zipf flow workload runs over the full-stack topology (scaled core
plus leaf customer trees) once per (beaconing algorithm x path policy)
combination, plus one fault-coupled run per algorithm where the hottest
link fails mid-run and recovers later. Every run reports goodput over
time, per-flow latency, lookup-cache hit rates, SIG gateway traffic and
per-link utilization — all produced by actually forwarding hop-field
packets through border routers (every hop MAC-verified).

Runs fan out through :class:`~repro.runtime.ExperimentRuntime` like any
figure series; results are cached, and ``--jobs N`` is pickle-identical
to ``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..multipath.scheduler import POLICY_NAMES
from ..runtime import ExperimentRuntime
from ..simulation.beaconing import ALGORITHM_EVICTION
from ..traffic.engine import TrafficConfig, TrafficFaultPlan
from ..traffic.flows import FlowConfig
from ..traffic.metrics import TrafficRunResult
from ..traffic.worker import TrafficSpec
from .common import build_full_stack_topology
from .config import Experiment, ExperimentScale, scale_preset

__all__ = ["TrafficExperimentResult", "run_traffic", "WORKLOADS"]

#: Per-scale workload shape: (flows per tick, ticks, link capacity bps,
#: legacy-AS fraction, leaves per core AS).
WORKLOADS: Dict[str, Tuple[int, int, float, float, int]] = {
    "test": (12, 10, 4e6, 0.25, 2),
    "bench": (40, 24, 20e6, 0.25, 3),
    "paper": (120, 60, 100e6, 0.25, 3),
}


@dataclass
class TrafficExperimentResult:
    """All traffic runs of one invocation, keyed ``algorithm/policy``."""

    results: Dict[str, TrafficRunResult]
    scale_name: str
    num_endpoints: int
    flows_per_run: int
    ticks: int

    def series(self, algorithm: str, policy: str) -> TrafficRunResult:
        return self.results[f"{algorithm}/{policy}"]

    def faulted(self, algorithm: str) -> TrafficRunResult:
        return self.results[f"{algorithm}/faulted"]

    def render(self) -> str:
        sample = next(iter(self.results.values()))
        lines = [
            f"Traffic workloads (scale={self.scale_name}): "
            f"{self.num_endpoints} endpoint ASes "
            f"({len(sample.legacy_asns)} legacy behind SIGs), "
            f"{self.flows_per_run} flows over {self.ticks} ticks per run",
            "",
            f"  {'series':28s} {'goodput':>9s} {'deliv':>6s} "
            f"{'p50 lat':>8s} {'p95 lat':>8s} {'cache':>6s} "
            f"{'util mn/mx':>11s} {'pkts':>6s} {'MACs':>7s} {'SIG':>5s}",
        ]
        for name in sorted(self.results):
            result = self.results[name]
            lines.append(
                f"  {name:28s} "
                f"{result.mean_goodput_bps() / 1e6:7.2f}Mb "
                f"{result.delivered_fraction():6.1%} "
                f"{result.latency_percentile(0.5) * 1e3:6.1f}ms "
                f"{result.latency_percentile(0.95) * 1e3:6.1f}ms "
                f"{result.cache_hit_rate():6.1%} "
                f"{result.mean_utilization():4.1%}/{result.max_utilization():4.1%} "
                f"{result.packets_forwarded:6d} {result.macs_verified:7d} "
                f"{result.sig_encapsulated:5d}"
            )
        busiest_name = sorted(
            name for name in self.results if not name.endswith("/faulted")
        )[0]
        busiest = self.results[busiest_name]
        if busiest.link_bytes:
            top = ", ".join(
                f"link {link_id} {utilization:.1%}"
                for link_id, utilization in busiest.top_links(5)
            )
            lines.append("")
            lines.append(f"Busiest links ({busiest_name}): {top}")
        faulted = sorted(
            name for name in self.results if name.endswith("/faulted")
        )
        if faulted:
            lines.append("")
            first = self.results[faulted[0]]
            lines.append(
                "Fault-coupled goodput (Mbit/s per tick; hottest link fails "
                f"at tick {first.fail_tick}, recovers at tick "
                f"{first.recover_tick}):"
            )
            for name in faulted:
                result = self.results[name]
                series = " ".join(
                    f"{value / 1e6:.2f}" for value in result.goodput_series_bps()
                )
                dip = result.goodput_dip()
                recovered = result.recovered_goodput_fraction()
                note = ""
                if dip is not None and recovered is not None:
                    note = (
                        f"  [dip {dip[1]:.0%} of pre-fault @t{dip[0]}, "
                        f"post-recovery {recovered:.0%}]"
                    )
                lines.append(f"  {name:28s} {series}{note}")
        return "\n".join(lines)


def run_traffic(
    scale: ExperimentScale,
    *,
    runtime: Optional[ExperimentRuntime] = None,
    policies: Sequence[str] = POLICY_NAMES,
    algorithms: Sequence[str] = ("baseline", "diversity"),
    include_faulted: bool = True,
) -> TrafficExperimentResult:
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "traffic"
    rt.report.scale = scale.name
    flows_per_tick, ticks, capacity, legacy_fraction, leaves = scale_preset(
        WORKLOADS, scale.name, "traffic"
    )

    topology = rt.cached_value(
        "full-stack-topology",
        [scale, leaves],
        lambda: build_full_stack_topology(scale, leaves_per_core=leaves),
        phase="build-topology",
    )
    flow_config = FlowConfig(
        flows_per_tick=flows_per_tick,
        num_ticks=ticks,
        seed=scale.seed,
    )
    traffic_config = TrafficConfig(link_capacity_bps=capacity)
    fault_plan = TrafficFaultPlan(
        fail_tick=max(1, ticks // 3), recover_tick=(2 * ticks) // 3
    )

    tasks = []
    for algorithm in algorithms:
        eviction = ALGORITHM_EVICTION[algorithm]
        core_config = replace(
            scale.core_beaconing_config(5), eviction_policy=eviction
        )
        intra_config = replace(
            scale.intra_isd_config(5), eviction_policy=eviction
        )
        series = [
            (policy, replace(traffic_config, policy=policy), None)
            for policy in policies
        ]
        if include_faulted:
            series.append(("faulted", traffic_config, fault_plan))
        for label, config, plan in series:
            tasks.append(
                (
                    topology,
                    TrafficSpec(
                        name=f"{algorithm}/{label}",
                        algorithm=algorithm,
                        flow_config=flow_config,
                        traffic_config=config,
                        core_config=core_config,
                        intra_config=intra_config,
                        legacy_fraction=legacy_fraction,
                        fault_plan=plan,
                        seed=scale.seed,
                    ),
                )
            )

    results: Dict[str, TrafficRunResult] = {}
    for outcome in rt.run(tasks):
        results[outcome.name] = outcome.result

    return TrafficExperimentResult(
        results=results,
        scale_name=scale.name,
        num_endpoints=len(topology.non_core_asns()),
        flows_per_run=flow_config.flows_per_tick * flow_config.num_ticks,
        ticks=ticks,
    )


EXPERIMENT = Experiment(
    name="traffic",
    help="data-plane workloads: goodput, latency, utilization, cache hit rates",
    run=lambda args, scale, runtime: run_traffic(scale, runtime=runtime),
    scales=tuple(WORKLOADS),
)
