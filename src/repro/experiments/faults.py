"""Fault-injection experiment: recovery behavior under link/AS failures.

Not a figure of the paper, but the dynamic complement of its §4.1/§5.3
story: the paper argues revocation plus continuous re-exploration make
multi-path beaconing robust to failures, and this experiment measures it.
A batch of deterministic, seed-indexed fault schedules (link failures, AS
outages, beacon-loss bursts — every failure paired with a recovery) runs
against both path-construction algorithms over the scaled core network;
each run records, per monitored AS pair, the time from losing the last
disseminated path to regaining one. The output is the recovery-time CDF
per algorithm plus revocation-traffic totals.

Runs fan out through :class:`~repro.runtime.ExperimentRuntime` like any
figure series; results are cached, and ``--jobs N`` is pickle-identical to
``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..analysis.stats import EmpiricalCDF
from ..faults.runner import FaultSpec
from ..faults.schedule import FaultPlanConfig, random_schedule
from ..faults.injector import FaultRunResult
from ..runtime import ExperimentRuntime
from ..simulation.beaconing import ALGORITHM_EVICTION, BeaconingConfig, BeaconingMode
from ..topology.model import Relationship
from .common import build_core_topologies
from .config import (
    PCB_LIFETIME, Experiment, ExperimentScale, positive_int, scale_preset,
)
from .figure6 import sample_pairs
from .report import cdf_data, format_cdf_series

__all__ = ["FaultsResult", "run_faults", "DEFAULT_SCHEDULES"]

#: Randomized fault schedules per algorithm, by scale preset.
DEFAULT_SCHEDULES = {"test": 6, "bench": 16}


@dataclass
class FaultsResult:
    """Per-algorithm fault-run results plus the schedule parameters."""

    #: algorithm name -> one result per schedule, schedule order.
    results: Dict[str, List[FaultRunResult]]
    scale_name: str
    horizon: int
    interval: float
    num_pairs: int

    def cdfs(self, times) -> Dict[str, EmpiricalCDF]:
        """Per algorithm, the CDF of ``times(run)`` (seconds, e.g.
        :meth:`FaultRunResult.restore_times`) over its runs, if any."""
        cdfs = {}
        for name, runs in sorted(self.results.items()):
            values = [value for run in runs for value in times(run)]
            if values:
                cdfs[name] = EmpiricalCDF.from_values(values)
        return cdfs

    def summary(self, algorithm: str) -> Dict[str, float]:
        """The algorithm's row of the rendered table: the fraction of
        (pair, schedule) observations whose resilience returned to at
        least its pre-failure value, then counts summed over schedules."""
        runs = self.results[algorithm]
        observed = sum(len(run.pairs) for run in runs)
        recovered = sum(run.recovered_pairs() for run in runs)
        return {
            "recovered": recovered / observed if observed else 1.0,
            "degraded": sum(run.degraded_pairs() for run in runs),
            "disconnected": sum(run.disconnected_pairs() for run in runs),
        } | {
            attribute: sum(getattr(run, attribute) for run in runs)
            for attribute in (
                "revocations_issued", "revocation_bytes",
                "beacons_revoked", "pcbs_lost",
            )
        }

    def data(self) -> dict:
        return {
            "scale": self.scale_name, "pairs": self.num_pairs,
            "schedules": len(next(iter(self.results.values()))),
            "horizon": self.horizon, "interval": self.interval,
            "restore_cdf": cdf_data(self.cdfs(FaultRunResult.restore_times)),
            "recovery_cdf": cdf_data(self.cdfs(FaultRunResult.recovery_times)),
            "algorithms": {name: self.summary(name) for name in self.results},
        }

    def render(self) -> str:
        lines = [
            f"Fault injection (scale={self.scale_name}): "
            f"{len(next(iter(self.results.values())))} schedules x "
            f"{len(self.results)} algorithms, horizon "
            f"{self.horizon} intervals of {self.interval:.0f}s, "
            f"{self.num_pairs} monitored pairs",
        ]
        restore = self.cdfs(FaultRunResult.restore_times)
        if restore:
            lines.append("")
            lines.append(
                "Recovery time: seconds below the pre-failure path count "
                "until re-exploration restores it (CDF):"
            )
            lines.append(format_cdf_series(restore))
        reconnect = self.cdfs(FaultRunResult.recovery_times)
        if reconnect:
            lines.append("")
            lines.append(
                "Time to reconnect after losing the last disseminated path "
                "(CDF, seconds):"
            )
            lines.append(format_cdf_series(reconnect))
        else:
            lines.append(
                "  no monitored pair ever lost its last path "
                "(the disseminated sets kept every pair connected)"
            )
        lines.append("")
        header = (
            f"  {'algorithm':12s} {'recovered':>9s} {'degraded':>8s} "
            f"{'disconn.':>8s} {'revocations':>11s} {'revoc. bytes':>12s} "
            f"{'beacons revoked':>15s} {'pcbs lost':>9s}"
        )
        lines.append(header)
        for name in sorted(self.results):
            row = self.summary(name)
            lines.append(
                f"  {name:12s} {row['recovered']:8.1%} "
                f"{row['degraded']:8d} {row['disconnected']:8d} "
                f"{row['revocations_issued']:11d} "
                f"{row['revocation_bytes']:12d} "
                f"{row['beacons_revoked']:15d} {row['pcbs_lost']:9d}"
            )
        return "\n".join(lines)


def _plan(index: int, scale: ExperimentScale) -> FaultPlanConfig:
    """The schedule plan for seed index ``index``: all schedules fail two
    links; every third adds an AS outage, every third a loss burst, so the
    batch exercises each fault kind deterministically."""
    return FaultPlanConfig(
        seed=(scale.seed << 16) + index,
        horizon=20,
        # Beacons advance one AS hop per interval: the warm period must
        # exceed the core diameter so every monitored pair has paths
        # before the first fault.
        first_fault=8,
        num_link_failures=2,
        num_as_failures=1 if index % 3 == 1 else 0,
        num_loss_bursts=1 if index % 3 == 2 else 0,
    )


def run_faults(
    scale: ExperimentScale,
    *,
    num_schedules: Optional[int] = None,
    runtime: Optional[ExperimentRuntime] = None,
) -> FaultsResult:
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "faults"
    rt.report.scale = scale.name
    count = (
        num_schedules
        if num_schedules is not None
        else scale_preset(DEFAULT_SCHEDULES, scale.name, "faults")
    )

    topos = rt.cached_value(
        "core-topologies",
        [scale],
        lambda: build_core_topologies(scale),
        phase="build-core-topologies",
    )
    core = topos.scion_core
    pairs = tuple(sample_pairs(core.asns(), scale.num_pairs, scale.seed))

    # Core beaconing only uses CORE links, so only those are worth failing;
    # AS outages avoid the monitored endpoints so "recovered" is about
    # re-exploration, not about a monitor being the failed element.
    core_links = sorted(
        link.link_id
        for link in core.links()
        if link.relationship is Relationship.CORE
    )
    monitored = {asn for pair in pairs for asn in pair}
    outage_candidates = sorted(set(core.asns()) - monitored)

    plan0 = _plan(0, scale)
    config = BeaconingConfig(
        interval=scale.interval,
        duration=plan0.horizon * scale.interval,
        pcb_lifetime=PCB_LIFETIME,
        storage_limit=60,
        mode=BeaconingMode.CORE,
    )

    tasks = []
    # Both algorithms, each with the eviction policy it pairs with.
    for algorithm, eviction in ALGORITHM_EVICTION.items():
        algo_config = replace(config, eviction_policy=eviction)
        for index in range(count):
            plan = _plan(index, scale)
            schedule = random_schedule(
                core,
                plan,
                link_ids=core_links,
                asns=outage_candidates or None,
            )
            tasks.append(
                (
                    core,
                    FaultSpec(
                        name=f"{algorithm}:s{index}",
                        algorithm=algorithm,
                        config=algo_config,
                        schedule=schedule,
                        seed=scale.seed,
                        loss_seed=plan.seed,
                        pairs=pairs,
                    ),
                )
            )

    results: Dict[str, List[FaultRunResult]] = {a: [] for a in ALGORITHM_EVICTION}
    for outcome in rt.run(tasks):
        algorithm = outcome.name.split(":", 1)[0]
        results[algorithm].append(outcome.result)

    return FaultsResult(
        results=results,
        scale_name=scale.name,
        horizon=plan0.horizon,
        interval=scale.interval,
        num_pairs=len(pairs),
    )


EXPERIMENT = Experiment(
    name="faults",
    help="fault-injection recovery study: link/AS failures, recovery CDFs",
    run=lambda args, scale, runtime: run_faults(
        scale, num_schedules=args.fault_schedules, runtime=runtime
    ),
    scales=tuple(DEFAULT_SCHEDULES),
    add_arguments=lambda parser: parser.add_argument(
        "--fault-schedules", type=positive_int, default=None,
        help="randomized fault schedules per algorithm (default: per-scale preset)",
    ),
)
