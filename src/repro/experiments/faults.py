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
from typing import Dict, List, Optional, Sequence

from ..analysis.stats import EmpiricalCDF
from ..faults.runner import FaultSpec
from ..faults.schedule import FaultPlanConfig, random_schedule
from ..faults.injector import FaultRunResult
from ..runtime import ExperimentRuntime
from ..simulation.beaconing import ALGORITHM_EVICTION, BeaconingConfig, BeaconingMode
from ..topology.model import Relationship
from .common import build_core_topologies
from .config import Experiment, ExperimentScale, positive_int, scale_preset
from .figure6 import sample_pairs
from .report import format_cdf_series

__all__ = ["FaultsResult", "run_faults", "DEFAULT_SCHEDULES"]

#: Randomized fault schedules per algorithm, by scale preset.
DEFAULT_SCHEDULES = {"test": 6, "bench": 16, "paper": 40}


@dataclass
class FaultsResult:
    """Per-algorithm fault-run results plus the schedule parameters."""

    #: algorithm name -> one result per schedule, schedule order.
    results: Dict[str, List[FaultRunResult]]
    scale_name: str
    horizon: int
    interval: float
    num_pairs: int

    def recovery_times(self, algorithm: str) -> List[float]:
        """All pair reconnection times (seconds) across the schedules."""
        times: List[float] = []
        for result in self.results[algorithm]:
            times.extend(result.recovery_times())
        return times

    def restore_times(self, algorithm: str) -> List[float]:
        """All pair path-count restoration times (seconds)."""
        times: List[float] = []
        for result in self.results[algorithm]:
            times.extend(result.restore_times())
        return times

    def recovery_cdf(self, algorithm: str) -> Optional[EmpiricalCDF]:
        times = self.recovery_times(algorithm)
        return EmpiricalCDF.from_values(times) if times else None

    def restore_cdf(self, algorithm: str) -> Optional[EmpiricalCDF]:
        times = self.restore_times(algorithm)
        return EmpiricalCDF.from_values(times) if times else None

    def total(self, algorithm: str, attribute: str) -> int:
        return sum(
            getattr(result, attribute) for result in self.results[algorithm]
        )

    def recovered_fraction(self, algorithm: str) -> float:
        """Fraction of (pair, schedule) observations whose resilience
        returned to at least its pre-failure value."""
        recovered = sum(
            result.recovered_pairs() for result in self.results[algorithm]
        )
        observed = sum(
            len(result.pairs) for result in self.results[algorithm]
        )
        return recovered / observed if observed else 1.0

    def render(self) -> str:
        lines = [
            f"Fault injection (scale={self.scale_name}): "
            f"{len(next(iter(self.results.values())))} schedules x "
            f"{len(self.results)} algorithms, horizon "
            f"{self.horizon} intervals of {self.interval:.0f}s, "
            f"{self.num_pairs} monitored pairs",
        ]
        restore = {
            name: cdf
            for name in sorted(self.results)
            if (cdf := self.restore_cdf(name)) is not None
        }
        if restore:
            lines.append("")
            lines.append(
                "Recovery time: seconds below the pre-failure path count "
                "until re-exploration restores it (CDF):"
            )
            lines.append(format_cdf_series(restore, title=""))
        reconnect = {
            name: cdf
            for name in sorted(self.results)
            if (cdf := self.recovery_cdf(name)) is not None
        }
        if reconnect:
            lines.append("")
            lines.append(
                "Time to reconnect after losing the last disseminated path "
                "(CDF, seconds):"
            )
            lines.append(format_cdf_series(reconnect, title=""))
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
            degraded = sum(
                result.degraded_pairs() for result in self.results[name]
            )
            disconnected = sum(
                result.disconnected_pairs() for result in self.results[name]
            )
            lines.append(
                f"  {name:12s} {self.recovered_fraction(name):8.1%} "
                f"{degraded:8d} {disconnected:8d} "
                f"{self.total(name, 'revocations_issued'):11d} "
                f"{self.total(name, 'revocation_bytes'):12d} "
                f"{self.total(name, 'beacons_revoked'):15d} "
                f"{self.total(name, 'pcbs_lost'):9d}"
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
    algorithms: Sequence[str] = ("baseline", "diversity"),
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
        pcb_lifetime=scale.pcb_lifetime,
        storage_limit=60,
        mode=BeaconingMode.CORE,
    )

    tasks = []
    for algorithm in algorithms:
        algo_config = replace(
            config, eviction_policy=ALGORITHM_EVICTION[algorithm]
        )
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

    results: Dict[str, List[FaultRunResult]] = {a: [] for a in algorithms}
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
