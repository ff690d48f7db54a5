"""Multipath churn experiment: strategies over a long horizon.

Runs one :class:`~repro.multipath.churn.ChurnDriver` horizon per
strategy — always including the ``single`` baseline — over the same
full-stack topology, seed and fault schedule, so the strategy is the
only variable. The headline comparison is the paper's multipath
dividend: aggregate goodput of a k-way split versus the single-path
baseline under identical demand, churn and per-path bottlenecks.

Runs fan out through :class:`~repro.runtime.ExperimentRuntime` like any
figure series; results are cached, ``--jobs N`` is pickle-identical to
``--jobs 1``, and ``--dataset-out`` exports every horizon through the
schema-validated dataset writer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..multipath.churn import ChurnConfig, ChurnResult
from ..multipath.dataset import write_dataset
from ..multipath.scheduler import STRATEGY_NAMES
from ..multipath.worker import MultipathSpec
from ..runtime import ExperimentRuntime
from .common import build_full_stack_topology
from .config import Experiment, ExperimentScale, positive_int, scale_preset

__all__ = ["MultipathExperimentResult", "run_multipath", "WORKLOADS"]

#: Per-scale horizon shape: (intervals, monitored pairs, leaves per core).
WORKLOADS: Dict[str, Tuple[int, int, int]] = {
    "test": (60, 4, 2),
    "bench": (200, 6, 3),
}


@dataclass
class MultipathExperimentResult:
    """All churn horizons of one invocation, keyed by strategy name."""

    results: Dict[str, ChurnResult]
    scale_name: str
    strategy: str
    k_paths: int
    num_intervals: int
    #: Manifest of the dataset export, when one was requested.
    manifest: Optional[Dict] = None

    def baseline(self) -> ChurnResult:
        return self.results["single"]

    def chosen(self) -> ChurnResult:
        return self.results[self.strategy]

    def goodput_gain(self) -> float:
        """Chosen strategy's goodput relative to the single-path baseline."""
        base = self.baseline().aggregate_goodput_bps()
        if base <= 0:
            return 1.0
        return self.chosen().aggregate_goodput_bps() / base

    def data(self) -> dict:
        sample = next(iter(self.results.values()))
        return {
            "scale": self.scale_name, "strategy": self.strategy,
            "k_paths": self.k_paths, "intervals": self.num_intervals,
            "pairs": len(sample.pairs), "paths": len(sample.paths),
            "faults": sample.faults_injected,
            "strategies": {
                name: {
                    "goodput_bps": run.aggregate_goodput_bps(),
                    "delivered": run.delivered_fraction(),
                    "mean_path_lifetime": run.mean_path_lifetime(),
                    "mean_availability": run.mean_availability(),
                    "switch_events": run.switch_events,
                    "beacon_expiries": run.beacon_expiries,
                    "scmp_events": run.scmp_events,
                    "macs_verified": run.macs_verified,
                }
                for name, run in self.results.items()
            },
            "goodput_gain": self.goodput_gain(),
            "dataset_id": self.manifest and self.manifest["dataset_id"],
        }

    def render(self) -> str:
        sample = next(iter(self.results.values()))
        lines = [
            f"Multipath churn horizons (scale={self.scale_name}): "
            f"{len(sample.pairs)} pairs x {self.num_intervals} intervals, "
            f"k={self.k_paths}, {len(sample.paths)} monitored paths, "
            f"{sample.faults_injected} link faults",
            "",
            f"  {'strategy':14s} {'goodput':>10s} {'deliv':>6s} "
            f"{'switch':>6s} {'expiry':>6s} {'scmp':>5s} "
            f"{'life':>6s} {'avail':>6s} {'MACs':>8s}",
        ]
        for name in sorted(self.results):
            result = self.results[name]
            lines.append(
                f"  {name:14s} "
                f"{result.aggregate_goodput_bps() / 1e3:8.2f}kb "
                f"{result.delivered_fraction():6.1%} "
                f"{result.switch_events:6d} {result.beacon_expiries:6d} "
                f"{result.scmp_events:5d} "
                f"{result.mean_path_lifetime():6.1f} "
                f"{result.mean_availability():6.1%} "
                f"{result.macs_verified:8d}"
            )
        lines.append("")
        lines.append(
            f"Goodput gain over single-path baseline "
            f"({self.strategy}, same seed/churn/faults): "
            f"{self.goodput_gain():.2f}x"
        )
        if self.manifest is not None:
            lines.append(
                f"Dataset: {self.manifest['files']['series.jsonl']['rows']} "
                f"rows, schema v{self.manifest['schema_version']}, "
                f"id {self.manifest['dataset_id'][:16]}"
            )
        return "\n".join(lines)


def run_multipath(
    scale: ExperimentScale,
    *,
    runtime: Optional[ExperimentRuntime] = None,
    strategy: str = ChurnConfig.strategy,
    k_paths: int = ChurnConfig.k_paths,
    num_intervals: Optional[int] = None,
    strategies: Optional[Sequence[str]] = None,
    dataset_out: Optional[str] = None,
) -> MultipathExperimentResult:
    """Run churn horizons for ``strategies`` (default: the single-path
    baseline plus ``strategy``) and optionally export the dataset."""
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "multipath"
    rt.report.scale = scale.name
    default_intervals, num_pairs, leaves = scale_preset(
        WORKLOADS, scale.name, "multipath"
    )
    intervals = num_intervals if num_intervals is not None else default_intervals

    topology = rt.cached_value(
        "full-stack-topology",
        [scale, leaves],
        lambda: build_full_stack_topology(scale, leaves_per_core=leaves),
        phase="build-topology",
    )
    if strategies is None:
        names = ["single"]
        if strategy != "single":
            names.append(strategy)
    else:
        names = list(dict.fromkeys(strategies))

    base_churn = ChurnConfig(
        num_intervals=intervals,
        num_pairs=num_pairs,
        seed=scale.seed,
        latency_seed=scale.seed,
    )
    core_config = scale.core_beaconing_config(5)
    intra_config = scale.intra_isd_config(5)
    tasks = []
    for name in names:
        churn = replace(
            base_churn,
            strategy=name,
            k_paths=1 if name == "single" else k_paths,
        )
        tasks.append(
            (
                topology,
                MultipathSpec(
                    name=name,
                    churn=churn,
                    core_config=core_config,
                    intra_config=intra_config,
                    algorithm="diversity",
                    seed=scale.seed,
                ),
            )
        )

    results: Dict[str, ChurnResult] = {}
    ordered: List[ChurnResult] = []
    for outcome in rt.run(tasks):
        results[outcome.name] = outcome.result
        ordered.append(outcome.result)

    manifest = None
    if dataset_out is not None:
        start = time.perf_counter()
        manifest = write_dataset(ordered, dataset_out)
        rt.report.add_phase(
            "dataset-export",
            time.perf_counter() - start,
            counters={
                "rows": manifest["files"]["series.jsonl"]["rows"],
            },
        )

    return MultipathExperimentResult(
        results=results,
        scale_name=scale.name,
        strategy=strategy if strategy in results else names[-1],
        k_paths=k_paths,
        num_intervals=intervals,
        manifest=manifest,
    )


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--strategy", default=ChurnConfig.strategy, choices=STRATEGY_NAMES,
        help="strategy set against the single-path baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--k-paths", type=positive_int, default=ChurnConfig.k_paths,
        help="maximum paths per flow the strategy may select (default: %(default)s)",
    )
    parser.add_argument(
        "--churn-intervals", type=positive_int, default=None,
        help="scheduling intervals in the churn horizon (default: per-scale preset)",
    )
    parser.add_argument(
        "--dataset-out", default=None,
        help="export the per-path time-series dataset (JSONL/CSV + manifest) here",
    )


EXPERIMENT = Experiment(
    name="multipath",
    help="per-flow multipath scheduling over churn horizons, with dataset export",
    run=lambda args, scale, runtime: run_multipath(
        scale, runtime=runtime, strategy=args.strategy, k_paths=args.k_paths,
        num_intervals=args.churn_intervals, dataset_out=args.dataset_out,
    ),
    scales=tuple(WORKLOADS),
    add_arguments=_add_arguments,
)
