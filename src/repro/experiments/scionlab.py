"""Appendix B: SCIONLab testbed evaluation (Figures 7, 8, 9).

Reproduces the three testbed figures on the deterministic SCIONLab-like
topology (21 core ASes, mean neighbor degree ~2, parallel links):

* **Figure 7** — minimum number of failing links disconnecting two ASes:
  measurement, baseline(5), diversity(5/10/15/60), optimum;
* **Figure 8** — maximum capacity in multiples of inter-AS links, same
  series;
* **Figure 9** — CDF of core-beaconing bandwidth per interface (Bps); the
  paper reports < 4 KB/s for ~80 % of interfaces.

The "Measurement" series is the baseline algorithm with the production
storage limit (5) — the paper itself observes that "the behavior of SCION
Baseline with a PCB storage limit of 5 closely resembles the data gathered
from SCIONLab, since the baseline path construction algorithm is modeled
after the current path selection algorithm"; without access to the live
testbed, that correspondence *is* the measurement substitute (DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.stats import EmpiricalCDF
from ..core.scoring import DiversityParams
from ..runtime import ExperimentRuntime, SeriesSpec
from ..simulation.beaconing import ALGORITHM_EVICTION, BeaconingConfig, BeaconingMode
from ..topology.scionlab import scionlab_core
from .config import Experiment, ExperimentScale
from .figure6 import PathQualityResult, optimum_values
from .report import format_cdf_series

__all__ = ["ScionlabResult", "run_scionlab"]

DIVERSITY_LIMITS: Tuple[int, ...] = (5, 10, 15, 60)


@dataclass
class ScionlabResult(PathQualityResult):
    """Per-pair quality values and per-interface bandwidths."""

    #: Bytes per second on each directed core interface (measurement run).
    interface_bandwidths: List[float]
    scale_name: str

    def series_names(self) -> List[str]:
        ordered = ["measurement", "baseline(5)"]
        ordered += [f"diversity({k})" for k in DIVERSITY_LIMITS]
        ordered.append("optimum")
        return [n for n in ordered if n in self.values]

    def bandwidth_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF.from_values(self.interface_bandwidths)

    def fraction_below_bandwidth(self, bps: float) -> float:
        return self.bandwidth_cdf().at(bps)

    def improved_over_measurement(self, series: str) -> float:
        """Fraction of pairs where the series strictly beats the
        measurement proxy (the paper: 17/42/52/55 % for limits
        5/10/15/60)."""
        measurement = self.values["measurement"]
        return sum(
            1 for a, b in zip(self.values[series], measurement) if a > b
        ) / len(measurement)

    def render(self) -> str:
        series = {name: self.cdf(name) for name in self.series_names()}
        lines = [
            f"Figure 7 (scale={self.scale_name}): minimum failing links, "
            f"SCIONLab core ({len(self.pairs)} AS pairs)",
            format_cdf_series(series, title="", value_format="{:.0f}"),
            "",
            "Figure 8: capacity as fraction of optimum",
        ]
        for name in self.series_names():
            lines.append(
                f"    {name:16s} {self.mean_fraction_of_optimum(name):6.1%}"
            )
        lines.append("")
        lines.append(
            "  pairs improved over measurement "
            "(paper: 17/42/52/55% for limits 5/10/15/60):"
        )
        for k in DIVERSITY_LIMITS:
            name = f"diversity({k})"
            if name in self.values:
                lines.append(
                    f"    {name:16s} {self.improved_over_measurement(name):6.1%}"
                )
        bw = self.bandwidth_cdf()
        lines.append("")
        lines.append(
            "Figure 9: core-beaconing bandwidth per interface "
            f"(median {bw.median:.0f} Bps, p90 {bw.quantile(0.9):.0f} Bps)"
        )
        lines.append(
            f"    interfaces below 4 KB/s: "
            f"{self.fraction_below_bandwidth(4096):.1%} (paper: ~80%)"
        )
        return "\n".join(lines)


def run_scionlab(
    scale: Optional[ExperimentScale] = None,
    *,
    params: Optional[DiversityParams] = None,
    seed: int = 7,
    runtime: Optional[ExperimentRuntime] = None,
) -> ScionlabResult:
    """Run the Appendix B evaluation on the testbed topology.

    ``scale`` only controls the beaconing timing (the topology is the fixed
    21-AS testbed); None uses the paper timing.
    """
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "scionlab"
    rt.report.scale = scale.name if scale else "paper-timing"

    topo = scionlab_core(seed=seed)
    base_config = BeaconingConfig(
        interval=scale.interval if scale else 600.0,
        duration=scale.duration if scale else 6 * 3600.0,
        pcb_lifetime=scale.pcb_lifetime if scale else 6 * 3600.0,
        storage_limit=5,
        mode=BeaconingMode.CORE,
    )
    asns = sorted(topo.asns())
    pairs = [(a, b) for a in asns for b in asns if a != b]

    values: Dict[str, List[int]] = {}
    with rt.report.phase("optimum-max-flow"):
        values["optimum"] = optimum_values(topo, pairs)

    # One series per algorithm/storage-limit combination; the measurement
    # proxy (baseline, production storage limit 5) also collects the
    # Figure 9 per-interface bandwidth distribution.
    specs = [
        (
            topo,
            SeriesSpec(
                name="measurement",
                algorithm="baseline",
                config=base_config,
                seed=seed,
                collect_pairs=tuple(pairs),
                collect_bandwidth=True,
            ),
        )
    ]
    eviction = ALGORITHM_EVICTION["diversity"]
    for limit in DIVERSITY_LIMITS:
        config = replace(
            base_config, storage_limit=limit, eviction_policy=eviction
        )
        specs.append(
            (
                topo,
                SeriesSpec(
                    name=f"diversity({limit})",
                    algorithm="diversity",
                    config=config,
                    params=params,
                    seed=seed,
                    collect_pairs=tuple(pairs),
                ),
            )
        )

    bandwidths: List[float] = []
    for outcome in rt.run(specs):
        values[outcome.name] = list(outcome.result.resilience)
        if outcome.name == "measurement":
            bandwidths = list(outcome.result.interface_bandwidths)
    values["baseline(5)"] = list(values["measurement"])

    return ScionlabResult(
        values=values,
        pairs=pairs,
        interface_bandwidths=bandwidths,
        scale_name=scale.name if scale else "paper-timing",
    )


EXPERIMENT = Experiment(
    name="scionlab",
    help="Figures 7-9 (one run): SCIONLab resilience, capacity, bandwidth",
    run=lambda args, scale, runtime: run_scionlab(scale, runtime=runtime),
    aliases=("figure7", "figure8", "figure9"),
)
