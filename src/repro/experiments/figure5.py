"""Figure 5: monthly control-plane overhead relative to BGP.

Reproduces §5.2: the distribution, over monitor ASes, of the monthly
control-plane traffic of BGPsec, SCION core beaconing (baseline and
path-diversity-based), and SCION intra-ISD beaconing (baseline), each
relative to the monitor's BGP traffic.

Protocol measurement windows:

* BGP — churn model over the converged simulation (RouteViews stand-in);
* BGPsec — converged update counts x daily re-announcement x 30;
* SCION — a steady-state beaconing window (post warm-up), extrapolated to
  a month by periodicity, exactly the paper's normalization.

Monitors are the highest-degree core ASes. A monitor outside the large ISD
inherits the intra-ISD overhead of the ISD member closest to it in degree
rank (the paper's monitors are real ASes present in all three setups; our
pruned synthetic subset does not guarantee that, so the nearest-rank proxy
keeps the per-monitor comparison total — documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.overhead import OverheadComparison, scale_to_month
from ..analysis.stats import EmpiricalCDF
from ..bgp.churn import BGPChurnModel, monthly_bgp_bytes, monthly_bgpsec_bytes
from ..bgp.prefixes import assign_prefix_counts
from ..bgp.simulator import BGPSimulation
from ..core.scoring import DiversityParams
from ..runtime import ExperimentRuntime, SeriesSpec, topology_fingerprint
from ..topology.model import Topology
from .common import (
    CoreTopologies,
    build_core_topologies,
    build_large_isd,
)
from .config import Experiment, ExperimentScale
from .report import format_cdf_series, format_magnitude

__all__ = ["Figure5Result", "run_figure5"]

SERIES_ORDER = (
    "bgpsec",
    "scion-core-baseline",
    "scion-core-diversity",
    "scion-intra-isd-baseline",
)


@dataclass
class Figure5Result:
    """Monthly per-monitor overheads and the relative-to-BGP CDFs."""

    comparison: OverheadComparison
    scale_name: str

    def series(self) -> Dict[str, EmpiricalCDF]:
        return {
            name: self.comparison.relative_cdf(name) for name in SERIES_ORDER
        }

    def median_relative(self, protocol: str) -> float:
        return self.comparison.median_relative(protocol)

    def orderings_hold(self, *, min_diversity_gain: float = 4.0) -> bool:
        """The qualitative shape of Figure 5.

        Checked orderings: intra-ISD beaconing is the cheapest SCION
        component; the path-diversity-based algorithm cuts core beaconing
        by at least ``min_diversity_gain`` versus the baseline; BGPsec sits
        about an order of magnitude above BGP; core baseline is in
        BGPsec's band or above (the paper: "slightly higher than BGPsec").

        The absolute SCION-vs-BGP anchoring depends on the RouteViews
        volume substitution (see DESIGN.md/EXPERIMENTS.md) and is reported
        rather than asserted.
        """
        med = self.median_relative
        return (
            med("scion-intra-isd-baseline") < med("scion-core-diversity")
            and med("scion-core-diversity") * min_diversity_gain
            <= med("scion-core-baseline")
            and med("bgpsec") > 5.0
            and med("scion-core-baseline") > med("bgpsec") / 3.0
        )

    def render(self) -> str:
        lines = [
            f"Figure 5 (scale={self.scale_name}): monthly control-plane "
            "overhead relative to BGP, per monitor AS",
            format_cdf_series(
                self.series(),
                title="",
                value_format="{:.3g}",
            ),
            "",
        ]
        for name in SERIES_ORDER:
            median = self.median_relative(name)
            rendered = format_magnitude(median) if median > 0 else "0x"
            lines.append(f"  median {name}: " + rendered)
        baseline = self.median_relative("scion-core-baseline")
        diversity = self.median_relative("scion-core-diversity")
        lines.append(
            "  diversity vs baseline core beaconing: "
            + format_magnitude(baseline / diversity)
        )
        return "\n".join(line for line in lines if line is not None)


def _nearest_degree_proxy(
    monitors: List[int], isd: Topology, internet: Topology
) -> Dict[int, int]:
    """Map each monitor to a *non-core* ISD member of similar degree.

    Core ASes only originate intra-ISD beacons (they receive none), so a
    monitor is represented by the receiving member closest to it in degree
    rank — the paper's monitors are transit ASes that do receive intra-ISD
    beacons."""
    members = sorted(
        isd.non_core_asns(), key=lambda asn: (-isd.degree(asn), asn)
    )
    mapping: Dict[int, int] = {}
    used: set = set()
    for monitor in monitors:
        if isd.has_as(monitor) and not isd.as_node(monitor).is_core:
            mapping[monitor] = monitor
            used.add(monitor)
            continue
        target = internet.degree(monitor)
        candidates = [m for m in members if m not in used] or members
        proxy = min(candidates, key=lambda m: (abs(isd.degree(m) - target), m))
        mapping[monitor] = proxy
        used.add(proxy)
    return mapping


def _bgp_monthly(
    internet: Topology, monitors: List[int], seed: int
) -> Dict[str, Dict[int, float]]:
    """Converged BGP/BGPsec monthly bytes per monitor (cache-friendly)."""
    bgp_sim = BGPSimulation(internet).run()
    prefix_counts = assign_prefix_counts(internet, seed=seed)
    churn = BGPChurnModel(seed=seed)
    monthly: Dict[str, Dict[int, float]] = {"bgp": {}, "bgpsec": {}}
    for monitor in monitors:
        monthly["bgp"][monitor] = monthly_bgp_bytes(
            bgp_sim, monitor, prefix_counts, churn
        )
        monthly["bgpsec"][monitor] = monthly_bgpsec_bytes(
            bgp_sim, monitor, prefix_counts
        )
    return monthly


def run_figure5(
    scale: ExperimentScale,
    *,
    params: Optional[DiversityParams] = None,
    storage_limit: int = 60,
    topologies: Optional[CoreTopologies] = None,
    runtime: Optional[ExperimentRuntime] = None,
) -> Figure5Result:
    """Run all four protocol measurements and assemble the comparison."""
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "figure5"
    rt.report.scale = scale.name

    if topologies is not None:
        topos = topologies
    else:
        topos = rt.cached_value(
            "core-topologies",
            [scale],
            lambda: build_core_topologies(scale),
            phase="build-core-topologies",
        )
    monitors = topos.monitor_asns(scale.num_monitors)
    internet_fp = topology_fingerprint(topos.internet)

    # --- BGP and BGPsec on the full Internet topology --------------------
    bgp_monthly = rt.cached_value(
        "figure5-bgp",
        [internet_fp, monitors, scale.seed],
        lambda: _bgp_monthly(topos.internet, monitors, scale.seed),
        phase="bgp-convergence",
    )
    monthly: Dict[str, Dict[int, float]] = {
        "bgp": dict(bgp_monthly["bgp"]),
        "bgpsec": dict(bgp_monthly["bgpsec"]),
        "scion-core-baseline": {},
        "scion-core-diversity": {},
        "scion-intra-isd-baseline": {},
    }

    # --- SCION intra-ISD topology + monitor proxies ----------------------
    isd = rt.cached_value(
        "large-isd",
        [scale, internet_fp],
        lambda: build_large_isd(scale, topos.internet),
        phase="build-large-isd",
    )
    proxy = _nearest_degree_proxy(monitors, isd, topos.internet)

    # --- the three beaconing series, fanned out over the pool ------------
    core_config = scale.core_beaconing_config(storage_limit)
    monitor_set = tuple(sorted(monitors))
    specs = [
        (
            topos.scion_core,
            SeriesSpec(
                name="scion-core-baseline",
                algorithm="baseline",
                config=core_config,
                warmup_intervals=scale.warmup_intervals,
                seed=scale.seed,
                collect_received=monitor_set,
            ),
        ),
        (
            topos.scion_core,
            SeriesSpec(
                name="scion-core-diversity",
                algorithm="diversity",
                config=core_config,
                warmup_intervals=scale.warmup_intervals,
                params=params,
                seed=scale.seed,
                collect_received=monitor_set,
            ),
        ),
        (
            isd,
            SeriesSpec(
                name="scion-intra-isd-baseline",
                algorithm="baseline",
                config=scale.intra_isd_config(storage_limit),
                warmup_intervals=scale.warmup_intervals,
                seed=scale.seed,
                collect_received=tuple(sorted(set(proxy.values()))),
            ),
        ),
    ]
    series = {o.name: o.result for o in rt.run(specs)}

    for monitor in monitors:
        for name in ("scion-core-baseline", "scion-core-diversity"):
            core = series[name]
            monthly[name][monitor] = scale_to_month(
                core.received_bytes[monitor], core.duration
            )
        intra = series["scion-intra-isd-baseline"]
        monthly["scion-intra-isd-baseline"][monitor] = scale_to_month(
            intra.received_bytes[proxy[monitor]], intra.duration
        )

    return Figure5Result(
        comparison=OverheadComparison(monthly_bytes=monthly),
        scale_name=scale.name,
    )


EXPERIMENT = Experiment(
    name="figure5",
    help="Figure 5: monthly control-plane overhead, BGP/BGPsec vs SCION",
    run=lambda args, scale, runtime: run_figure5(scale, runtime=runtime),
)
