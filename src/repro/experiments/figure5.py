"""Figure 5: monthly control-plane overhead relative to BGP.

Reproduces §5.2: the distribution, over monitor ASes, of the monthly
control-plane traffic of BGPsec, SCION core beaconing (baseline and
path-diversity-based), and SCION intra-ISD beaconing (baseline), each
relative to the monitor's BGP traffic.

Protocol measurement windows:

* BGP — churn model over the converged simulation (RouteViews stand-in);
* BGPsec — converged update counts x daily re-announcement x 30;
* SCION — one beaconing window after the warm-up, scaled linearly to a
  month: the whole refresh periods (:func:`~repro.core.scoring.refresh_period`)
  that ``duration`` holds once the warm-up covers one PCB lifetime (36
  warm-up + 30 measured intervals at ``bench``), or else the scale's own
  window, a fill-up reading at ``test`` (6 + 6). The render says which.

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
from ..core.scoring import DiversityParams, refresh_period
from ..runtime import ExperimentRuntime, SeriesSpec, topology_fingerprint
from ..topology.model import Topology
from .common import build_core_topologies, build_large_isd
from .config import PCB_LIFETIME, Experiment, ExperimentScale, steady_window
from .report import cdf_data, format_cdf_series, format_magnitude

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
    #: What the SCION window reads: whole refresh periods or not.
    window: str

    def series(self) -> Dict[str, EmpiricalCDF]:
        return {
            name: self.comparison.relative_cdf(name) for name in SERIES_ORDER
        }

    def median_relative(self, protocol: str) -> float:
        return self.comparison.median_relative(protocol)

    def data(self) -> dict:
        """The rendered numbers plus ``monthly_bytes``, the per-monitor
        series the golden fixture pins (monitor ASNs as strings)."""
        medians = {name: self.median_relative(name) for name in SERIES_ORDER}
        return {
            "scale": self.scale_name,
            "monthly_bytes": {
                series: {str(asn): value for asn, value in per.items()}
                for series, per in self.comparison.monthly_bytes.items()
            },
            "cdf": cdf_data(self.series()),
            "median_relative": medians,
            "diversity_gain": medians["scion-core-baseline"]
            / medians["scion-core-diversity"],
        }

    def render(self) -> str:
        lines = [
            f"Figure 5 (scale={self.scale_name}): monthly control-plane "
            "overhead relative to BGP, per monitor AS",
            f"  SCION window: {self.window}",
            format_cdf_series(self.series()),
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
    runtime: Optional[ExperimentRuntime] = None,
) -> Figure5Result:
    """Run all four protocol measurements and assemble the comparison."""
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "figure5"
    rt.report.scale = scale.name

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
    period = refresh_period(DiversityParams(), PCB_LIFETIME, scale.interval)
    series_scale, _, window = steady_window(scale, period)
    core_config = series_scale.core_beaconing_config()
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
                seed=scale.seed,
                collect_received=monitor_set,
            ),
        ),
        (
            isd,
            SeriesSpec(
                name="scion-intra-isd-baseline",
                algorithm="baseline",
                config=series_scale.intra_isd_config(),
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
        window=window,
    )


EXPERIMENT = Experiment(
    name="figure5",
    help="Figure 5: monthly control-plane overhead, BGP/BGPsec vs SCION",
    run=lambda args, scale, runtime: run_figure5(scale, runtime=runtime),
)
