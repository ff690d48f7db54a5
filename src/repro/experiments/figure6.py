"""Figures 6a and 6b: path quality of the disseminated path sets.

Reproduces §5.3 on the scaled core network:

* **Figure 6a** — the minimum number of inter-AS link failures that
  disconnect an AS pair, per algorithm, against the optimum;
* **Figure 6b** — the maximum capacity between the pair in multiples of
  (uniform) inter-AS link capacity.

Both metrics are the unit-capacity max-flow of the pair's usable
sub-multigraph (they coincide by max-flow/min-cut; the paper notes the
objectives are equivalent), so one computation feeds both renderings.

Series: BGP with full multipath support (best possible case, computed from
a converged BGP simulation over the same AS subset with its original
business relationships), SCION baseline with storage limit 60, SCION
diversity with storage limits 15/30/60/unlimited, and the optimum over the
full core topology. The SCION series read the window :func:`quality_series`
gives (Figures 7-9 read it too); the render says which.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.flows import flow_graph_from_topology, max_flow
from ..analysis.resilience import path_set_resilience
from ..analysis.stats import EmpiricalCDF
from ..bgp.simulator import BGPSimulation
from ..core.scoring import DiversityParams, refresh_period
from ..runtime import ExperimentRuntime, SeriesSpec, topology_fingerprint
from ..simulation.beaconing import ALGORITHM_EVICTION
from .common import CoreTopologies, build_core_topologies
from .config import PCB_LIFETIME, Experiment, ExperimentScale, steady_window
from ..topology.model import Topology
from .report import cdf_data, format_cdf_series

__all__ = ["Figure6Result", "run_figure6"]

#: Beacon-store sizes of the diversity series (``None``: unbounded).
DIVERSITY_LIMITS: Tuple[Optional[int], ...] = (15, 30, 60, None)


def _series_name(limit: Optional[int]) -> str:
    return f"diversity({limit if limit is not None else 'inf'})"


@dataclass
class PathQualityResult:
    """Per-pair max-flow values for every series, plus the optimum: what
    Figures 6a/6b, Figures 7/8, the grid-search objective and the eviction
    ablation read (resilience and capacity coincide by max-flow/min-cut)."""

    #: series name -> per-pair value, aligned with ``pairs``; holds
    #: ``"optimum"``.
    values: Dict[str, List[float]]
    pairs: List[Tuple[int, int]]

    def cdf(self, series: str) -> EmpiricalCDF:
        return EmpiricalCDF.from_values(self.values[series])

    def mean_fraction_of_optimum(self, series: str) -> float:
        """§5.3's headline metric: achieved capacity / optimal capacity,
        averaged over pairs (pairs with optimum 0 count as achieved)."""
        return self.capped_fraction_of_optimum(series, None)

    def capped_fraction_of_optimum(
        self, series: str, cap: Optional[int]
    ) -> float:
        """Fraction of the *achievable* optimum: a storage limit of k
        bounds the disseminated paths per pair, so the reference is
        min(optimum, k). This is the reading behind the paper's
        99/97/95/82 % series ("close to the optimal capacity until the PCB
        storage limit is almost reached")."""
        fractions = []
        for value, optimum in zip(self.values[series], self.values["optimum"]):
            reference = optimum if cap is None else min(optimum, cap)
            fractions.append(value / reference if reference else 1.0)
        return sum(fractions) / len(fractions)


def optimum_values(
    topology: Topology, pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """The optimum series: max-flow over the full topology, per pair."""
    graph = flow_graph_from_topology(topology)
    return [max_flow(graph, origin, receiver) for origin, receiver in pairs]


@dataclass
class Figure6Result(PathQualityResult):
    """Figure 6's series: BGP, baseline(60), diversity per storage limit."""

    scale_name: str
    #: What the SCION series read: a steady window or a fill-up reading.
    window: str

    def series_names(self) -> List[str]:
        diversity = [n for n in self.values if n.startswith("diversity(")]
        ordered = ["bgp", "baseline(60)", *diversity, "optimum"]
        return [n for n in ordered if n in self.values]

    def resilience_at_most(self, series: str, threshold: int) -> float:
        """Fraction of pairs with at most ``threshold`` failing links
        (Figure 6a is read on this prefix of the distribution)."""
        values = self.values[series]
        return sum(1 for v in values if v <= threshold) / len(values)

    def orderings_hold(self) -> bool:
        """The qualitative shape of Figures 6a/6b: BGP <= baseline <=
        diversity(15) <= diversity(30) <= diversity(60) <= diversity(inf)
        <= optimum, in mean fraction of optimum. The tolerance is for
        ``test``'s fill-up reading, taken before the stores settle."""
        order = ["bgp", "baseline(60)"]
        order += [_series_name(limit) for limit in DIVERSITY_LIMITS]
        fractions = [
            self.mean_fraction_of_optimum(name)
            for name in order
            if name in self.values
        ]
        return all(
            later >= earlier - 0.06
            for earlier, later in zip(fractions, fractions[1:])
        ) and fractions[-1] <= 1.0 + 1e-9

    def render(self) -> str:
        series = {name: self.cdf(name) for name in self.series_names()}
        lines = [
            f"Figure 6a (scale={self.scale_name}): minimum number of "
            f"failing links disconnecting an AS pair ({len(self.pairs)} pairs)",
            f"  SCION window: {self.window}",
            format_cdf_series(series, "{:.0f}"),
            "",
            "  fraction of pairs with <= 15 failing links (paper: ~40%):",
        ]
        for name in self.series_names():
            lines.append(
                f"    {name:16s} {self.resilience_at_most(name, 15):6.1%}"
            )
        lines.append("")
        lines.append(
            f"Figure 6b (scale={self.scale_name}): capacity as fraction of "
            "optimum (paper: diversity 99/97/95/82% for 15/30/60/inf)"
        )
        for name in self.series_names():
            lines.append(
                f"    {name:16s} {self.mean_fraction_of_optimum(name):6.1%}"
            )
        lines.append(
            "  fraction of storage-capped optimum (the paper's reading):"
        )
        for name, fraction in self.capped_fractions().items():
            lines.append(f"    {name:16s} {fraction:6.1%}")
        return "\n".join(lines)

    def capped_fractions(self) -> Dict[str, float]:
        """:meth:`capped_fraction_of_optimum` of every diversity series at
        the storage limit its name carries (``diversity(15)``: 15)."""
        return {
            name: self.capped_fraction_of_optimum(
                name, None if name == "diversity(inf)" else int(name[10:-1])
            )
            for name in self.series_names()
            if name.startswith("diversity(")
        }

    def data(self) -> dict:
        """The rendered numbers plus ``pairs`` and ``values``, the raw
        per-pair series the golden fixture pins."""
        names = self.series_names()
        return {
            "scale": self.scale_name, "window": self.window,
            "pairs": self.pairs, "values": self.values,
            "cdf": cdf_data({name: self.cdf(name) for name in names}),
            "at_most_15": {n: self.resilience_at_most(n, 15) for n in names},
            "fraction_of_optimum": {
                name: self.mean_fraction_of_optimum(name) for name in names
            },
            "capped_fraction_of_optimum": self.capped_fractions(),
        }


def sample_pairs(
    asns: Sequence[int], count: int, seed: int
) -> List[Tuple[int, int]]:
    """Deterministic sample of ordered (origin, receiver) pairs."""
    if len(asns) < 2:
        raise ValueError("need at least two ASes to form pairs")
    rng = random.Random(seed)
    all_possible = len(asns) * (len(asns) - 1)
    pairs: set = set()
    target = min(count, all_possible)
    while len(pairs) < target:
        origin, receiver = rng.sample(list(asns), 2)
        pairs.add((origin, receiver))
    return sorted(pairs)


def quality_series(
    scale: ExperimentScale,
    topology: Topology,
    pairs: Sequence[Tuple[int, int]],
    series: Sequence[Tuple[str, str, Optional[int]]],
    seed: int,
) -> Tuple[List[Tuple[Topology, SeriesSpec]], str]:
    """One core-beaconing :class:`SeriesSpec` per ``(name, algorithm,
    storage limit)`` of ``series``, reading ``pairs``, and what they read:
    :func:`~repro.experiments.config.steady_window` at the default refresh
    period (``bench``: a lifetime of warm-up, then each pair's mean over
    one period) or, short of one steady period, a cold run over
    ``duration``, read once at its end (``test``)."""
    period = refresh_period(DiversityParams(), PCB_LIFETIME, scale.interval)
    run_scale, periods, window = steady_window(scale, period)
    if not periods:
        cold = scale.scaled(warmup_intervals=0)
        run_scale, _, window = steady_window(cold, period)
    specs = [
        (topology, SeriesSpec(
            name=name,
            algorithm=algorithm,
            config=replace(
                run_scale.core_beaconing_config(limit),
                eviction_policy=ALGORITHM_EVICTION[algorithm],
            ),
            warmup_intervals=run_scale.warmup_intervals,
            seed=seed,
            collect_pairs=tuple(pairs),
        ))
        for name, algorithm, limit in series
    ]
    return specs, window


def _bgp_multipath_values(
    topos: CoreTopologies, pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """§5.3: "choosing the best path present in RouteViews and assuming full
    BGP multi-path support between every AS pair" — the single best AS
    path, with every parallel link of each adjacency on it usable."""
    core = topos.scion_core
    bgp_sim = BGPSimulation(topos.bgp_core).run()
    bgp_values: List[int] = []
    for origin, receiver in pairs:
        as_path = bgp_sim.best_path(receiver, origin)
        if not as_path or len(as_path) < 2:
            bgp_values.append(0)
            continue
        link_ids = [
            link.link_id
            for a, b in zip(as_path, as_path[1:])
            for link in core.links_between(a, b)
        ]
        bgp_values.append(
            path_set_resilience(core, origin, receiver, [link_ids])
        )
    return bgp_values


def run_figure6(
    scale: ExperimentScale,
    *,
    runtime: Optional[ExperimentRuntime] = None,
) -> Figure6Result:
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "figure6"
    rt.report.scale = scale.name

    topos = rt.cached_value(
        "core-topologies",
        [scale],
        lambda: build_core_topologies(scale),
        phase="build-core-topologies",
    )
    core = topos.scion_core
    core_fp = topology_fingerprint(core)
    pairs = sample_pairs(core.asns(), scale.num_pairs, scale.seed)

    values: Dict[str, List[float]] = {}

    # --- optimum over the full core topology ------------------------------
    with rt.report.phase("optimum-max-flow"):
        values["optimum"] = optimum_values(core, pairs)

    # --- BGP with full multipath ------------------------------------------
    values["bgp"] = rt.cached_value(
        "figure6-bgp",
        [core_fp, pairs],
        lambda: _bgp_multipath_values(topos, pairs),
        phase="bgp-multipath",
    )

    # --- SCION algorithms, one series per (algorithm, limit) --------------
    specs, window = quality_series(
        scale, core, pairs,
        [("baseline(60)", "baseline", 60)]
        + [(_series_name(k), "diversity", k) for k in DIVERSITY_LIMITS],
        scale.seed,
    )
    for outcome in rt.run(specs):
        values[outcome.name] = list(outcome.result.resilience)

    return Figure6Result(
        values=values, pairs=pairs, scale_name=scale.name, window=window
    )


EXPERIMENT = Experiment(
    name="figure6",
    help="Figures 6a+6b: path resilience and capacity against the optimum",
    run=lambda args, scale, runtime: run_figure6(scale, runtime=runtime),
    aliases=("figure6a", "figure6b"),
)
