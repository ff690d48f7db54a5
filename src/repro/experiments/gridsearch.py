"""Parameter grid search for the diversity algorithm (§4.2).

The paper selects alpha, beta, gamma and the score threshold per topology
"by first performing a grid search with exponentially spaced values ...
followed by a grid search with linearly spaced values". The objective here
scores a parameter set by the quality/overhead trade-off the algorithm is
designed for: the mean fraction of optimal capacity achieved across AS
pairs, minus a penalty proportional to the steady-state overhead relative
to the baseline algorithm's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict

from ..analysis.resilience import stored_path_resilience
from ..core.scoring import DiversityParams, refresh_period
from ..core.tuning import GridSearchResult, coarse_then_fine_search, grid_search
from ..simulation.beaconing import (
    ALGORITHM_EVICTION,
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from ..topology.generator import generate_core_mesh
from .config import PCB_LIFETIME, Experiment, ExperimentScale, steady_window
from .figure6 import PathQualityResult, optimum_values, sample_pairs

__all__ = ["GridSearchExperiment", "run_gridsearch"]

#: Size of the core mesh the objective runs on.
NUM_ASES = 12
#: Beacon-store size of every simulation the objective runs.
STORAGE_LIMIT = 20
#: Weight of the overhead penalty against the quality term.
OVERHEAD_WEIGHT = 0.3


@dataclass
class GridSearchExperiment:
    """A reusable objective over one topology.

    Each candidate's quality and overhead are read over the window Figure 5
    reads (:func:`~repro.experiments.config.steady_window`) with the
    candidate's own refresh period: once the warm-up covers one PCB
    lifetime, its whole refresh periods (quality as each pair's mean over
    them) against the baseline's ``duration``, both in bytes per measured
    interval; otherwise both over the scale's ``duration`` from a cold
    start, quality read at its end."""

    scale: ExperimentScale

    def __post_init__(self) -> None:
        self.topology = generate_core_mesh(NUM_ASES, seed=self.scale.seed)
        self.config = BeaconingConfig(
            interval=self.scale.interval,
            duration=self.scale.duration,
            pcb_lifetime=PCB_LIFETIME,
            storage_limit=STORAGE_LIMIT,
            eviction_policy=ALGORITHM_EVICTION["diversity"],
        )
        self.pairs = sample_pairs(
            self.topology.asns(),
            min(self.scale.num_pairs, 30),
            self.scale.seed,
        )
        self._optimum = optimum_values(self.topology, self.pairs)
        #: Refresh period -> intervals its candidates measured (0: cold).
        self.windows: Dict[int, int] = {}
        #: Baseline bytes per interval, by whether the window is steady.
        self._baseline: Dict[bool, Fraction] = {}

    def _run(self, factory, measured: int, pairs=()) -> tuple:
        """*factory*'s simulation and its :func:`stored_path_resilience`
        over ``pairs``: ``measured`` intervals after the warm-up (metrics
        reset), or the whole ``duration`` cold when that is 0."""
        sim = BeaconingSimulation(self.topology, factory, self.config)
        if not measured:
            sim.run()
            return sim, stored_path_resilience(sim, pairs)
        sim.run_intervals(self.scale.warmup_intervals)
        sim.reset_metrics()
        return sim, stored_path_resilience(sim, pairs, measured)

    def objective(self, params: DiversityParams) -> float:
        """Quality minus overhead penalty, both normalized to [0, 1]."""
        period = refresh_period(params, PCB_LIFETIME, self.scale.interval)
        measured = steady_window(self.scale, period)[1] * period
        self.windows[period] = measured
        sim, achieved = self._run(
            diversity_factory(params=params), measured, self.pairs
        )
        quality = PathQualityResult(
            {"optimum": self._optimum, "diversity": achieved}, self.pairs
        ).mean_fraction_of_optimum("diversity")
        intervals, steady = self.config.num_intervals, bool(measured)
        if steady not in self._baseline:
            base, _ = self._run(baseline_factory(), steady and intervals)
            self._baseline[steady] = Fraction(
                max(1, base.metrics.total_bytes), intervals
            )
        # Exact per-interval ratio: on the cold window both sides count the
        # same intervals, so it rounds to the plain byte ratio.
        sent = Fraction(sim.metrics.total_bytes, measured or intervals)
        overhead = min(1.0, float(sent / self._baseline[steady]))
        return quality - OVERHEAD_WEIGHT * overhead

    @property
    def window(self) -> str:
        """Which window the evaluated candidates read."""
        readings = []
        for steady in (True, False):
            periods = sorted(p for p, m in self.windows.items() if bool(m) == steady)
            if not periods:
                continue
            span = f"P = {periods[0]}–{periods[-1]}"
            intervals = self.config.num_intervals
            readings.append(
                f"{self.scale.warmup_intervals} warm-up intervals, then each "
                f"candidate's whole refresh periods ({span}) against "
                f"{intervals} baseline intervals" if steady else
                f"{intervals} intervals from a cold start ({span}): "
                f"fill-up reading"
            )
        return "; ".join(readings)


def run_gridsearch(
    scale: ExperimentScale, *, coarse_only: bool = False
) -> GridSearchResult:
    """The two-stage (or coarse-only, for tests) parameter search."""
    experiment = GridSearchExperiment(scale)
    if coarse_only:
        result = grid_search(
            experiment.objective,
            alphas=(1.0, 2.0),
            betas=(4.0, 8.0),
            gammas=(4.0,),
            thresholds=(0.05, 0.2),
        )
    else:
        result = coarse_then_fine_search(experiment.objective)
    return replace(result, window=experiment.window)


EXPERIMENT = Experiment(
    name="gridsearch",
    help="parameter grid search for the diversity algorithm (paper §4.2)",
    run=lambda args, scale, runtime: run_gridsearch(
        scale, coarse_only=(scale.name == "test")
    ),
)
