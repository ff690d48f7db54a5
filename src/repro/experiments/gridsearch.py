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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.scoring import DiversityParams
from ..core.tuning import GridSearchResult, coarse_then_fine_search, grid_search
from ..simulation.beaconing import (
    ALGORITHM_EVICTION,
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from ..topology.generator import generate_core_mesh
from .config import Experiment, ExperimentScale, Text
from .figure6 import (
    PathQualityResult,
    disseminated_values,
    optimum_values,
    sample_pairs,
)

__all__ = ["GridSearchExperiment", "run_gridsearch"]


@dataclass
class GridSearchExperiment:
    """A reusable objective over one topology."""

    scale: ExperimentScale
    num_ases: int = 12
    storage_limit: int = 20
    overhead_weight: float = 0.3

    def __post_init__(self) -> None:
        self.topology = generate_core_mesh(
            self.num_ases, seed=self.scale.seed
        )
        self.config = BeaconingConfig(
            interval=self.scale.interval,
            duration=self.scale.duration,
            pcb_lifetime=self.scale.pcb_lifetime,
            storage_limit=self.storage_limit,
            eviction_policy=ALGORITHM_EVICTION["diversity"],
        )
        self.pairs = sample_pairs(
            self.topology.asns(),
            min(self.scale.num_pairs, 30),
            self.scale.seed,
        )
        self._optimum = optimum_values(self.topology, self.pairs)
        baseline = BeaconingSimulation(
            self.topology, baseline_factory(), self.config
        ).run()
        self._baseline_bytes = max(1, baseline.metrics.total_bytes)
        self.evaluations: List[Tuple[DiversityParams, float]] = []

    def objective(self, params: DiversityParams) -> float:
        """Quality minus overhead penalty, both normalized to [0, 1]."""
        sim = BeaconingSimulation(
            self.topology, diversity_factory(params=params), self.config
        ).run()
        achieved = disseminated_values(sim, self.topology, self.pairs)
        quality = PathQualityResult(
            {"optimum": self._optimum, "diversity": achieved}, self.pairs
        ).mean_fraction_of_optimum("diversity")
        overhead = min(1.0, sim.metrics.total_bytes / self._baseline_bytes)
        score = quality - self.overhead_weight * overhead
        self.evaluations.append((params, score))
        return score


def run_gridsearch(
    scale: ExperimentScale,
    *,
    coarse_only: bool = False,
    num_ases: Optional[int] = None,
) -> GridSearchResult:
    """The two-stage (or coarse-only, for tests) parameter search."""
    experiment = GridSearchExperiment(
        scale, num_ases=num_ases if num_ases is not None else 12
    )
    if coarse_only:
        return grid_search(
            experiment.objective,
            alphas=(1.0, 2.0),
            betas=(4.0, 8.0),
            gammas=(4.0,),
            thresholds=(0.05, 0.2),
        )
    return coarse_then_fine_search(experiment.objective)


def _run_cli(args, scale, runtime) -> Text:
    result = run_gridsearch(scale, coarse_only=(scale.name == "test"))
    best = result.best_params
    return Text(
        "Grid search (quality - overhead objective, "
        f"{result.num_evaluations} evaluations):\n"
        f"  best: alpha={best.alpha:.2f} beta={best.beta:.2f} "
        f"gamma={best.gamma:.2f} threshold={best.score_threshold:.3f} "
        f"(score {result.best_score:.3f})"
    )


EXPERIMENT = Experiment(
    name="gridsearch",
    help="parameter grid search for the diversity algorithm (paper §4.2)",
    run=_run_cli,
)
