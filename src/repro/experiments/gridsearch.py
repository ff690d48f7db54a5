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
from .config import Experiment, ExperimentScale
from .figure6 import (
    PathQualityResult,
    disseminated_values,
    optimum_values,
    sample_pairs,
)

__all__ = ["GridSearchExperiment", "run_gridsearch"]

#: Beacon-store size of every simulation the objective runs.
STORAGE_LIMIT = 20
#: Weight of the overhead penalty against the quality term.
OVERHEAD_WEIGHT = 0.3


@dataclass
class GridSearchExperiment:
    """A reusable objective over one topology."""

    scale: ExperimentScale
    num_ases: int = 12

    def __post_init__(self) -> None:
        self.topology = generate_core_mesh(
            self.num_ases, seed=self.scale.seed
        )
        self.config = BeaconingConfig(
            interval=self.scale.interval,
            duration=self.scale.duration,
            pcb_lifetime=self.scale.pcb_lifetime,
            storage_limit=STORAGE_LIMIT,
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
        return quality - OVERHEAD_WEIGHT * overhead


def run_gridsearch(
    scale: ExperimentScale,
    *,
    coarse_only: bool = False,
    num_ases: int = 12,
) -> GridSearchResult:
    """The two-stage (or coarse-only, for tests) parameter search."""
    experiment = GridSearchExperiment(scale, num_ases=num_ases)
    if coarse_only:
        return grid_search(
            experiment.objective,
            alphas=(1.0, 2.0),
            betas=(4.0, 8.0),
            gammas=(4.0,),
            thresholds=(0.05, 0.2),
        )
    return coarse_then_fine_search(experiment.objective)


EXPERIMENT = Experiment(
    name="gridsearch",
    help="parameter grid search for the diversity algorithm (paper §4.2)",
    run=lambda args, scale, runtime: run_gridsearch(
        scale, coarse_only=(scale.name == "test")
    ),
)
