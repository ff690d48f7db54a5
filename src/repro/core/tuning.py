"""Parameter search for the diversity algorithm (Section 4.2).

"For a given topology, we find suitable parameters by first performing a
grid search with exponentially spaced values to narrow down the set of
parameters followed by a grid search with linearly spaced values to find a
set of well-performing parameters."

The search is generic over an *objective*: a callable mapping a
:class:`~repro.core.scoring.DiversityParams` to a real score (higher is
better). :mod:`repro.experiments.gridsearch` supplies the paper's objective
(failure resilience achieved per byte of beaconing overhead).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .scoring import DiversityParams

__all__ = ["GridSearchResult", "grid_search", "coarse_then_fine_search"]

Objective = Callable[[DiversityParams], float]


@dataclass
class GridSearchResult:
    """Outcome of one grid search pass."""

    best_params: DiversityParams
    best_score: float
    #: Every evaluated point, as (params, score), in evaluation order.
    evaluations: List[Tuple[DiversityParams, float]] = field(default_factory=list)
    #: Which measurement window the objective's overhead term read.
    window: str = ""

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluations)

    def data(self) -> dict:
        best = self.best_params
        return {
            "alpha": best.alpha, "beta": best.beta, "gamma": best.gamma,
            "score_threshold": best.score_threshold,
            "score": self.best_score, "evaluations": self.num_evaluations,
            "window": self.window,
        }

    def render(self) -> str:
        """What ``python -m repro.experiments gridsearch`` prints."""
        return (
            "Grid search (quality - overhead objective, {evaluations} "
            "evaluations):\n  best: alpha={alpha:.2f} beta={beta:.2f} "
            "gamma={gamma:.2f} threshold={score_threshold:.3f} "
            "(score {score:.3f})"
        ).format(**self.data())


def grid_search(
    objective: Objective,
    *,
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    thresholds: Sequence[float],
) -> GridSearchResult:
    """Exhaustive search over the cartesian grid of parameter values."""
    for name, values in (
        ("alphas", alphas),
        ("betas", betas),
        ("gammas", gammas),
        ("thresholds", thresholds),
    ):
        if not values:
            raise ValueError(f"{name} must be non-empty")
    evaluations: List[Tuple[DiversityParams, float]] = []
    best: Optional[Tuple[DiversityParams, float]] = None
    for alpha, beta, gamma, threshold in itertools.product(
        alphas, betas, gammas, thresholds
    ):
        params = DiversityParams(
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            score_threshold=threshold,
        )
        params.validate()
        score = objective(params)
        evaluations.append((params, score))
        if best is None or score > best[1]:
            best = (params, score)
    assert best is not None
    return GridSearchResult(
        best_params=best[0], best_score=best[1], evaluations=evaluations
    )


#: The coarse stage's exponentially spaced grid.
COARSE_ALPHAS = (0.5, 1.0, 2.0, 4.0)
COARSE_BETAS = (2.0, 4.0, 8.0, 16.0)
COARSE_GAMMAS = (2.0, 4.0, 8.0)
COARSE_THRESHOLDS = (0.05, 0.2, 0.4)
#: The fine stage's linear grid: this many points per parameter, spanning
#: ``center * (1 ± FINE_SPAN)``.
FINE_POINTS = 3
FINE_SPAN = 0.5


def _linear_span(center: float) -> List[float]:
    """:data:`FINE_POINTS` linearly spaced values around ``center``
    (positive values only)."""
    lo = center * (1.0 - FINE_SPAN)
    hi = center * (1.0 + FINE_SPAN)
    step = (hi - lo) / (FINE_POINTS - 1)
    return [max(1e-6, lo + i * step) for i in range(FINE_POINTS)]


def coarse_then_fine_search(objective: Objective) -> GridSearchResult:
    """The paper's two-stage search: exponentially spaced coarse grid, then
    a linearly spaced fine grid around the coarse optimum."""
    coarse = grid_search(
        objective,
        alphas=COARSE_ALPHAS,
        betas=COARSE_BETAS,
        gammas=COARSE_GAMMAS,
        thresholds=COARSE_THRESHOLDS,
    )
    center = coarse.best_params
    fine = grid_search(
        objective,
        alphas=_linear_span(center.alpha),
        betas=_linear_span(center.beta),
        gammas=_linear_span(center.gamma),
        thresholds=sorted(
            {min(0.99, max(0.0, t)) for t in _linear_span(center.score_threshold)}
        ),
    )
    evaluations = coarse.evaluations + fine.evaluations
    if fine.best_score >= coarse.best_score:
        return GridSearchResult(fine.best_params, fine.best_score, evaluations)
    return GridSearchResult(coarse.best_params, coarse.best_score, evaluations)
