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

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluations)


def grid_search(
    objective: Objective,
    *,
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    thresholds: Sequence[float],
    max_acceptable_gm: float = 5.0,
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
            max_acceptable_gm=max_acceptable_gm,
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


def _linear_span(center: float, *, span: float = 0.5, points: int = 3) -> List[float]:
    """Linearly spaced values around ``center`` (positive values only)."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        return [center]
    lo = center * (1.0 - span)
    hi = center * (1.0 + span)
    step = (hi - lo) / (points - 1)
    return [max(1e-6, lo + i * step) for i in range(points)]


def coarse_then_fine_search(
    objective: Objective,
    *,
    coarse_alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    coarse_betas: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    coarse_gammas: Sequence[float] = (2.0, 4.0, 8.0),
    coarse_thresholds: Sequence[float] = (0.05, 0.2, 0.4),
    fine_points: int = 3,
    max_acceptable_gm: float = 5.0,
) -> GridSearchResult:
    """The paper's two-stage search: exponentially spaced coarse grid, then
    a linearly spaced fine grid around the coarse optimum."""
    coarse = grid_search(
        objective,
        alphas=coarse_alphas,
        betas=coarse_betas,
        gammas=coarse_gammas,
        thresholds=coarse_thresholds,
        max_acceptable_gm=max_acceptable_gm,
    )
    center = coarse.best_params
    fine = grid_search(
        objective,
        alphas=_linear_span(center.alpha, points=fine_points),
        betas=_linear_span(center.beta, points=fine_points),
        gammas=_linear_span(center.gamma, points=fine_points),
        thresholds=sorted(
            {min(0.99, max(0.0, t)) for t in _linear_span(
                center.score_threshold, points=fine_points
            )}
        ),
        max_acceptable_gm=max_acceptable_gm,
    )
    evaluations = coarse.evaluations + fine.evaluations
    if fine.best_score >= coarse.best_score:
        return GridSearchResult(fine.best_params, fine.best_score, evaluations)
    return GridSearchResult(coarse.best_params, coarse.best_score, evaluations)
