"""Tests for the grid-search machinery (§4.2 parameter selection)."""

import pytest

from repro.core import DiversityParams, coarse_then_fine_search, grid_search
from repro.core.tuning import (
    COARSE_ALPHAS, COARSE_BETAS, COARSE_GAMMAS, COARSE_THRESHOLDS,
)


def quadratic_objective(params: DiversityParams) -> float:
    """A smooth objective peaking at alpha=2, beta=8, gamma=4, thr=0.2."""
    return -(
        (params.alpha - 2.0) ** 2
        + (params.beta - 8.0) ** 2 / 16.0
        + (params.gamma - 4.0) ** 2 / 4.0
        + (params.score_threshold - 0.2) ** 2 * 10.0
    )


class TestGridSearch:
    def test_exhaustive_over_grid(self):
        result = grid_search(
            quadratic_objective,
            alphas=(1.0, 2.0, 4.0),
            betas=(4.0, 8.0),
            gammas=(4.0,),
            thresholds=(0.1, 0.2),
        )
        assert result.num_evaluations == 3 * 2 * 1 * 2
        assert result.best_params.alpha == 2.0
        assert result.best_params.beta == 8.0
        assert result.best_params.score_threshold == 0.2

    def test_best_score_is_max(self):
        result = grid_search(
            quadratic_objective,
            alphas=(1.0, 3.0),
            betas=(8.0,),
            gammas=(4.0,),
            thresholds=(0.2,),
        )
        assert result.best_score == max(s for _, s in result.evaluations)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid_search(
                quadratic_objective,
                alphas=(),
                betas=(1.0,),
                gammas=(1.0,),
                thresholds=(0.1,),
            )

    def test_invalid_params_rejected_by_validation(self):
        with pytest.raises(ValueError):
            grid_search(
                quadratic_objective,
                alphas=(-1.0,),
                betas=(1.0,),
                gammas=(1.0,),
                thresholds=(0.1,),
            )


class TestCoarseThenFine:
    def test_fine_stage_refines_coarse_optimum(self):
        result = coarse_then_fine_search(quadratic_objective)
        coarse_grid_size = (
            len(COARSE_ALPHAS) * len(COARSE_BETAS) * len(COARSE_GAMMAS)
            * len(COARSE_THRESHOLDS)
        )
        assert result.num_evaluations > coarse_grid_size
        # The fine stage must not end below the coarse optimum.
        coarse_best = max(
            score for _, score in result.evaluations[:coarse_grid_size]
        )
        assert result.best_score >= coarse_best

    def test_all_evaluated_params_valid(self):
        result = coarse_then_fine_search(quadratic_objective)
        for params, _ in result.evaluations:
            params.validate()
