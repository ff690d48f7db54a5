"""PCB scoring (Section 4.2, Equations 1-3).

The final score of a candidate (PCB, egress interface) combination is

    score = diversity_score ** g     if the path was previously sent
    score = diversity_score ** f     otherwise                      (Eq. 1)

    f = alpha * age / lifetime                                      (Eq. 2)
    g = (beta * sent_remaining / current_remaining) ** gamma        (Eq. 3)

The paper scales the geometric mean of link-history counters "to the
interval [0, 1] by dividing it by the maximum acceptable geometric mean" and
leaves the orientation of the resulting score implicit. We resolve it so
that *higher score = better candidate* (which the pseudo-code's
``score > max_score`` selection requires):

    diversity_score = max(0, 1 - geometric_mean / max_acceptable_gm)

so a path over entirely unused links scores 1 (maximally diverse) and a path
whose links already carry ``max_acceptable_gm`` sent paths scores 0. With
``ds in [0, 1]`` the exponents behave exactly as the paper's three
objectives demand:

* **Preserve connectivity** — as a previously-sent instance nears expiry,
  ``sent_remaining -> 0`` so ``g -> 0`` and ``score -> 1``: the refresh wins.
* **Discover new paths** — while the sent instance is fresh,
  ``sent_remaining ~ current_remaining`` makes ``g ~ beta**gamma`` large, so
  previously-sent paths score near 0 and unseen paths (``f`` moderate) win.
* **Save bandwidth** — recently-sent paths stay suppressed below the score
  threshold until shortly before expiry.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiversityParams", "diversity_score", "exponent_f", "exponent_g", "final_score"]


@dataclass(frozen=True)
class DiversityParams:
    """Tunable parameters of the path-diversity-based algorithm.

    The defaults are not what this repository's grid search picks
    (``experiments/gridsearch.py``, 12-AS core mesh): alpha=6, beta=24,
    gamma=4, threshold 0.6 at ``bench`` (score 0.989, 225 evaluations);
    alpha=2, beta=4, gamma=4, threshold 0.2 on the coarse ``test``
    corners (score 0.859). EXPERIMENTS.md §4.2 has both readings.
    """

    alpha: float = 4.0
    #: beta controls when a previously-sent path is refreshed: the refresh
    #: fires when (beta * remaining-ratio)^gamma is small enough for
    #: ds^g to cross the threshold. beta = 8 defers refreshes until ~15 %
    #: of the sent instance's lifetime remains — one refresh per lifetime,
    #: the steady-state overhead the paper's suppression objective targets.
    beta: float = 8.0
    gamma: float = 4.0
    score_threshold: float = 0.3
    #: "maximum acceptable geometric mean" of link counters; a natural scale
    #: is the dissemination limit (if every disseminated path per
    #: [origin, neighbor] crossed one link, its counter would reach it).
    max_acceptable_gm: float = 5.0

    def validate(self) -> None:
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        if not 0.0 <= self.score_threshold < 1.0:
            raise ValueError("score_threshold must be in [0, 1)")
        if self.max_acceptable_gm <= 0:
            raise ValueError("max_acceptable_gm must be positive")


def diversity_score(geometric_mean: float, params: DiversityParams) -> float:
    """Link diversity score in [0, 1]; 1 = fully disjoint from history."""
    if geometric_mean < 0:
        raise ValueError("geometric mean cannot be negative")
    return max(0.0, 1.0 - geometric_mean / params.max_acceptable_gm)


def exponent_f(age: float, lifetime: float, params: DiversityParams) -> float:
    """Eq. (2): exponent for not-previously-sent PCBs."""
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    return params.alpha * max(0.0, age) / lifetime


def exponent_g(
    sent_remaining: float,
    current_remaining: float,
    params: DiversityParams,
) -> float:
    """Eq. (3): exponent for previously-sent PCBs."""
    if current_remaining <= 0:
        raise ValueError("current PCB must have remaining lifetime")
    ratio = max(0.0, sent_remaining) / current_remaining
    return (params.beta * ratio) ** params.gamma


def final_score(ds: float, exponent: float) -> float:
    """Eq. (1): ``ds ** exponent`` with the boundary convention
    ``0 ** 0 == 1`` (a fully saturated path whose sent instance is about to
    expire must still be refreshable)."""
    if ds < 0:
        raise ValueError("diversity score cannot be negative")
    if exponent < 0:
        raise ValueError("exponent cannot be negative")
    if ds == 0.0 and exponent == 0.0:
        return 1.0
    return ds**exponent
