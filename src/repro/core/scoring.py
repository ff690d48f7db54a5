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

    diversity_score = max(0, 1 - geometric_mean / MAX_ACCEPTABLE_GM)

so a path over entirely unused links scores 1 (maximally diverse) and a path
whose links already carry ``MAX_ACCEPTABLE_GM`` sent paths scores 0. With
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

import math
from dataclasses import dataclass

#: The paper's "maximum acceptable geometric mean" of link counters. A
#: natural scale is the dissemination limit: if every disseminated path per
#: [origin, neighbor] crossed one link, its counter would reach it.
MAX_ACCEPTABLE_GM = 5.0

__all__ = [
    "DiversityParams", "diversity_score", "exponent_f", "exponent_g",
    "refresh_period", "final_score",
]


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
    #: beta, gamma and the threshold set how often a previously-sent path
    #: is refreshed: :func:`refresh_period`.
    beta: float = 8.0
    gamma: float = 4.0
    score_threshold: float = 0.3

    def validate(self) -> None:
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        if not 0.0 <= self.score_threshold < 1.0:
            raise ValueError("score_threshold must be in [0, 1)")


def diversity_score(geometric_mean: float) -> float:
    """Link diversity score in [0, 1]; 1 = fully disjoint from history."""
    if geometric_mean < 0:
        raise ValueError("geometric mean cannot be negative")
    return max(0.0, 1.0 - geometric_mean / MAX_ACCEPTABLE_GM)


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


def refresh_period(
    params: DiversityParams, lifetime: float, interval: float
) -> int:
    """P: how many intervals apart a path is re-sent in steady state.

    By Eq. (3) a sent path is refreshed once ``ds ** g`` exceeds the
    threshold, that is once ``r = sent_remaining / current_remaining``
    falls below ``r*(ds) = (ln threshold / ln ds) ** (1 / gamma) / beta``.
    An origin re-originates at age 0 every interval, and the link it
    leaves by carries only that path, so ``ds1 = 1 - 1 / MAX_ACCEPTABLE_GM``.
    ``k`` intervals after a send ``r = 1 - k * interval / lifetime``, so
    the refresh fires at the first ``k`` above ``(lifetime / interval) *
    (1 - r*(ds1))``. Downstream ASes forward a refreshed instance the
    interval it arrives: their refreshes ride the origin's wave, and
    propagation age does not move P. The defaults give P = 30.

    Steady state: after one lifetime the fill-up wave has ended and the
    traffic repeats every P intervals, so a window of whole periods reads
    the per-period average at any phase and scales to a month exactly
    (``experiments/config.py`` ``steady_window``, which Figures 5-9 and
    the grid search read); any other window reads one phase of the wave.
    The baseline floods its dissemination limit per origin over every
    interface every interval, while diversity sends a path once per P
    intervals per neighbour AS, which bounds the baseline/diversity factor
    by about P x parallel-link multiplicity x storage/limit window.

    Edge: a threshold of 0 passes every score (P = 1). P never exceeds
    the lifetime in intervals, rounded up: a path goes out again at the
    latest when its sent instance expires.
    """
    if lifetime <= 0 or interval <= 0:
        raise ValueError("lifetime and interval must be positive")
    lifetime_intervals = math.ceil(lifetime / interval)
    ds = 1.0 - 1.0 / MAX_ACCEPTABLE_GM
    if params.score_threshold == 0.0:
        return 1
    ratio = math.log(params.score_threshold) / math.log(ds)
    r_star = ratio ** (1.0 / params.gamma) / params.beta
    bound = (lifetime / interval) * (1.0 - r_star)
    return min(lifetime_intervals, max(1, math.floor(bound) + 1))


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
