"""Monthly BGP/BGPsec overhead models (the RouteViews substitution).

The paper reads BGP's monthly per-monitor overhead directly from the
RouteViews update archive, and derives BGPsec's by simulating convergence
and "assuming a re-beaconing period of one day, the resulting overhead is
multiplied by 30". Without the archive we model both from the *same*
convergence simulation, keeping the comparison internally consistent:

* **BGP** — each origin AS experiences a heavy-tailed number of routing
  events (flaps, policy changes) per month; every event replays the
  origin's convergence update sequence at each monitor, one plain
  RFC 4271-sized update per affected prefix (flap updates are per-prefix;
  they do not enjoy table-transfer aggregation). The default event rate
  (about a dozen per origin per month) reproduces the well-known few-KB
  per prefix per month volume that RouteViews monitors observe.
* **BGPsec** — exactly the paper's model: a daily full re-announcement of
  every prefix, each carried in its own fully signed RFC 8205 update,
  multiplied by 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Mapping

from .bgpsec import bgpsec_update_size
from .messages import bgp_update_size
from .simulator import BGPSimulation

__all__ = ["BGPChurnModel", "monthly_bgp_bytes", "monthly_bgpsec_bytes"]


@dataclass(frozen=True)
class BGPChurnModel:
    """Heavy-tailed per-origin routing-event rate."""

    #: RouteViews collectors digest on the order of 100 updates per prefix
    #: per month (path exploration included); with the ~2-3x exploration
    #: amplification the convergence replay adds per event, ~40 events per
    #: origin per month reproduces that volume.
    mean_events_per_month: float = 40.0
    sigma: float = 1.0
    seed: int = 0

    def rng(self, origin: int) -> Random:
        """The explicit per-origin RNG: every random draw of the churn
        model flows through here, seeded by (model seed, origin), so event
        counts are reproducible per origin and independent of call order
        or any global :mod:`random` state."""
        return Random((self.seed << 32) ^ origin)

    def events_per_month(self, origin: int) -> float:
        """Deterministic monthly event count for one origin AS."""
        if self.mean_events_per_month <= 0:
            raise ValueError("mean_events_per_month must be positive")
        rng = self.rng(origin)
        # Lognormal with the configured mean: E[exp(N(mu, sigma))] = mean.
        mu = math.log(self.mean_events_per_month) - self.sigma**2 / 2.0
        return math.exp(rng.gauss(mu, self.sigma))


def _path_length(simulation: BGPSimulation, monitor: int, origin: int) -> int:
    path = simulation.best_path(monitor, origin)
    return len(path) if path else 1


def monthly_bgp_bytes(
    simulation: BGPSimulation,
    monitor: int,
    prefix_counts: Mapping[int, int],
    model: BGPChurnModel,
) -> float:
    """Modeled monthly BGP update bytes received by ``monitor``."""
    received = simulation.updates_received_by_origin(monitor)
    total = 0.0
    for origin, convergence_updates in received.items():
        if origin == monitor:
            continue
        prefixes = prefix_counts.get(origin, 1)
        size = bgp_update_size(_path_length(simulation, monitor, origin))
        events = model.events_per_month(origin)
        total += convergence_updates * events * prefixes * size
    return total


def monthly_bgpsec_bytes(
    simulation: BGPSimulation,
    monitor: int,
    prefix_counts: Mapping[int, int],
    *,
    reannouncements_per_month: float = 30.0,
) -> float:
    """Modeled monthly BGPsec bytes: daily signed full re-announcement.

    Per origin: the monitor's converged update count for that origin
    (path exploration included), one RFC 8205 update per prefix, times the
    monthly re-announcement count (the paper's x30).
    """
    if reannouncements_per_month <= 0:
        raise ValueError("reannouncements_per_month must be positive")
    received = simulation.updates_received_by_origin(monitor)
    total = 0.0
    for origin, convergence_updates in received.items():
        if origin == monitor:
            continue
        prefixes = prefix_counts.get(origin, 1)
        size = bgpsec_update_size(_path_length(simulation, monitor, origin))
        total += (
            convergence_updates * prefixes * size * reannouncements_per_month
        )
    return total
