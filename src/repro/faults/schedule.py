"""Deterministic, seed-driven fault schedules.

A :class:`FaultSchedule` is a validated, immutable list of
:class:`FaultEvent` entries pinned to beaconing-interval indices: link
failures and recoveries, AS outages and restarts, and beacon-message loss
bursts. Schedules are plain dataclasses of primitives, so they pickle into
process-pool tasks and fingerprint into the experiment cache unchanged —
the same schedule object is what makes ``--jobs 1`` and ``--jobs N`` fault
runs byte-identical.

:func:`random_schedule` draws a schedule from a seeded
:class:`random.Random`: every failure is paired with a recovery, faults
start only after a warm period, and the last recovery leaves a
re-exploration margin before the horizon, so post-recovery invariants
(resilience returning to its pre-failure value) are well-defined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from ..topology.model import Topology

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "FaultPlanConfig",
    "random_schedule",
]


class FaultKind(enum.Enum):
    """What happens at a scheduled interval."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    AS_DOWN = "as-down"
    AS_UP = "as-up"
    LOSS_START = "loss-start"
    LOSS_END = "loss-end"


#: Deterministic application order for events sharing an interval:
#: recoveries before failures (a link flap modeled as UP then DOWN at the
#: same interval nets to DOWN), loss-window edges last.
_KIND_ORDER = {
    FaultKind.LINK_UP: 0,
    FaultKind.AS_UP: 1,
    FaultKind.LINK_DOWN: 2,
    FaultKind.AS_DOWN: 3,
    FaultKind.LOSS_START: 4,
    FaultKind.LOSS_END: 5,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault or repair.

    ``target`` is a link id for ``LINK_*`` events, an ASN for ``AS_*``
    events, and unused (0) for loss-window edges; ``rate`` is the drop
    probability of a ``LOSS_START``.
    """

    interval: int
    kind: FaultKind
    target: int = 0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError("event interval must be non-negative")
        if self.kind is FaultKind.LOSS_START and not 0.0 < self.rate <= 1.0:
            raise ValueError("loss rate must be in (0, 1]")
        if self.kind is not FaultKind.LOSS_START and self.rate:
            raise ValueError("only LOSS_START events carry a rate")

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.interval, _KIND_ORDER[self.kind], self.target)


_PAIRED = {
    FaultKind.LINK_DOWN: FaultKind.LINK_UP,
    FaultKind.AS_DOWN: FaultKind.AS_UP,
    FaultKind.LOSS_START: FaultKind.LOSS_END,
}


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated fault schedule over ``horizon`` intervals."""

    events: Tuple[FaultEvent, ...]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must cover at least one interval")
        ordered = tuple(sorted(self.events, key=FaultEvent.sort_key))
        object.__setattr__(self, "events", ordered)
        self._validate()

    def _validate(self) -> None:
        open_faults: Dict[Tuple[FaultKind, int], int] = {}
        for event in self.events:
            if event.interval >= self.horizon:
                raise ValueError(
                    f"event at interval {event.interval} is outside the "
                    f"horizon of {self.horizon} intervals"
                )
            down = event.kind in _PAIRED
            up = event.kind in _PAIRED.values()
            if not down and not up:
                raise ValueError(f"unknown event kind {event.kind!r}")
            key = (_PAIRED[event.kind] if down else event.kind, event.target)
            if down:
                if key in open_faults:
                    raise ValueError(
                        f"{event.kind.value} on {event.target} at interval "
                        f"{event.interval} while already failed"
                    )
                open_faults[key] = event.interval
            else:
                if key not in open_faults:
                    raise ValueError(
                        f"{event.kind.value} on {event.target} at interval "
                        f"{event.interval} without a preceding failure"
                    )
                del open_faults[key]
        if open_faults:
            unrepaired = sorted(k[1] for k in open_faults)
            raise ValueError(
                f"schedule never repairs targets {unrepaired}; every "
                "failure needs a recovery inside the horizon"
            )

    # ------------------------------------------------------------- queries

    def events_at(self, interval: int) -> List[FaultEvent]:
        return [e for e in self.events if e.interval == interval]

    def first_fault_interval(self) -> Optional[int]:
        return self.events[0].interval if self.events else None


#: Beacon-loss rate of every random loss burst.
LOSS_RATE = 0.25
#: Outage length range in intervals, inclusive.
MIN_OUTAGE = 1
MAX_OUTAGE = 3
#: Intervals after the last recovery reserved for re-exploration.
RECOVERY_MARGIN = 6


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs of :func:`random_schedule` (all drawn from one seed)."""

    seed: int = 0
    #: Total beaconing intervals the fault run covers.
    horizon: int = 16
    num_link_failures: int = 2
    num_as_failures: int = 0
    #: Beacon-loss bursts (each with a random window and :data:`LOSS_RATE`).
    num_loss_bursts: int = 0
    #: Earliest fault interval (warm period establishing the pre state).
    first_fault: int = 4

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.first_fault < 1:
            raise ValueError("horizon and first_fault must be positive")
        latest = self.horizon - RECOVERY_MARGIN - MAX_OUTAGE
        if self.total_faults and latest < self.first_fault:
            raise ValueError(
                "horizon too short for first_fault + MAX_OUTAGE + "
                "RECOVERY_MARGIN"
            )

    @property
    def total_faults(self) -> int:
        return (
            self.num_link_failures
            + self.num_as_failures
            + self.num_loss_bursts
        )


def random_schedule(
    topology: Topology,
    config: FaultPlanConfig,
    *,
    link_ids: Optional[Sequence[int]] = None,
    asns: Optional[Sequence[int]] = None,
) -> FaultSchedule:
    """Draw a deterministic schedule from ``config.seed``.

    ``link_ids``/``asns`` restrict the candidate fault targets (e.g. CORE
    links only for a core-beaconing run); by default every link and every
    AS of the topology is a candidate. Targets are sampled without
    replacement, so one schedule never fails the same target twice.
    """
    rng = Random(config.seed)
    candidate_links = (
        sorted(link_ids)
        if link_ids is not None
        else sorted(link.link_id for link in topology.links())
    )
    candidate_ases = (
        sorted(asns) if asns is not None else sorted(topology.asns())
    )
    if config.num_link_failures > len(candidate_links):
        raise ValueError("more link failures requested than candidate links")
    if config.num_as_failures > len(candidate_ases):
        raise ValueError("more AS failures requested than candidate ASes")

    latest_start = config.horizon - RECOVERY_MARGIN - MAX_OUTAGE
    events: List[FaultEvent] = []

    def window() -> Tuple[int, int]:
        start = rng.randint(config.first_fault, latest_start)
        length = rng.randint(MIN_OUTAGE, MAX_OUTAGE)
        return start, start + length

    for link_id in rng.sample(candidate_links, config.num_link_failures):
        start, end = window()
        events.append(FaultEvent(start, FaultKind.LINK_DOWN, link_id))
        events.append(FaultEvent(end, FaultKind.LINK_UP, link_id))
    for asn in rng.sample(candidate_ases, config.num_as_failures):
        start, end = window()
        events.append(FaultEvent(start, FaultKind.AS_DOWN, asn))
        events.append(FaultEvent(end, FaultKind.AS_UP, asn))
    # Loss windows share one global switch; overlapping draws are merged
    # into a single burst so the schedule stays well-formed.
    windows = sorted(window() for _ in range(config.num_loss_bursts))
    merged: List[Tuple[int, int]] = []
    for start, end in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    for start, end in merged:
        events.append(
            FaultEvent(start, FaultKind.LOSS_START, rate=LOSS_RATE)
        )
        events.append(FaultEvent(end, FaultKind.LOSS_END))

    return FaultSchedule(events=tuple(events), horizon=config.horizon)
