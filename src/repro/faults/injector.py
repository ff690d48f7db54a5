"""Drives a fault schedule against a beaconing simulation.

The injector owns the interval loop: before each beaconing interval it
applies the schedule's due events (link failures/recoveries, AS
outages/restarts, loss-window edges), triggers §4.1 revocations through
:class:`~repro.control.revocation.RevocationService` (re-announced while
the failure persists, per the revocation lifetime), and after the interval
observes the monitored AS pairs. The result is a
:class:`FaultRunResult` of plain primitives: per-pair recovery records
(time-to-reconnect, paths lost/regained, pre/post resilience) and run
totals (revocations issued and their bytes, beacons revoked, beacons lost
to the loss model).

Everything here is deterministic given (simulation seed, schedule, loss
seed): event application order is the schedule's validated order, the loss
model decides per transmission from a content key rather than shared RNG
state, and observations iterate sorted pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Sequence, Tuple

from ..analysis.resilience import path_set_resilience
from ..control.messages import Component
from ..control.revocation import RevocationService
from ..core.policy import Transmission
from ..obs import NULL_TELEMETRY, Telemetry
from ..simulation.beaconing import BeaconingSimulation
from .schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "BeaconLossModel",
    "PairRecovery",
    "FaultRunResult",
    "FaultInjector",
]

#: Bucket bounds (beaconing intervals) of the recovery-time histograms.
RECOVERY_INTERVAL_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)


@dataclass(frozen=True)
class BeaconLossModel:
    """Deterministic per-transmission drop decision.

    The decision is a pure function of (seed, delivery interval, link,
    sender, beacon path), so it does not depend on delivery order or on
    any shared RNG state — two runs of the same schedule drop exactly the
    same beacons, in-process or in a worker.
    """

    seed: int
    rate: float

    def __call__(self, transmission: Transmission, interval: int) -> bool:
        if self.rate <= 0.0:
            return False
        key = (
            self.seed,
            interval,
            transmission.link.link_id,
            transmission.sender,
            transmission.pcb.origin,
            transmission.pcb.link_ids(),
        )
        # hash() of a tuple of ints is deterministic across processes
        # (PYTHONHASHSEED only perturbs str/bytes), so workers and the
        # serial path drop exactly the same beacons.
        return Random(hash(key)).random() < self.rate


@dataclass
class PairRecovery:
    """Recovery bookkeeping for one monitored (origin, receiver) pair."""

    origin: int
    receiver: int
    #: Stored paths / resilience just before the first fault was applied.
    pre_paths: int = 0
    pre_resilience: int = 0
    #: Lowest stored-path count observed from the first fault onward.
    min_paths: int = 0
    #: Intervals the pair spent with zero stored paths.
    disconnected_intervals: int = 0
    #: Intervals the pair spent below its pre-failure path count.
    degraded_intervals: int = 0
    #: Intervals from losing the last path to regaining one, or None if
    #: the pair never disconnected (or never reconnected).
    reconnect_intervals: Optional[int] = None
    #: Intervals from first dropping below the pre-failure path count to
    #: first returning to it — the re-exploration delay. None if the pair
    #: never degraded (or never restored).
    restore_intervals: Optional[int] = None
    #: Stored paths / resilience at the end of the run.
    post_paths: int = 0
    post_resilience: int = 0

    @property
    def resilience_recovered(self) -> bool:
        return self.post_resilience >= self.pre_resilience


@dataclass
class FaultRunResult:
    """Everything one fault run reports, picklable and comparable."""

    name: str
    intervals: int
    interval_seconds: float
    pairs: List[PairRecovery] = field(default_factory=list)
    revocations_issued: int = 0
    revocation_bytes: int = 0
    beacons_revoked: int = 0
    pcbs_lost: int = 0
    events_applied: int = 0

    def recovery_times(self) -> List[float]:
        """Seconds from disconnection to reconnection, one entry per pair
        that disconnected and came back."""
        return [
            pair.reconnect_intervals * self.interval_seconds
            for pair in self.pairs
            if pair.reconnect_intervals is not None
        ]

    def restore_times(self) -> List[float]:
        """Seconds from dropping below the pre-failure path count to
        returning to it, one entry per pair that degraded and restored."""
        return [
            pair.restore_intervals * self.interval_seconds
            for pair in self.pairs
            if pair.restore_intervals is not None
        ]

    def disconnected_pairs(self) -> int:
        return sum(1 for pair in self.pairs if pair.min_paths == 0)

    def degraded_pairs(self) -> int:
        return sum(1 for pair in self.pairs if pair.min_paths < pair.pre_paths)

    def recovered_pairs(self) -> int:
        return sum(1 for pair in self.pairs if pair.resilience_recovered)


class _PairTracker:
    """Per-interval connectivity state machine for one monitored pair."""

    def __init__(self, record: PairRecovery) -> None:
        self.record = record
        self.armed = False  # becomes True once the first fault is applied
        self.down_since: Optional[int] = None
        self.degraded_since: Optional[int] = None

    def observe(self, interval: int, path_count: int) -> None:
        if not self.armed:
            return
        record = self.record
        record.min_paths = min(record.min_paths, path_count)
        if path_count == 0:
            record.disconnected_intervals += 1
            if self.down_since is None:
                self.down_since = interval
        elif self.down_since is not None:
            if record.reconnect_intervals is None:
                record.reconnect_intervals = interval - self.down_since
            self.down_since = None
        if path_count < record.pre_paths:
            record.degraded_intervals += 1
            if self.degraded_since is None:
                self.degraded_since = interval
        elif self.degraded_since is not None:
            if record.restore_intervals is None:
                record.restore_intervals = interval - self.degraded_since
            self.degraded_since = None


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one beaconing simulation."""

    def __init__(
        self,
        sim: BeaconingSimulation,
        schedule: FaultSchedule,
        *,
        pairs: Sequence[Tuple[int, int]] = (),
        revocations: Optional[RevocationService] = None,
        loss_seed: int = 0,
        name: str = "fault-run",
        obs: Optional[Telemetry] = None,
    ) -> None:
        self.sim = sim
        self.schedule = schedule
        self.obs = obs if obs is not None else NULL_TELEMETRY
        self.pairs = tuple(sorted(pairs))
        self.revocations = revocations
        self.loss_seed = loss_seed
        self.result = FaultRunResult(
            name=name,
            intervals=schedule.horizon,
            interval_seconds=sim.config.interval,
            pairs=[
                PairRecovery(origin=origin, receiver=receiver)
                for origin, receiver in self.pairs
            ],
        )
        self._trackers = [_PairTracker(record) for record in self.result.pairs]
        self._first_fault = schedule.first_fault_interval()
        self._captured_pre = False
        self._metrics_exported = False

    # ----------------------------------------------------------------- run

    def run(self) -> FaultRunResult:
        """Run the whole horizon and finalize the result."""
        for _ in range(self.schedule.horizon):
            self.step()
        return self.finalize()

    def step(self) -> None:
        """One beaconing interval: apply due events, step, observe."""
        interval = self.sim.intervals_run
        with self.obs.causal.span(
            "faults", "step", run=self.result.name, interval=interval
        ):
            if interval == self._first_fault and not self._captured_pre:
                self._capture_pre()
            self._apply_events(interval)
            self.sim.step()
            self._observe(interval)

    def finalize(self) -> FaultRunResult:
        """Capture the post-run state; idempotent."""
        for record in self.result.pairs:
            paths = self._pair_paths(record.origin, record.receiver)
            record.post_paths = len(paths)
            record.post_resilience = path_set_resilience(
                self.sim.topology, record.origin, record.receiver, paths
            )
        self.result.pcbs_lost = self.sim.pcbs_lost
        if self.obs.metrics.enabled and not self._metrics_exported:
            self._metrics_exported = True
            self._export_metrics()
        return self.result

    def _export_metrics(self) -> None:
        """Fold this run's totals into the metrics registry (once)."""
        metrics = self.obs.metrics
        result = self.result
        labels = {"run": result.name}
        for name, value in (
            ("faults.events_applied", result.events_applied),
            ("faults.revocations_issued", result.revocations_issued),
            ("faults.revocation_bytes", result.revocation_bytes),
            ("faults.beacons_revoked", result.beacons_revoked),
            ("faults.pcbs_lost", result.pcbs_lost),
        ):
            if value:
                metrics.counter(name, labels).inc(value)
        reconnect = metrics.histogram(
            "faults.reconnect_intervals", RECOVERY_INTERVAL_BUCKETS, labels
        )
        restore = metrics.histogram(
            "faults.restore_intervals", RECOVERY_INTERVAL_BUCKETS, labels
        )
        for pair in result.pairs:
            if pair.reconnect_intervals is not None:
                reconnect.observe(float(pair.reconnect_intervals))
            if pair.restore_intervals is not None:
                restore.observe(float(pair.restore_intervals))

    # -------------------------------------------------------------- events

    def _apply_events(self, interval: int) -> None:
        for event in self.schedule.events_at(interval):
            self._apply(event)
            self.result.events_applied += 1
        self._reannounce_revocations()

    def _apply(self, event: FaultEvent) -> None:
        sim = self.sim
        self.obs.causal.instant(
            "faults",
            event.kind.name.lower(),
            target=event.target,
            interval=sim.intervals_run,
        )
        if event.kind is FaultKind.LINK_DOWN:
            self.result.beacons_revoked += sim.fail_link(event.target)
            self._issue_revocation(event.target)
        elif event.kind is FaultKind.LINK_UP:
            sim.recover_link(event.target)
        elif event.kind is FaultKind.AS_DOWN:
            incident = sim.topology.incident_link_ids(event.target)
            self.result.beacons_revoked += sim.fail_as(event.target)
            for link_id in incident:
                self._issue_revocation(link_id)
        elif event.kind is FaultKind.AS_UP:
            sim.recover_as(event.target)
        elif event.kind is FaultKind.LOSS_START:
            sim.loss_model = BeaconLossModel(self.loss_seed, event.rate)
        elif event.kind is FaultKind.LOSS_END:
            sim.loss_model = None
        else:  # pragma: no cover - schedule validation forbids this
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _issue_revocation(self, link_id: int) -> None:
        if self.revocations is None:
            return
        before = self.revocations.log.bytes(Component.PATH_REVOCATION)
        self.revocations.revoke_link(link_id, self.sim.now)
        self.result.revocations_issued += 1
        self.result.revocation_bytes += (
            self.revocations.log.bytes(Component.PATH_REVOCATION) - before
        )

    def _reannounce_revocations(self) -> None:
        """§4.1: 'failures are re-announced while they persist' — re-issue
        the revocation for any still-failed link whose previous revocation
        expired (the revocation lifetime is one beaconing interval by
        default)."""
        if self.revocations is None:
            return
        failed = list(self.sim.failed_links())
        for asn in self.sim.failed_ases():
            failed.extend(self.sim.topology.incident_link_ids(asn))
        for link_id in sorted(set(failed)):
            if not self.revocations.is_revoked(link_id, self.sim.now):
                self._issue_revocation(link_id)

    # ---------------------------------------------------------- observation

    def _pair_paths(self, origin: int, receiver: int) -> List[Tuple[int, ...]]:
        return [
            pcb.link_ids() for pcb in self.sim.paths_at(receiver, origin)
        ]

    def _capture_pre(self) -> None:
        self._captured_pre = True
        for record, tracker in zip(self.result.pairs, self._trackers):
            paths = self._pair_paths(record.origin, record.receiver)
            record.pre_paths = len(paths)
            record.min_paths = len(paths)
            record.pre_resilience = path_set_resilience(
                self.sim.topology, record.origin, record.receiver, paths
            )
            tracker.armed = True

    def _observe(self, interval: int) -> None:
        for record, tracker in zip(self.result.pairs, self._trackers):
            tracker.observe(
                interval,
                len(self.sim.paths_at(record.receiver, record.origin)),
            )
