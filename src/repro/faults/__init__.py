"""Deterministic, seed-driven fault injection (§4.1 / §5.3 dynamics).

The subsystem has three layers:

* :mod:`~repro.faults.schedule` — validated, picklable fault schedules
  (link failures/recoveries, AS outages, beacon-loss bursts) drawn from a
  seed;
* :mod:`~repro.faults.injector` — applies a schedule to a
  :class:`~repro.simulation.beaconing.BeaconingSimulation`, drives §4.1
  revocations, and records recovery metrics;
* :mod:`~repro.faults.runner` — the :class:`FaultSpec` workload family,
  so fault runs fan out and cache through
  :meth:`~repro.runtime.ExperimentRuntime.run` like every other run.
"""

from .injector import (
    BeaconLossModel,
    FaultInjector,
    FaultRunResult,
    PairRecovery,
)
from .runner import FaultSpec
from .schedule import (
    FaultEvent,
    FaultKind,
    FaultPlanConfig,
    FaultSchedule,
    random_schedule,
)

__all__ = [
    "BeaconLossModel",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlanConfig",
    "FaultRunResult",
    "FaultSchedule",
    "FaultSpec",
    "PairRecovery",
    "random_schedule",
]
