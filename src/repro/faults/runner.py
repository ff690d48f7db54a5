"""The fault-injection workload family.

A :class:`FaultSpec` is one beaconing setup plus a fault schedule; it
runs through :func:`repro.runtime.worker.execute_task` like every other
family. The cached artifact is the final
:class:`~repro.faults.injector.FaultRunResult` — a tree of primitives — so
a cache hit is byte-identical to the run that produced it, and ``--jobs 1``
versus ``--jobs N`` compare equal by pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple

from ..control.revocation import RevocationService
from ..runtime.cache import stable_key
from ..runtime.instrument import PhaseRecord
from ..runtime.worker import Outcome, TaskContext
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    algorithm_factory,
)
from .injector import FaultInjector, FaultRunResult
from .schedule import FaultSchedule

__all__ = ["FaultSpec"]


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection run: a beaconing setup plus a fault schedule."""

    kind: ClassVar[str] = "fault"
    category: ClassVar[str] = "faults"

    name: str
    #: ``"baseline"`` or ``"diversity"`` — resolved to a factory in the
    #: worker (factory closures don't pickle; names do).
    algorithm: str
    config: BeaconingConfig
    schedule: FaultSchedule
    seed: int = 0
    #: Seed of the deterministic beacon-loss model (loss bursts only).
    loss_seed: int = 0
    #: (origin, receiver) pairs whose recovery the injector tracks.
    pairs: Tuple[Tuple[int, int], ...] = ()

    def labels(self) -> Dict[str, str]:
        return {"algorithm": self.algorithm}

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("fault-run", topology_fp, self)

    def execute(self, ctx: TaskContext) -> FaultRunResult:
        tel = ctx.tel
        factory = algorithm_factory(self.algorithm)
        start = time.perf_counter()
        sim = BeaconingSimulation(ctx.topology, factory, self.config, obs=tel)
        injector = FaultInjector(
            sim,
            self.schedule,
            pairs=self.pairs,
            # §4.1 revocation messages are accounted through this service.
            revocations=RevocationService(ctx.topology),
            loss_seed=self.loss_seed,
            name=self.name,
            obs=tel,
        )
        with ctx.span("run") as span:
            result = injector.run()
            span.set(
                events=result.events_applied,
                revocations=result.revocations_issued,
            )
        ctx.root_attrs["events"] = result.events_applied
        ctx.timings["run"] = time.perf_counter() - start
        return result

    def phases(self, outcome: Outcome) -> List[PhaseRecord]:
        result = outcome.result
        return [
            PhaseRecord(
                f"{outcome.name}:run",
                outcome.timings.get("run", 0.0),
                outcome.cached,
                {
                    "events": result.events_applied,
                    "revocations": result.revocations_issued,
                    "beacons_revoked": result.beacons_revoked,
                },
            )
        ]
