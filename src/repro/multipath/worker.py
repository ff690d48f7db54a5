"""The multipath churn workload family.

A :class:`MultipathSpec` is one control-plane setup plus a churn config;
it runs through :func:`repro.runtime.worker.execute_task` like every
other family. The cached artifact is the
:class:`~repro.multipath.churn.ChurnResult` (pure primitives), so a cache
hit is byte-identical to the run that produced it, and ``--jobs 1`` versus
``--jobs N`` compare equal by pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List

from ..runtime.cache import stable_key
from ..runtime.instrument import PhaseRecord
from ..runtime.worker import (
    Outcome,
    TaskContext,
    control_run_phases,
    run_control_plane,
)
from ..simulation.beaconing import BeaconingConfig
from .churn import ChurnConfig, ChurnDriver, ChurnResult

__all__ = ["MultipathSpec"]


@dataclass(frozen=True)
class MultipathSpec:
    """One churn horizon: a control-plane setup plus a churn config."""

    kind: ClassVar[str] = "multipath"
    category: ClassVar[str] = "multipath"

    name: str
    churn: ChurnConfig
    core_config: BeaconingConfig
    intra_config: BeaconingConfig
    #: Which beaconing algorithm built the candidate paths.
    algorithm: str = "diversity"
    seed: int = 0

    def labels(self) -> Dict[str, str]:
        return {"algorithm": self.algorithm, "strategy": self.churn.strategy}

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("multipath-run", topology_fp, self)

    def execute(self, ctx: TaskContext) -> ChurnResult:
        network = run_control_plane(ctx)
        start = time.perf_counter()
        driver = ChurnDriver(network, self.churn, name=self.name, obs=ctx.tel)
        with ctx.span("run") as span:
            result = driver.run()
            span.set(
                intervals=result.num_intervals,
                packets=result.packets_delivered,
            )
        ctx.timings["run"] = time.perf_counter() - start
        ctx.root_attrs["intervals"] = result.num_intervals
        return result

    def phases(self, outcome: Outcome) -> List[PhaseRecord]:
        result = outcome.result
        return control_run_phases(
            outcome,
            {
                "intervals": result.num_intervals,
                "packets": result.packets_delivered,
                "switches": result.switch_events,
            },
        )
