"""The traffic workload family.

A :class:`TrafficSpec` is one control-plane setup plus a flow workload;
it runs through :func:`repro.runtime.worker.execute_task` like every
other family. The cached artifact is the
:class:`~repro.traffic.metrics.TrafficRunResult` (pure primitives), so a
cache hit is byte-identical to the run that produced it, and ``--jobs 1``
versus ``--jobs N`` compare equal by pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from ..runtime.cache import stable_key
from ..runtime.instrument import PhaseRecord
from ..runtime.worker import (
    Outcome,
    TaskContext,
    control_run_phases,
    run_control_plane,
)
from ..simulation.beaconing import BeaconingConfig
from .engine import TrafficConfig, TrafficEngine, TrafficFaultPlan
from .flows import FlowConfig, FlowGenerator
from .metrics import TrafficRunResult

__all__ = ["TrafficSpec", "select_legacy_asns"]


def select_legacy_asns(
    endpoints: List[int], fraction: float
) -> Tuple[int, ...]:
    """An evenly spaced, deterministic subset of ``endpoints`` designated
    legacy-IP (SIG-fronted) ASes — §3.4's incremental-deployment mix."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("legacy fraction must be within [0, 1]")
    ordered = sorted(endpoints)
    count = int(len(ordered) * fraction)
    if count == 0:
        return ()
    return tuple(ordered[i * len(ordered) // count] for i in range(count))


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic run: a control-plane setup plus a flow workload."""

    kind: ClassVar[str] = "traffic"
    category: ClassVar[str] = "traffic"

    name: str
    #: ``"baseline"`` or ``"diversity"`` — which beaconing algorithm built
    #: the paths the workload rides on.
    algorithm: str
    flow_config: FlowConfig
    traffic_config: TrafficConfig
    core_config: BeaconingConfig
    intra_config: BeaconingConfig
    #: Fraction of endpoint ASes fronted by a SCION-IP gateway.
    legacy_fraction: float = 0.0
    fault_plan: Optional[TrafficFaultPlan] = None
    seed: int = 0

    def labels(self) -> Dict[str, str]:
        return {
            "algorithm": self.algorithm,
            "policy": self.traffic_config.policy_label,
        }

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("traffic-run", topology_fp, self)

    def execute(self, ctx: TaskContext) -> TrafficRunResult:
        network = run_control_plane(ctx)
        start = time.perf_counter()
        endpoints = sorted(ctx.topology.non_core_asns())
        engine = TrafficEngine(
            network,
            FlowGenerator(endpoints, self.flow_config),
            self.traffic_config,
            legacy_asns=select_legacy_asns(endpoints, self.legacy_fraction),
            name=self.name,
            obs=ctx.tel,
        )
        with ctx.span("run") as span:
            result = engine.run(self.fault_plan)
            span.set(
                flows=result.flows_started, packets=result.packets_forwarded
            )
        ctx.timings["run"] = time.perf_counter() - start
        ctx.root_attrs["flows"] = result.flows_started
        return result

    def phases(self, outcome: Outcome) -> List[PhaseRecord]:
        result = outcome.result
        return control_run_phases(
            outcome,
            {
                "flows": result.flows_started,
                "packets": result.packets_forwarded,
                "macs": result.macs_verified,
            },
        )
