"""Ablations of two design decisions of DESIGN.md §5-§6, on 12-AS core
meshes with the scale's beaconing timing:

* **storage eviction** — the diversity algorithm over a ``shortest``
  versus a ``diverse`` beacon store under a tight storage limit (10):
  diverse eviction must preserve path quality;
* **dissemination-limit granularity** — the paper applies the limit per
  neighbor AS; applying it per interface (as the baseline does) re-sends
  redundant copies over parallel links. The effect appears when the limit
  binds, so the ablation uses a tight limit (2) on a parallel-link-rich
  mesh; in the unsaturated steady state both granularities converge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Optional

from ..analysis.resilience import stored_path_resilience
from ..core.diversity import DiversityAlgorithm
from ..obs import Telemetry
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    diversity_factory,
)
from ..topology.generator import generate_core_mesh
from .config import PCB_LIFETIME, Experiment, ExperimentScale
from .figure6 import PathQualityResult, optimum_values, sample_pairs

__all__ = ["AblationsResult", "run_ablations"]

EVICTION_POLICIES = ("shortest", "diverse")


@dataclass
class AblationsResult:
    #: Eviction policy -> mean fraction of optimal capacity, storage 10.
    eviction_quality: Dict[str, float]
    #: Total beaconing bytes with dissemination limit 2 applied per
    #: neighbor AS (the paper) and per interface.
    per_neighbor_bytes: int
    per_interface_bytes: int
    scale_name: str

    def data(self) -> dict:
        return dict(vars(self))

    def render(self) -> str:
        lines = [
            f"Ablations (scale={self.scale_name}): eviction policy under "
            "storage limit 10, mean fraction of optimum"
        ]
        for policy, quality in self.eviction_quality.items():
            lines.append(f"    {policy:16s} {quality:6.1%}")
        ratio = self.per_interface_bytes / self.per_neighbor_bytes
        lines.append("  dissemination limit 2 on parallel links:")
        lines.append(f"    per-neighbor     {self.per_neighbor_bytes:,} B")
        lines.append(
            f"    per-interface    {self.per_interface_bytes:,} B ({ratio:.2f}x)"
        )
        return "\n".join(lines)


def run_ablations(
    scale: ExperimentScale, *, obs: Optional[Telemetry] = None
) -> AblationsResult:
    config = BeaconingConfig(
        interval=scale.interval,
        duration=scale.duration,
        pcb_lifetime=PCB_LIFETIME,
        storage_limit=10,
    )

    topo = generate_core_mesh(12, seed=scale.seed, mean_degree=5.0)
    pairs = sample_pairs(topo.asns(), 40, scale.seed)
    quality = PathQualityResult({"optimum": optimum_values(topo, pairs)}, pairs)
    for policy in EVICTION_POLICIES:
        sim = BeaconingSimulation(
            topo,
            diversity_factory(),
            replace(config, eviction_policy=policy),
            obs=obs,
        ).run()
        quality.values[policy] = stored_path_resilience(sim, pairs)

    parallel = generate_core_mesh(
        12, seed=scale.seed, mean_degree=5.0,
        parallel_link_p=0.25, max_parallel_links=6,
    )
    sent = {}
    for per_interface in (False, True):
        sim = BeaconingSimulation(
            parallel,
            partial(
                DiversityAlgorithm,
                dissemination_limit=2,
                per_interface_limit=per_interface,
            ),
            replace(config, storage_limit=20),
            obs=obs,
        ).run()
        sent[per_interface] = sim.metrics.total_bytes

    return AblationsResult(
        eviction_quality={
            policy: quality.mean_fraction_of_optimum(policy)
            for policy in EVICTION_POLICIES
        },
        per_neighbor_bytes=sent[False],
        per_interface_bytes=sent[True],
        scale_name=scale.name,
    )


EXPERIMENT = Experiment(
    name="ablations",
    help="eviction-policy and dissemination-limit-granularity ablations",
    run=lambda args, scale, runtime: run_ablations(scale, obs=runtime.telemetry),
    in_all=False,
    uses_runtime=False,
)
