"""The backend equivalence harness.

Runs the same traffic workload once per kernel backend and demands
byte-identical outputs — the enforcement arm of the contract in
:mod:`repro.kernels.base`. Two observation channels are compared:

* **results** — the pickled run result (pickle bytes capture values
  *and* container ordering, the same discipline the shard and
  process-pool determinism tests use);
* **telemetry** — the metrics registry snapshot plus the span stream
  after :func:`repro.obs.scrub`; everything else (span kinds, ids,
  ordering, counter values) must match.

Used by the property tests in ``tests/test_kernel_equivalence.py`` and
available to ad-hoc checks.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..obs import Telemetry, scrub
from . import available_backends

__all__ = [
    "EquivalenceReport",
    "compare_traffic",
    "assert_equivalent",
]


@dataclass
class EquivalenceReport:
    """Outcome of one cross-backend comparison."""

    subject: str
    backends: Tuple[str, ...]
    #: Channel names that diverged from the first backend, per backend.
    mismatches: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.identical:
            return (
                f"{self.subject}: {', '.join(self.backends)} byte-identical"
            )
        parts = [
            f"{backend} diverges on {', '.join(channels)}"
            for backend, channels in sorted(self.mismatches.items())
        ]
        return f"{self.subject}: " + "; ".join(parts)


def _diff(probes: Dict[str, Dict[str, bytes]]) -> Dict[str, Tuple[str, ...]]:
    backends = list(probes)
    reference = probes[backends[0]]
    mismatches: Dict[str, Tuple[str, ...]] = {}
    for backend in backends[1:]:
        bad = tuple(
            channel
            for channel, value in probes[backend].items()
            if value != reference[channel]
        )
        if bad:
            mismatches[backend] = bad
    return mismatches


def compare_traffic(
    topology,
    *,
    flow_config,
    traffic_config=None,
    algorithm: str = "diversity",
    core_config=None,
    intra_config=None,
    legacy_asns: Tuple[int, ...] = (),
    fault_plan=None,
    backends: Optional[Sequence[str]] = None,
) -> EquivalenceReport:
    """Full-stack traffic run (control plane + data plane) per backend."""
    from ..control.network import ScionNetwork
    from ..traffic.engine import TrafficConfig, TrafficEngine
    from ..traffic.flows import FlowGenerator

    backends = tuple(backends or available_backends())
    probes: Dict[str, Dict[str, bytes]] = {}
    for backend in backends:
        tel = Telemetry.collecting(labels={"harness": "equivalence"})
        network = ScionNetwork(
            topology,
            algorithm=algorithm,
            core_config=core_config,
            intra_config=intra_config,
            obs=tel,
        ).run()
        endpoints = sorted(topology.non_core_asns())
        engine = TrafficEngine(
            network,
            FlowGenerator(endpoints, flow_config),
            traffic_config or TrafficConfig(),
            legacy_asns=legacy_asns,
            obs=tel,
            backend=backend,
        )
        result = engine.run(fault_plan)
        probes[backend] = {
            "results": pickle.dumps(result),
            "telemetry": pickle.dumps(tel.metrics.snapshot()),
            "trace": pickle.dumps(scrub(tel.causal.stitched())),
        }
    return EquivalenceReport(
        subject="traffic",
        backends=backends,
        mismatches=_diff(probes),
    )


def assert_equivalent(reports: Sequence[EquivalenceReport]) -> None:
    """Raise AssertionError listing every report that diverged."""
    broken = [report for report in reports if not report.identical]
    if broken:
        raise AssertionError(
            "; ".join(report.render() for report in broken)
        )
