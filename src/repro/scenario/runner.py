"""Scenario execution: compiled plan → ExperimentRuntime → results.

:func:`run_scenario` takes one :class:`~repro.scenario.spec.ScenarioSpec`,
compiles it (the compile is itself a cached prerequisite, content-
addressed by :func:`~repro.scenario.compiler.spec_hash` — a warm cache
skips straight to dispatch), then executes the plan:

* traffic and fault overlay runs fan out through
  :meth:`~repro.runtime.ExperimentRuntime.run`;
* the hijack contrast runs inline (one seeded BGP convergence plus a
  pure ISD-isolation computation) and is cached like any prerequisite.

Every result object is a tree of primitives, so a scenario's
:class:`ScenarioRunResult` is pickle-identical across ``--jobs 1`` and
``--jobs N`` — the same determinism contract every experiment honors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.simulator import BGPSimulation
from ..faults.injector import FaultRunResult
from ..faults.runner import FaultSpec
from ..runtime import ExperimentRuntime
from ..topology.isd import customer_cone
from ..topology.model import Topology
from ..traffic.metrics import TrafficRunResult
from .compiler import (
    CompiledHijack,
    CompiledScenario,
    compile_scenario,
    spec_hash,
)
from .spec import ScenarioSpec

__all__ = [
    "HijackResult",
    "ScenarioRunResult",
    "FamilyRunResult",
    "measure_hijack",
    "run_scenario",
    "run_family",
]


@dataclass(frozen=True)
class HijackResult:
    """The BGP-hijack versus ISD-isolation contrast for one scenario."""

    victim: int
    attacker: int
    victim_isd: int
    attacker_isd: int
    #: ASes whose converged BGP best path to the victim's prefix
    #: originates at the attacker.
    bgp_deceived: Tuple[int, ...]
    #: ASes the attacker could deceive under SCION's ISD trust model:
    #: empty from a foreign ISD, bounded within the victim's own.
    scion_deceived: Tuple[int, ...]
    #: ASes evaluated (everything except victim and attacker).
    total: int

    def bgp_fraction(self) -> float:
        return len(self.bgp_deceived) / self.total if self.total else 0.0

    def scion_fraction(self) -> float:
        return len(self.scion_deceived) / self.total if self.total else 0.0


def measure_hijack(
    topology: Topology, roles: CompiledHijack
) -> HijackResult:
    """Run the contrast: seeded BGP convergence with the attacker also
    originating the victim's prefix, versus the ISD-isolation bound.

    On the BGP side the deceived set falls out of the converged origins.
    On the SCION side no simulation is needed — it is a trust statement:
    an attacker in a *different* ISD cannot forge the victim ISD's trust
    root, so nobody is deceived; an attacker inside the victim's own ISD
    can deceive at most the ASes that transit it (its customer cone, or
    the whole ISD when the attacker is a core AS).
    """
    victim, attacker = roles.victim, roles.attacker
    sim = BGPSimulation(topology).run(
        extra_originations=[(attacker, victim)]
    )
    others = [
        asn for asn in topology.asns() if asn not in (victim, attacker)
    ]
    bgp_deceived = []
    for asn in others:
        path = sim.best_path(asn, victim)
        if path is not None and path[0] == attacker:
            bgp_deceived.append(asn)

    if roles.attacker_isd != roles.victim_isd:
        scion_deceived: List[int] = []
    elif topology.as_node(attacker).is_core:
        scion_deceived = [
            asn
            for asn in others
            if topology.as_node(asn).isd == roles.victim_isd
        ]
    else:
        cone = customer_cone(topology, attacker)
        scion_deceived = [
            asn
            for asn in others
            if asn in cone
            and topology.as_node(asn).isd == roles.victim_isd
        ]
    return HijackResult(
        victim=victim,
        attacker=attacker,
        victim_isd=roles.victim_isd,
        attacker_isd=roles.attacker_isd,
        bgp_deceived=tuple(sorted(bgp_deceived)),
        scion_deceived=tuple(sorted(scion_deceived)),
        total=len(others),
    )


@dataclass
class ScenarioRunResult:
    """One scenario's deterministic outcome (no wall-clock content)."""

    name: str
    spec_hash: str
    num_ases: int
    num_isds: int
    num_endpoints: int
    num_scion: int
    num_legacy: int
    traffic: Dict[str, TrafficRunResult] = field(default_factory=dict)
    faults: List[FaultRunResult] = field(default_factory=list)
    hijack: Optional[HijackResult] = None

    def data(self) -> dict:
        restore_times = [t for run in self.faults for t in run.restore_times()]
        return {
            "name": self.name, "spec_hash": self.spec_hash,
            "ases": self.num_ases, "isds": self.num_isds,
            "endpoints": self.num_endpoints, "scion": self.num_scion,
            "legacy": self.num_legacy,
            "traffic": {name: r.summary() for name, r in self.traffic.items()},
            "restore_times": restore_times,
            "revocations": sum(run.revocations_issued for run in self.faults),
            "hijack": self.hijack and asdict(self.hijack),
        }

    def render(self) -> str:
        lines = [
            f"Scenario {self.name} [{self.spec_hash[:12]}]: "
            f"{self.num_ases} ASes in {self.num_isds} ISD(s), "
            f"{self.num_scion}/{self.num_endpoints} endpoints SCION-native "
            f"({self.num_legacy} behind SIGs)"
        ]
        for run_name in sorted(self.traffic):
            result = self.traffic[run_name]
            lines.append(
                f"  traffic {run_name}: "
                f"{result.mean_goodput_bps() / 1e6:.2f} Mbit/s goodput, "
                f"{result.delivered_fraction():.1%} delivered, "
                f"p50 {result.latency_percentile(0.5) * 1e3:.1f} ms, "
                f"{result.packets_forwarded} packets, "
                f"{result.sig_encapsulated} SIG-encapsulated"
            )
        if self.faults:
            times = [
                value
                for result in self.faults
                for value in result.restore_times()
            ]
            revocations = sum(r.revocations_issued for r in self.faults)
            mean = sum(times) / len(times) if times else 0.0
            lines.append(
                f"  faults: {len(self.faults)} schedule(s), "
                f"{revocations} revocations, "
                f"{len(times)} restore events "
                f"(mean {mean:.0f}s)"
            )
        if self.hijack is not None:
            hijack = self.hijack
            relation = (
                "same ISD"
                if hijack.attacker_isd == hijack.victim_isd
                else "cross-ISD"
            )
            lines.append(
                f"  hijack ({relation}): AS {hijack.attacker} "
                f"(ISD {hijack.attacker_isd}) originates AS "
                f"{hijack.victim}'s prefix (ISD {hijack.victim_isd}) — "
                f"BGP deceives {len(hijack.bgp_deceived)}/{hijack.total} "
                f"ASes ({hijack.bgp_fraction():.0%}); SCION ISD "
                f"isolation bounds it to {len(hijack.scion_deceived)} "
                f"({hijack.scion_fraction():.0%})"
            )
        return "\n".join(lines)


@dataclass
class FamilyRunResult:
    """All variants of one family, in family order."""

    family: str
    scale_name: str
    results: List[ScenarioRunResult]

    def data(self) -> dict:
        variants = [result.data() for result in self.results]
        return dict(family=self.family, scale=self.scale_name, variants=variants)

    def render(self) -> str:
        lines = [
            f"Scenario family {self.family} (scale={self.scale_name}, "
            f"{len(self.results)} variant(s)):",
            "",
        ]
        for result in self.results:
            lines.append(result.render())
            lines.append("")
        return "\n".join(lines).rstrip()


def run_scenario(
    spec: ScenarioSpec,
    *,
    runtime: Optional[ExperimentRuntime] = None,
) -> ScenarioRunResult:
    """Compile one scenario (cached) and execute its whole run plan."""
    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "scenarios"
    compiled: CompiledScenario = rt.cached_value(
        "scenario-compile",
        [spec],
        lambda: compile_scenario(spec),
        phase=f"compile:{spec.name}",
    )
    topology = compiled.topology
    result = ScenarioRunResult(
        name=spec.name,
        spec_hash=spec_hash(spec),
        num_ases=topology.num_ases,
        num_isds=len(
            {topology.as_node(asn).isd for asn in topology.asns()}
        ),
        num_endpoints=len(compiled.endpoints),
        num_scion=len(compiled.scion_asns),
        num_legacy=len(compiled.legacy_asns),
    )

    if compiled.traffic_specs:
        tasks = [(topology, ts) for ts in compiled.traffic_specs]
        for outcome in rt.run(tasks):
            result.traffic[outcome.name] = outcome.result

    if compiled.schedules:
        assert compiled.fault_config is not None
        fault_tasks = []
        for index, schedule in enumerate(compiled.schedules):
            fault_tasks.append(
                (
                    topology,
                    FaultSpec(
                        name=f"{spec.name}/faults:s{index}",
                        algorithm="diversity",
                        config=compiled.fault_config,
                        schedule=schedule,
                        seed=spec.seed,
                        loss_seed=(spec.seed << 16) + index,
                        pairs=compiled.pairs,
                    ),
                )
            )
        for outcome in rt.run(fault_tasks):
            result.faults.append(outcome.result)

    if compiled.hijack is not None:
        roles = compiled.hijack
        result.hijack = rt.cached_value(
            "scenario-hijack",
            [spec],
            lambda: measure_hijack(topology, roles),
            phase=f"hijack:{spec.name}",
        )
    return result


def run_family(
    name: str,
    scale_name: str = "test",
    *,
    runtime: Optional[ExperimentRuntime] = None,
) -> FamilyRunResult:
    """Run every variant of one built-in family."""
    from .families import build_family

    rt = runtime if runtime is not None else ExperimentRuntime()
    rt.report.experiment = rt.report.experiment or "scenarios"
    rt.report.scale = scale_name
    specs = build_family(name, scale_name)
    results = [run_scenario(spec, runtime=rt) for spec in specs]
    return FamilyRunResult(
        family=name, scale_name=scale_name, results=results
    )
