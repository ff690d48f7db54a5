"""Built-in scenario families: the deployment-diversity experiment sets.

A *family* is a named, scale-aware list of :class:`ScenarioSpec` variants
that differ along one deployment axis — the declarative successors of the
hand-wired experiment modules:

* ``incremental-deployment`` — §3.4's adoption story: the SCION fraction
  of endpoint ASes sweeps 25% → 100%, the remainder is the BGP rump
  behind SIG gateways; traffic overlay measures what users get at each
  stage.
* ``ixp-models`` — §3.5 / Figure 4: the same IXP membership lowered as a
  transparent big-switch peering mesh versus an exposed multi-site
  topology (with a backup inter-site link), under identical traffic.
* ``sig-legacy`` — SIG-heavy operation: the fraction of SCION endpoints
  whose hosts stay legacy-IP behind carrier-grade SIGs sweeps upward;
  the SIG encapsulation counters show the gateway load.
* ``hijack-isolation`` — the BGP-hijack versus ISD-trust-isolation
  contrast: a core AS originates a victim's prefix from another ISD
  (isolation contains it) and from the victim's own ISD (the bounded
  worst case).
* ``isd-trust-split`` — the same infrastructure carved into 1, 2 or 4
  isolation domains, under an identical fault overlay (and a cross-ISD
  hijack where one exists), measuring what trust partitioning costs and
  buys.

Every family sizes itself from the experiment scale presets
(mini/test/bench) like :data:`repro.experiments.traffic.WORKLOADS`, and
every variant is a plain spec — compile one with
:func:`repro.scenario.compiler.compile_scenario`, or run a whole family
via ``python -m repro.experiments scenarios --family <name>``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from ..experiments.config import scale_preset
from .spec import (
    DeploymentSpec,
    FaultOverlaySpec,
    HijackSpec,
    IsdLayoutSpec,
    IXPSpec,
    ScenarioSpec,
    SigSpec,
    SubstrateSpec,
    TrafficOverlaySpec,
)

__all__ = [
    "FAMILIES",
    "SMOKE_FAMILY",
    "family_names",
    "build_family",
]

#: The family CI smokes and the jobs-equivalence test runs: no traffic or
#: fault overlay, so it is the cheapest end-to-end path.
SMOKE_FAMILY = "hijack-isolation"

#: Per-scale sizing: substrate/core/ISD shape and overlay weights.
_SIZING: Dict[str, Dict[str, float]] = {
    "test": dict(
        ases=48, tier1=6, core=8, isds=2, leaves=2,
        flows=6, ticks=4, capacity=4e6,
        schedules=2, pairs=8,
    ),
    "mini": dict(
        ases=40, tier1=5, core=6, isds=2, leaves=2,
        flows=4, ticks=3, capacity=4e6,
        schedules=1, pairs=6,
    ),
    "bench": dict(
        ases=150, tier1=8, core=16, isds=4, leaves=3,
        flows=20, ticks=10, capacity=20e6,
        schedules=4, pairs=20,
    ),
}


def _sizing(scale_name: str) -> Dict[str, float]:
    return scale_preset(_SIZING, scale_name, "scenarios")


def _base(name: str, size: Dict[str, float]) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        seed=7,
        substrate=SubstrateSpec(
            ases=int(size["ases"]), tier1=int(size["tier1"])
        ),
        isds=IsdLayoutSpec(
            core_ases=int(size["core"]),
            num_isds=int(size["isds"]),
            leaves_per_core=int(size["leaves"]),
        ),
    )


def _traffic(size: Dict[str, float]) -> TrafficOverlaySpec:
    return TrafficOverlaySpec(
        flows_per_tick=int(size["flows"]),
        ticks=int(size["ticks"]),
        link_capacity_bps=float(size["capacity"]),
    )


def _incremental_deployment(scale_name: str) -> List[ScenarioSpec]:
    size = _sizing(scale_name)
    return [
        replace(
            _base(f"incremental-{int(fraction * 100)}", size),
            deployment=DeploymentSpec(scion_fraction=fraction),
            traffic=_traffic(size),
        )
        for fraction in (0.25, 0.5, 0.75, 1.0)
    ]


def _ixp_models(scale_name: str) -> List[ScenarioSpec]:
    size = _sizing(scale_name)
    member_count = min(4, int(size["core"]) // 2)
    return [
        replace(
            _base("ixp-big-switch", size),
            ixps=(
                IXPSpec(
                    name="ix0", mode="big-switch",
                    member_count=member_count,
                ),
            ),
            traffic=_traffic(size),
        ),
        replace(
            _base("ixp-exposed", size),
            ixps=(
                IXPSpec(
                    name="ix0", mode="exposed", member_count=member_count
                ),
            ),
            traffic=_traffic(size),
        ),
    ]


def _sig_legacy(scale_name: str) -> List[ScenarioSpec]:
    size = _sizing(scale_name)
    return [
        replace(
            _base(f"sig-legacy-{int(fraction * 100)}", size),
            deployment=DeploymentSpec(scion_fraction=0.75),
            sig=SigSpec(legacy_fraction=fraction),
            traffic=_traffic(size),
        )
        for fraction in (0.2, 0.5, 0.8)
    ]


def _hijack_isolation(scale_name: str) -> List[ScenarioSpec]:
    size = _sizing(scale_name)
    return [
        replace(
            _base("hijack-cross-isd", size),
            hijack=HijackSpec(attacker_isd=2),
        ),
        replace(
            _base("hijack-same-isd", size),
            hijack=HijackSpec(attacker_isd=1),
        ),
    ]


def _isd_trust_split(scale_name: str) -> List[ScenarioSpec]:
    size = _sizing(scale_name)
    specs = []
    for num_isds in (1, 2, 4):
        if num_isds > int(size["core"]):
            continue
        spec = replace(
            _base(f"trust-split-{num_isds}isd", size),
            isds=IsdLayoutSpec(
                core_ases=int(size["core"]),
                num_isds=num_isds,
                leaves_per_core=int(size["leaves"]),
            ),
            faults=FaultOverlaySpec(
                num_schedules=int(size["schedules"]),
                num_pairs=int(size["pairs"]),
            ),
        )
        if num_isds >= 2:
            spec = replace(spec, hijack=HijackSpec(attacker_isd=2))
        specs.append(spec)
    return specs


FAMILIES: Dict[str, Callable[[str], List[ScenarioSpec]]] = {
    "incremental-deployment": _incremental_deployment,
    "ixp-models": _ixp_models,
    "sig-legacy": _sig_legacy,
    "hijack-isolation": _hijack_isolation,
    "isd-trust-split": _isd_trust_split,
}


def family_names() -> Tuple[str, ...]:
    return tuple(sorted(FAMILIES))


def build_family(name: str, scale_name: str = "test") -> List[ScenarioSpec]:
    """The specs of one family at one scale preset."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {name!r}; choose from "
            f"{sorted(FAMILIES)}"
        ) from None
    return builder(scale_name)
