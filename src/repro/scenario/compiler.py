"""The scenario compiler: lowering a :class:`ScenarioSpec` to run objects.

Compilation is a fixed sequence of pure, seeded passes over one growing
:class:`~repro.topology.model.Topology`:

1. **substrate** — the synthetic Internet
   (:func:`~repro.topology.generator.generate_internet`);
2. **core + ISDs** — prune to the highest-degree subset, partition into
   isolation domains, promote core links (§5.1);
3. **endpoints** — seeded leaf customer trees below every core AS, the
   ASes user traffic originates from;
4. **IXPs** — big-switch peering meshes or exposed multi-site IXP ASes
   (§3.5, Figure 4);
5. **deployment partition** — an evenly spaced fraction of endpoints is
   natively SCION; the remainder is the BGP rump, reachable only through
   SIG gateways (§3.4);
6. **SIG legacy set** — the rump plus a further fraction of SCION
   endpoints whose hosts stay legacy-IP;
7. **leased lines** — parallel-link replacements between AS pairs (§3.1);
8. **hijack roles** — victim/attacker election for the BGP-hijack
   versus ISD-isolation contrast;
9. **overlays** — seeded fault schedules and the traffic/fault/hijack
   run plan executed by :mod:`repro.scenario.runner`.

Every pass draws randomness only from ``Random`` instances seeded by the
spec, so the same spec compiles to the same
:class:`CompiledScenario` — byte-identical across ``--jobs``, and
content-addressed in the experiment cache by
:func:`spec_hash`. The :meth:`CompiledScenario.manifest` dict is
the canonical JSON projection the golden fixtures pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..deployment.ixp import ExposedIXP, big_switch_peering
from ..faults.schedule import FaultPlanConfig, FaultSchedule, random_schedule
from ..runtime.cache import stable_key, topology_fingerprint
from ..simulation.beaconing import ALGORITHM_EVICTION, BeaconingConfig, BeaconingMode
from ..topology.generator import InternetGeneratorConfig, generate_internet
from ..topology.isd import (
    add_leaf_trees,
    build_scion_core,
    prune_to_highest_degree,
)
from ..topology.model import Relationship, Topology
from ..traffic.engine import TrafficConfig
from ..traffic.flows import FlowConfig
from ..traffic.worker import TrafficSpec, select_legacy_asns
from .spec import ScenarioError, ScenarioSpec

__all__ = [
    "CompiledIXP",
    "CompiledHijack",
    "CompiledScenario",
    "compile_scenario",
    "spec_hash",
]


#: Exposed IXPs: two sites joining ISD 1, with one redundant inter-site
#: pair (Figure 4).
EXPOSED_SITES = 2
EXPOSED_ISD = 1
EXPOSED_REDUNDANT_PAIRS = ((0, 1),)
#: Parallel SCION links replacing one leased line.
LEASED_LINKS = 2
#: The hijack victim is the highest-degree core AS of this ISD.
VICTIM_ISD = 1
#: Each fault schedule fails two core links (``FaultPlanConfig``'s
#: default) from interval ``FIRST_FAULT`` on, within a ``FAULT_HORIZON``
#: that leaves every outage its recovery margin.
FAULT_HORIZON = 20
FIRST_FAULT = 8


def spec_hash(spec: ScenarioSpec) -> str:
    """Content address of a spec — the cache key compiled state lives
    under, so identical specs share warm state across invocations."""
    return stable_key("scenario-spec", spec)


@dataclass
class CompiledIXP:
    """One lowered IXP: its resolved members and created links."""

    name: str
    mode: str
    members: Tuple[int, ...]
    #: Peering links created among members (big-switch) or member ports
    #: plus inter-site links (exposed).
    link_ids: Tuple[int, ...]
    #: Exposed mode only: the per-site SCION ASes.
    site_asns: Tuple[int, ...] = ()


@dataclass
class CompiledHijack:
    """Resolved hijack roles (measurement happens in the runner)."""

    victim: int
    attacker: int
    victim_isd: int
    attacker_isd: int


@dataclass
class CompiledScenario:
    """Everything a scenario run needs, lowered from one spec."""

    spec: ScenarioSpec
    topology: Topology
    #: Leaf endpoint ASes (user traffic sources/sinks), sorted.
    endpoints: Tuple[int, ...]
    #: Natively SCION-enabled endpoints.
    scion_asns: Tuple[int, ...]
    #: The BGP rump: endpoints not deploying SCION, SIG-fronted.
    rump_asns: Tuple[int, ...]
    #: All SIG-fronted endpoints: the rump plus the sig.legacy_fraction.
    legacy_asns: Tuple[int, ...]
    ixps: Tuple[CompiledIXP, ...] = ()
    leased_link_ids: Tuple[int, ...] = ()
    hijack: Optional[CompiledHijack] = None
    #: Fault overlay: seeded schedules plus the monitored pairs.
    schedules: Tuple[FaultSchedule, ...] = ()
    pairs: Tuple[Tuple[int, int], ...] = ()
    #: Traffic overlay: ready-to-dispatch specs (one per run-plan unit).
    traffic_specs: Tuple[TrafficSpec, ...] = ()
    #: Beaconing configs the fault overlay runs under.
    fault_config: Optional[BeaconingConfig] = None

    def manifest(self) -> Dict[str, Any]:
        """The canonical JSON projection pinned by the golden fixtures.

        Everything here is a pure primitive; two compiles of the same
        spec produce byte-identical ``json.dumps(manifest, sort_keys=True)``
        output regardless of ``--jobs``.
        """
        topo = self.topology
        return {
            "spec_hash": spec_hash(self.spec),
            "spec": self.spec.to_dict(),
            "topology": {
                "fingerprint": topology_fingerprint(topo),
                "num_ases": topo.num_ases,
                "num_links": len(list(topo.links())),
                "core_asns": sorted(topo.core_asns()),
                "isd_of": {
                    str(asn): topo.as_node(asn).isd
                    for asn in sorted(topo.asns())
                },
            },
            "endpoints": list(self.endpoints),
            "scion_asns": list(self.scion_asns),
            "rump_asns": list(self.rump_asns),
            "legacy_asns": list(self.legacy_asns),
            "ixps": [
                {
                    "name": ixp.name,
                    "mode": ixp.mode,
                    "members": list(ixp.members),
                    "link_ids": list(ixp.link_ids),
                    "site_asns": list(ixp.site_asns),
                }
                for ixp in self.ixps
            ],
            "leased_link_ids": list(self.leased_link_ids),
            "hijack": (
                {
                    "victim": self.hijack.victim,
                    "attacker": self.hijack.attacker,
                    "victim_isd": self.hijack.victim_isd,
                    "attacker_isd": self.hijack.attacker_isd,
                }
                if self.hijack is not None
                else None
            ),
            "schedules": [
                stable_key("scenario-schedule", schedule)
                for schedule in self.schedules
            ],
            "pairs": [list(pair) for pair in self.pairs],
            "plan": [spec.name for spec in self.traffic_specs]
            + [f"faults:s{i}" for i in range(len(self.schedules))]
            + (["hijack"] if self.hijack is not None else []),
        }


# ------------------------------------------------------------------ passes


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Validate a spec and lower it through all passes; pure and seeded.
    This is the one place a spec is validated."""
    spec.validate()
    topo = _pass_substrate(spec)
    topo = _pass_core_isds(spec, topo)
    endpoints = _pass_endpoints(spec, topo)
    ixps = _pass_ixps(spec, topo)
    scion, rump = _pass_deployment(spec, endpoints)
    legacy = _pass_sig(spec, scion, rump)
    leased = _pass_leased_lines(spec, topo)
    hijack = _pass_hijack(spec, topo)
    schedules, pairs, fault_config = _pass_faults(spec, topo)
    traffic_specs = _pass_traffic(spec, endpoints, legacy)
    topo.validate()
    return CompiledScenario(
        spec=spec,
        topology=topo,
        endpoints=endpoints,
        scion_asns=scion,
        rump_asns=rump,
        legacy_asns=legacy,
        ixps=ixps,
        leased_link_ids=leased,
        hijack=hijack,
        schedules=schedules,
        pairs=pairs,
        traffic_specs=traffic_specs,
        fault_config=fault_config,
    )


def _pass_substrate(spec: ScenarioSpec) -> Topology:
    sub = spec.substrate
    tier1 = sub.tier1 or max(4, sub.ases // 10)
    return generate_internet(
        InternetGeneratorConfig(
            num_ases=sub.ases,
            num_tier1=min(tier1, sub.ases),
            seed=spec.seed,
        )
    )


def _pass_core_isds(spec: ScenarioSpec, internet: Topology) -> Topology:
    return build_scion_core(
        prune_to_highest_degree(internet, spec.isds.core_ases),
        spec.isds.num_isds,
        f"scenario-{spec.name}",
    )


def _pass_endpoints(spec: ScenarioSpec, topo: Topology) -> Tuple[int, ...]:
    return tuple(add_leaf_trees(topo, spec.isds.leaves_per_core, spec.seed))


def _pass_ixps(
    spec: ScenarioSpec, topo: Topology
) -> Tuple[CompiledIXP, ...]:
    """Each IXP takes the highest-degree core ASes no earlier one
    claimed, so memberships never overlap."""
    compiled: List[CompiledIXP] = []
    claimed: set = set()
    next_site_asn = max(topo.asns()) + 1000
    for index, ixp in enumerate(spec.ixps):
        ranked = sorted(
            (asn for asn in topo.core_asns() if asn not in claimed),
            key=lambda asn: (-topo.degree(asn), asn),
        )
        if len(ranked) < ixp.member_count:
            raise ScenarioError(
                f"member_count {ixp.member_count} exceeds the "
                f"{len(ranked)} unclaimed core ASes",
                field=f"ixps[{index}].member_count",
            )
        members = tuple(sorted(ranked[: ixp.member_count]))
        claimed |= set(members)
        if ixp.mode == "big-switch":
            link_ids = big_switch_peering(
                topo, members, location=f"ixp:{ixp.name}"
            )
            compiled.append(
                CompiledIXP(
                    name=ixp.name,
                    mode=ixp.mode,
                    members=members,
                    link_ids=tuple(link_ids),
                )
            )
            continue
        exposed = ExposedIXP(topo, name=ixp.name)
        sites = exposed.add_sites(
            EXPOSED_SITES,
            first_asn=next_site_asn,
            isd=EXPOSED_ISD,
            redundant_pairs=EXPOSED_REDUNDANT_PAIRS,
        )
        next_site_asn += EXPOSED_SITES
        port_links: List[int] = []
        for position, member in enumerate(members):
            port_links.append(
                exposed.attach_member(member, position % EXPOSED_SITES)
            )
        compiled.append(
            CompiledIXP(
                name=ixp.name,
                mode=ixp.mode,
                members=members,
                link_ids=tuple(
                    sorted(port_links + exposed.internal_link_ids())
                ),
                site_asns=tuple(sites),
            )
        )
    return tuple(compiled)


def _pass_deployment(
    spec: ScenarioSpec, endpoints: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    rump = select_legacy_asns(
        list(endpoints), 1.0 - spec.deployment.scion_fraction
    )
    scion = tuple(asn for asn in endpoints if asn not in set(rump))
    return scion, rump


def _pass_sig(
    spec: ScenarioSpec,
    scion: Tuple[int, ...],
    rump: Tuple[int, ...],
) -> Tuple[int, ...]:
    sig_fronted = select_legacy_asns(list(scion), spec.sig.legacy_fraction)
    return tuple(sorted(set(rump) | set(sig_fronted)))


def _pass_leased_lines(
    spec: ScenarioSpec, topo: Topology
) -> Tuple[int, ...]:
    created: List[int] = []
    for index, line in enumerate(spec.leased_lines):
        for name, asn in (("a", line.a), ("b", line.b)):
            if not topo.has_as(asn):
                raise ScenarioError(
                    f"AS {asn} is not part of the compiled topology "
                    f"(the {spec.isds.core_ases} core ASes kept of the "
                    f"{spec.substrate.ases}-AS substrate, their leaves "
                    "and IXP sites); pick one of those",
                    field=f"leased_lines[{index}].{name}",
                )
        existing = topo.links_between(line.a, line.b)
        relationship = (
            existing[0].relationship if existing else Relationship.PEER_PEER
        )
        for slot in range(LEASED_LINKS):
            link = topo.add_link(
                line.a, line.b, relationship,
                location=f"leased:{line.a}-{line.b}:{slot}",
            )
            created.append(link.link_id)
    return tuple(created)


def _pick_role(
    topo: Topology, isd: int, *, exclude: Tuple[int, ...] = ()
) -> Optional[int]:
    """The highest-degree core AS of ``isd`` (deterministic)."""
    candidates = sorted(
        (
            asn
            for asn in topo.core_asns()
            if topo.as_node(asn).isd == isd and asn not in exclude
        ),
        key=lambda asn: (-topo.degree(asn), asn),
    )
    return candidates[0] if candidates else None


def _pass_hijack(
    spec: ScenarioSpec, topo: Topology
) -> Optional[CompiledHijack]:
    if spec.hijack is None:
        return None
    # Every ISD holds a core AS (assign_isds), so the victim exists; a
    # same-ISD attacker needs a second one.
    victim = _pick_role(topo, VICTIM_ISD)
    attacker_isd = spec.hijack.attacker_isd
    attacker = _pick_role(topo, attacker_isd, exclude=(victim,))
    if attacker is None:
        raise ScenarioError(
            f"ISD {attacker_isd} has no core AS to play attacker "
            "(distinct from the victim)",
            field="hijack.attacker_isd",
        )
    return CompiledHijack(
        victim=victim,
        attacker=attacker,
        victim_isd=VICTIM_ISD,
        attacker_isd=attacker_isd,
    )


def _pass_faults(
    spec: ScenarioSpec, topo: Topology
) -> Tuple[
    Tuple[FaultSchedule, ...],
    Tuple[Tuple[int, int], ...],
    Optional[BeaconingConfig],
]:
    overlay = spec.faults
    if overlay is None:
        return (), (), None
    from ..experiments.figure6 import sample_pairs

    core_asns = sorted(topo.core_asns())
    pairs = tuple(
        sample_pairs(core_asns, overlay.num_pairs, spec.seed)
    )
    core_links = sorted(
        link.link_id
        for link in topo.links()
        if link.relationship is Relationship.CORE
    )
    monitored = {asn for pair in pairs for asn in pair}
    outage_candidates = sorted(set(core_asns) - monitored)
    schedules = []
    for index in range(overlay.num_schedules):
        plan = FaultPlanConfig(
            seed=(spec.seed << 16) + index,
            horizon=FAULT_HORIZON,
            first_fault=FIRST_FAULT,
        )
        schedules.append(
            random_schedule(
                topo, plan,
                link_ids=core_links,
                asns=outage_candidates or None,
            )
        )
    config = BeaconingConfig(
        interval=600.0,
        duration=FAULT_HORIZON * 600.0,
        pcb_lifetime=6 * 3600.0,
        storage_limit=60,
        mode=BeaconingMode.CORE,
    )
    return tuple(schedules), pairs, config


def _pass_traffic(
    spec: ScenarioSpec,
    endpoints: Tuple[int, ...],
    legacy: Tuple[int, ...],
) -> Tuple[TrafficSpec, ...]:
    overlay = spec.traffic
    if overlay is None:
        return ()
    beacon = BeaconingConfig(
        interval=600.0,
        duration=6 * 600.0,
        pcb_lifetime=6 * 3600.0,
        storage_limit=60,
        eviction_policy=ALGORITHM_EVICTION["diversity"],
    )
    core_config = replace(beacon, mode=BeaconingMode.CORE)
    intra_config = replace(beacon, mode=BeaconingMode.INTRA_ISD)
    return (
        TrafficSpec(
            name=f"{spec.name}/traffic",
            algorithm="diversity",
            flow_config=FlowConfig(
                flows_per_tick=overlay.flows_per_tick,
                num_ticks=overlay.ticks,
                seed=spec.seed,
            ),
            traffic_config=TrafficConfig(
                link_capacity_bps=overlay.link_capacity_bps
            ),
            core_config=core_config,
            intra_config=intra_config,
            seed=spec.seed,
            endpoints=endpoints,
            legacy_asns=legacy,
        ),
    )
