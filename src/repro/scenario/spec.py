"""The declarative scenario DSL: dataclass specs, loading, validation.

A :class:`ScenarioSpec` describes one deployment-diversity experiment the
way the seed-emulator's Base/Routing/Ebgp layers describe a network: ISDs,
core/non-core ASes, IXPs (big-switch or exposed-topology), SIG legacy
fractions, leased lines, partial-deployment fractions with a BGP rump,
and fault/traffic overlays — all as plain primitives. Specs load from
TOML or JSON files (:func:`load_spec`), round-trip through dicts
(:meth:`ScenarioSpec.from_dict` / :meth:`ScenarioSpec.to_dict`), pickle
into process-pool tasks unchanged, and fingerprint into the experiment
cache via :func:`repro.runtime.cache.stable_key` — the content-addressed
hash that keys compiled state.

Validation is eager and field-addressed: every structural error raises
:class:`ScenarioError` carrying the dotted path of the offending field
(``ixps[1].members``, ``deployment.scion_fraction``), so a 200-line spec
file fails with the line that is wrong, not a stack trace from pass three
of the compiler.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "ScenarioError",
    "SubstrateSpec",
    "IsdLayoutSpec",
    "DeploymentSpec",
    "SigSpec",
    "IXPSpec",
    "LeasedLineSpec",
    "HijackSpec",
    "FaultOverlaySpec",
    "TrafficOverlaySpec",
    "ScenarioSpec",
    "load_spec",
    "spec_from_dict",
]


class ScenarioError(ValueError):
    """A structurally invalid scenario spec.

    ``field`` is the dotted path of the offending field (list entries are
    indexed: ``ixps[0].members``); the message always includes it.
    """

    def __init__(self, message: str, *, field: str = "") -> None:
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


# --------------------------------------------------------------- sub-specs


@dataclass(frozen=True)
class SubstrateSpec:
    """The synthetic Internet the scenario is carved from (pass 1)."""

    #: Total ASes of the generated Internet (AS-rel-geo stand-in).
    ases: int = 60
    #: Tier-1 ASes forming the meshed top; 0 = derived from ``ases``.
    tier1: int = 0
    #: Fraction of non-tier-1 ASes providing transit.
    transit_fraction: float = 0.15
    #: Generator seed; ``None`` inherits the scenario seed.
    seed: Optional[int] = None
    first_asn: int = 1


@dataclass(frozen=True)
class IsdLayoutSpec:
    """Core extraction and isolation-domain layout (pass 2)."""

    #: Highest-degree ASes kept as the SCION core network.
    core_ases: int = 8
    #: Isolation domains the core is partitioned into (ISDs 1..num_isds).
    num_isds: int = 2
    #: Leaf (customer) ASes hung below every core AS — the endpoints.
    leaves_per_core: int = 2


@dataclass(frozen=True)
class DeploymentSpec:
    """Partial SCION adoption with a BGP rump (pass 3, §3.4)."""

    #: Fraction of endpoint ASes natively SCION-enabled; the remainder is
    #: the BGP rump, reachable only through SIG gateways.
    scion_fraction: float = 1.0


@dataclass(frozen=True)
class SigSpec:
    """SCION-IP-gateway legacy hosts (pass 5, §3.4)."""

    #: Fraction of the *SCION-enabled* endpoints whose hosts stay
    #: legacy-IP behind a carrier-grade SIG (on top of the BGP rump,
    #: which is always SIG-fronted).
    legacy_fraction: float = 0.0


@dataclass(frozen=True)
class IXPSpec:
    """One Internet exchange point (pass 4, §3.5 / Figure 4)."""

    name: str = "ixp"
    #: ``big-switch`` (transparent L2 fabric: bilateral peering mesh) or
    #: ``exposed`` (one SCION AS per site, inter-site links visible).
    mode: str = "big-switch"
    #: Explicit member ASNs; empty means ``member_count`` selects the
    #: highest-degree core ASes deterministically at compile time.
    members: Tuple[int, ...] = ()
    member_count: int = 0
    #: Exposed-topology knobs: site count, the ISD the site ASes join,
    #: and redundant (backup) inter-site pairs by site index.
    sites: int = 2
    isd: int = 1
    redundant_pairs: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class LeasedLineSpec:
    """A leased-line replacement between two ASes (pass 6, §3.1):
    ``count`` parallel SCION links at distinct locations."""

    a: int = 0
    b: int = 0
    count: int = 2


@dataclass(frozen=True)
class HijackSpec:
    """A BGP prefix hijack contrasted with SCION's ISD isolation.

    The attacker originates the victim's prefix in the BGP view; on the
    SCION side, ISD trust isolation bounds who can be deceived. Victim and
    attacker are picked deterministically from the named ISDs unless
    pinned by ASN.
    """

    enabled: bool = False
    victim_isd: int = 1
    attacker_isd: int = 2
    #: Optional explicit role pins (0 = auto-select from the ISD).
    victim_asn: int = 0
    attacker_asn: int = 0


@dataclass(frozen=True)
class FaultOverlaySpec:
    """Seeded fault schedules over the compiled core network."""

    enabled: bool = False
    num_schedules: int = 2
    horizon: int = 20
    first_fault: int = 8
    num_link_failures: int = 2
    num_as_failures: int = 0
    num_loss_bursts: int = 0
    loss_rate: float = 0.25
    #: Monitored (origin, receiver) pairs sampled over the core.
    num_pairs: int = 12


@dataclass(frozen=True)
class TrafficOverlaySpec:
    """A data-plane workload over the compiled network."""

    enabled: bool = False
    flows_per_tick: int = 8
    ticks: int = 6
    link_capacity_bps: float = 4e6
    policy: str = "shortest-latency"
    algorithm: str = "diversity"
    #: Multipath scheduling strategy (``repro.multipath``); ``"single"``
    #: means no split: ``policy`` picks one path per flow.
    strategy: str = "single"
    #: Maximum paths per flow when ``strategy`` is a multipath one.
    k_paths: int = 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative deployment-diversity scenario.

    Pure primitives end to end: picklable, hashable through
    ``stable_key``, and loadable from TOML/JSON. ``validate()`` (called by
    the compiler and the loaders) raises :class:`ScenarioError` on every
    structural problem, naming the offending field.
    """

    name: str = "scenario"
    seed: int = 7
    substrate: SubstrateSpec = field(default_factory=SubstrateSpec)
    isds: IsdLayoutSpec = field(default_factory=IsdLayoutSpec)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    sig: SigSpec = field(default_factory=SigSpec)
    ixps: Tuple[IXPSpec, ...] = ()
    leased_lines: Tuple[LeasedLineSpec, ...] = ()
    hijack: HijackSpec = field(default_factory=HijackSpec)
    faults: FaultOverlaySpec = field(default_factory=FaultOverlaySpec)
    traffic: TrafficOverlaySpec = field(default_factory=TrafficOverlaySpec)

    # ------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        spec = spec_from_dict(data)
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-primitive dict (tuples become lists) — JSON-ready."""
        return _plain(dataclasses.asdict(self))

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check every cross-reference and bound; raises ScenarioError."""
        sub = self.substrate
        if sub.ases < 4:
            raise ScenarioError(
                f"need at least 4 ASes, got {sub.ases}", field="substrate.ases"
            )
        if sub.tier1 < 0 or sub.tier1 > sub.ases:
            raise ScenarioError(
                f"tier1 must be within [0, {sub.ases}], got {sub.tier1}",
                field="substrate.tier1",
            )
        _check_fraction(
            sub.transit_fraction, "substrate.transit_fraction"
        )
        layout = self.isds
        if layout.core_ases < 2:
            raise ScenarioError(
                f"need at least 2 core ASes, got {layout.core_ases}",
                field="isds.core_ases",
            )
        if layout.core_ases > sub.ases:
            raise ScenarioError(
                f"core_ases {layout.core_ases} exceeds the substrate's "
                f"{sub.ases} ASes",
                field="isds.core_ases",
            )
        if not 1 <= layout.num_isds <= layout.core_ases:
            raise ScenarioError(
                f"num_isds must be within [1, {layout.core_ases}], "
                f"got {layout.num_isds}",
                field="isds.num_isds",
            )
        if layout.leaves_per_core < 1:
            raise ScenarioError(
                "every core AS needs at least one leaf (the endpoints)",
                field="isds.leaves_per_core",
            )
        _check_fraction(
            self.deployment.scion_fraction, "deployment.scion_fraction"
        )
        _check_fraction(self.sig.legacy_fraction, "sig.legacy_fraction")

        known_isds = set(range(1, layout.num_isds + 1))
        seen_members: Dict[int, str] = {}
        seen_names: Dict[str, str] = {}
        for index, ixp in enumerate(self.ixps):
            prefix = f"ixps[{index}]"
            if ixp.mode not in ("big-switch", "exposed"):
                raise ScenarioError(
                    f"unknown IXP mode {ixp.mode!r}; "
                    "use 'big-switch' or 'exposed'",
                    field=f"{prefix}.mode",
                )
            if ixp.name in seen_names:
                raise ScenarioError(
                    f"IXP name {ixp.name!r} already used by "
                    f"{seen_names[ixp.name]}",
                    field=f"{prefix}.name",
                )
            seen_names[ixp.name] = prefix
            if not ixp.members and ixp.member_count < 2:
                raise ScenarioError(
                    "an IXP needs explicit members or member_count >= 2",
                    field=f"{prefix}.member_count",
                )
            if ixp.members and len(set(ixp.members)) != len(ixp.members):
                raise ScenarioError(
                    f"duplicate member in {sorted(ixp.members)}",
                    field=f"{prefix}.members",
                )
            for member in ixp.members:
                self._check_substrate_asn(member, f"{prefix}.members")
                if member in seen_members:
                    raise ScenarioError(
                        f"AS {member} already belongs to IXP "
                        f"{seen_members[member]}; memberships must not "
                        "overlap",
                        field=f"{prefix}.members",
                    )
                seen_members[member] = ixp.name
            if ixp.mode == "exposed":
                if ixp.sites < 2:
                    raise ScenarioError(
                        f"an exposed IXP needs at least 2 sites, "
                        f"got {ixp.sites}",
                        field=f"{prefix}.sites",
                    )
                if ixp.isd not in known_isds:
                    raise ScenarioError(
                        f"unknown ISD {ixp.isd}; the layout defines ISDs "
                        f"1..{layout.num_isds}",
                        field=f"{prefix}.isd",
                    )
                for a, b in ixp.redundant_pairs:
                    if not (0 <= a < ixp.sites and 0 <= b < ixp.sites):
                        raise ScenarioError(
                            f"site pair ({a}, {b}) outside the "
                            f"{ixp.sites} sites",
                            field=f"{prefix}.redundant_pairs",
                        )
        for index, line in enumerate(self.leased_lines):
            prefix = f"leased_lines[{index}]"
            self._check_substrate_asn(line.a, f"{prefix}.a")
            self._check_substrate_asn(line.b, f"{prefix}.b")
            if line.a == line.b:
                raise ScenarioError(
                    f"a leased line needs two distinct ASes, got {line.a} "
                    "twice",
                    field=f"{prefix}.b",
                )
            if line.count < 1:
                raise ScenarioError(
                    "a leased line needs at least one link",
                    field=f"{prefix}.count",
                )
        if self.hijack.enabled:
            for name in ("victim_isd", "attacker_isd"):
                isd = getattr(self.hijack, name)
                if isd not in known_isds:
                    raise ScenarioError(
                        f"unknown ISD {isd}; the layout defines ISDs "
                        f"1..{layout.num_isds}",
                        field=f"hijack.{name}",
                    )
            for name in ("victim_asn", "attacker_asn"):
                asn = getattr(self.hijack, name)
                if asn:
                    self._check_substrate_asn(asn, f"hijack.{name}")
        faults = self.faults
        if faults.enabled:
            if faults.num_schedules < 1:
                raise ScenarioError(
                    "need at least one schedule",
                    field="faults.num_schedules",
                )
            # random_schedule guarantees every outage (up to 3 intervals)
            # recovers with a 6-interval re-exploration margin before the
            # horizon; surface the resulting bound as a spec error.
            if faults.horizon < faults.first_fault + 3 + 6:
                raise ScenarioError(
                    f"horizon {faults.horizon} too short: needs at least "
                    f"first_fault ({faults.first_fault}) + max outage (3) "
                    "+ recovery margin (6) intervals",
                    field="faults.horizon",
                )
            if faults.num_loss_bursts:
                _check_fraction(
                    faults.loss_rate, "faults.loss_rate", exclusive_zero=True
                )
        traffic = self.traffic
        if traffic.enabled:
            if traffic.flows_per_tick < 1 or traffic.ticks < 1:
                raise ScenarioError(
                    "flows_per_tick and ticks must be positive",
                    field="traffic.flows_per_tick",
                )
            if traffic.algorithm not in ("baseline", "diversity"):
                raise ScenarioError(
                    f"unknown algorithm {traffic.algorithm!r}; use "
                    "'baseline' or 'diversity'",
                    field="traffic.algorithm",
                )
            from ..multipath.scheduler import get_strategy

            for field_name in ("policy", "strategy"):
                try:
                    get_strategy(getattr(traffic, field_name))
                except ValueError as error:
                    raise ScenarioError(
                        str(error), field=f"traffic.{field_name}"
                    ) from None
            if traffic.k_paths < 1:
                raise ScenarioError(
                    "k_paths must be positive", field="traffic.k_paths"
                )

    def _check_substrate_asn(self, asn: int, field_name: str) -> None:
        first = self.substrate.first_asn
        last = first + self.substrate.ases - 1
        if not first <= asn <= last:
            raise ScenarioError(
                f"unknown AS {asn}; the substrate defines ASes "
                f"{first}..{last}",
                field=field_name,
            )


# ------------------------------------------------------------- dict builds


def _check_fraction(
    value: float, field_name: str, *, exclusive_zero: bool = False
) -> None:
    low_ok = value > 0.0 if exclusive_zero else value >= 0.0
    if not (low_ok and value <= 1.0):
        bounds = "(0, 1]" if exclusive_zero else "[0, 1]"
        raise ScenarioError(
            f"fraction must be within {bounds}, got {value}",
            field=field_name,
        )


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


#: Nested sub-spec classes by ScenarioSpec field name.
_SECTIONS = {
    "substrate": SubstrateSpec,
    "isds": IsdLayoutSpec,
    "deployment": DeploymentSpec,
    "sig": SigSpec,
    "hijack": HijackSpec,
    "faults": FaultOverlaySpec,
    "traffic": TrafficOverlaySpec,
}

#: List-of-sub-spec fields: (element class, tuple-of-tuples fields).
_LISTS = {
    "ixps": IXPSpec,
    "leased_lines": LeasedLineSpec,
}


#: What a loaded value may be under each primitive annotation: an ``int``
#: is a valid ``float``; a ``bool`` is not an ``int``, whatever Python says.
_PRIMITIVES = {
    "int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
}


def _conforms(value: Any, annotation: str) -> bool:
    """Whether ``value`` has the type a field's annotation names. Sub-spec
    annotations pass: :func:`_build` built, hence checked, those values."""
    if annotation.startswith("Optional["):
        return value is None or _conforms(value, annotation[9:-1])
    if annotation.startswith("Tuple["):
        inner = annotation[6:-1]
        if not isinstance(value, tuple):
            return False
        kinds = (
            [inner[:-5]] * len(value)
            if inner.endswith(", ...")
            else inner.split(", ")
        )
        return len(kinds) == len(value) and all(map(_conforms, value, kinds))
    kinds = _PRIMITIVES.get(annotation)
    if kinds is None:
        return True
    if isinstance(value, bool):
        return annotation == "bool"
    return isinstance(value, kinds)


def _build(cls, data: Any, prefix: str):
    """Construct dataclass ``cls`` from a plain dict, field-addressed."""
    if not isinstance(data, dict):
        raise ScenarioError(
            f"expected a table/object, got {type(data).__name__}",
            field=prefix,
        )
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {unknown}; known keys: {sorted(known)}",
            field=f"{prefix}.{unknown[0]}" if prefix else unknown[0],
        )
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
        if not _conforms(value, known[key]):
            raise ScenarioError(
                f"expected {known[key]}, got {value!r}",
                field=f"{prefix}.{key}" if prefix else key,
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc), field=prefix) from None


def spec_from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from nested plain dicts (no
    validation — :meth:`ScenarioSpec.from_dict` validates too)."""
    if not isinstance(data, dict):
        raise ScenarioError(
            f"a scenario spec must be a table/object, got "
            f"{type(data).__name__}"
        )
    built: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _SECTIONS:
            built[key] = _build(_SECTIONS[key], value, key)
        elif key in _LISTS:
            if not isinstance(value, list):
                raise ScenarioError(
                    f"expected an array of tables, got "
                    f"{type(value).__name__}",
                    field=key,
                )
            built[key] = tuple(
                _build(_LISTS[key], item, f"{key}[{index}]")
                for index, item in enumerate(value)
            )
        else:
            built[key] = value
    return _build(ScenarioSpec, built, "")


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a scenario spec from a TOML or JSON file.

    The format is chosen by suffix (``.toml`` / ``.json``); TOML needs
    the stdlib ``tomllib`` (Python >= 3.11) — older interpreters get a
    clear error pointing at the JSON equivalent.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file {path} does not exist")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise ScenarioError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                "convert the spec to JSON for older interpreters"
            ) from None
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{path}: invalid TOML ({exc})") from None
    elif path.suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    else:
        raise ScenarioError(
            f"unsupported scenario format {path.suffix!r}; "
            "use .toml or .json"
        )
    return ScenarioSpec.from_dict(data)
