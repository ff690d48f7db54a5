"""The declarative scenario DSL: dataclass specs, loading, validation.

A :class:`ScenarioSpec` describes one deployment-diversity experiment the
way the seed-emulator's Base/Routing/Ebgp layers describe a network: ISDs,
core/non-core ASes, IXPs (big-switch or exposed-topology), SIG legacy
fractions, leased lines, partial-deployment fractions with a BGP rump,
and hijack/fault/traffic overlays — all as plain primitives. An overlay
is on when its table is present, the way a seed-emulator script carries
only the layers it ``addLayer``s. Specs load from TOML or JSON files
(:func:`load_spec`), round-trip through dicts
(:meth:`ScenarioSpec.from_dict` / :meth:`ScenarioSpec.to_dict`), pickle
into process-pool tasks unchanged, and fingerprint into the experiment
cache via :func:`repro.runtime.cache.stable_key` — the content-addressed
hash that keys compiled state.

Errors are field-addressed: loading rejects unknown keys and wrong types,
and :meth:`ScenarioSpec.validate` (run by the compiler before its first
pass) every bound the spec alone decides. Each raises
:class:`ScenarioError` carrying the dotted path of the offending field
(``ixps[1].member_count``, ``deployment.scion_fraction``), so a 200-line
spec file fails with the line that is wrong, not a stack trace from pass
three of the compiler.
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
]


class ScenarioError(ValueError):
    """A structurally invalid scenario spec.

    ``field`` is the dotted path of the offending field (list entries are
    indexed: ``ixps[0].mode``); the message always includes it.
    """

    def __init__(self, message: str, *, field: str = "") -> None:
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


# --------------------------------------------------------------- sub-specs


@dataclass(frozen=True)
class SubstrateSpec:
    """The synthetic Internet the scenario is carved from (pass 1),
    generated from the scenario seed."""

    #: Total ASes of the generated Internet (AS-rel-geo stand-in).
    ases: int = 60
    #: Tier-1 ASes forming the meshed top; 0 = derived from ``ases``.
    tier1: int = 0


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
    #: Members: the highest-degree core ASes no earlier IXP claimed,
    #: selected at compile time.
    member_count: int = 0


@dataclass(frozen=True)
class LeasedLineSpec:
    """A leased-line replacement between two ASes (pass 6, §3.1):
    parallel SCION links at distinct locations."""

    a: int = 0
    b: int = 0


@dataclass(frozen=True)
class HijackSpec:
    """A BGP prefix hijack contrasted with SCION's ISD isolation.

    The attacker originates the victim's prefix in the BGP view; on the
    SCION side, ISD trust isolation bounds who can be deceived. The
    victim is the highest-degree core AS of ISD 1, the attacker the
    highest-degree other core AS of ``attacker_isd``.
    """

    attacker_isd: int = 2


@dataclass(frozen=True)
class FaultOverlaySpec:
    """Seeded core-link failure schedules over the compiled core."""

    num_schedules: int = 2
    #: Monitored (origin, receiver) pairs sampled over the core.
    num_pairs: int = 12


@dataclass(frozen=True)
class TrafficOverlaySpec:
    """A data-plane workload over the compiled network."""

    flows_per_tick: int = 8
    ticks: int = 6
    link_capacity_bps: float = 4e6


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative deployment-diversity scenario.

    Pure primitives end to end: picklable, hashable through
    ``stable_key``, and loadable from TOML/JSON. An overlay (``hijack``,
    ``faults``, ``traffic``) is on when present. ``validate()``, run by
    the compiler, raises :class:`ScenarioError` on every structural
    problem, naming the offending field.
    """

    name: str = "scenario"
    seed: int = 7
    substrate: SubstrateSpec = field(default_factory=SubstrateSpec)
    isds: IsdLayoutSpec = field(default_factory=IsdLayoutSpec)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    sig: SigSpec = field(default_factory=SigSpec)
    ixps: Tuple[IXPSpec, ...] = ()
    leased_lines: Tuple[LeasedLineSpec, ...] = ()
    hijack: Optional[HijackSpec] = None
    faults: Optional[FaultOverlaySpec] = None
    traffic: Optional[TrafficOverlaySpec] = None

    # ------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from nested plain dicts: types and keys are
        checked here, bounds by :meth:`validate`."""
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
        return _build(cls, built, "")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-primitive dict (tuples become lists, absent overlays are
        left out) — JSON-ready and loadable again."""
        return {
            key: value
            for key, value in _plain(dataclasses.asdict(self)).items()
            if value is not None
        }

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check every bound the spec alone decides; raises ScenarioError.
        Rules that need the compiled topology live in their pass."""
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
            if ixp.member_count < 2:
                raise ScenarioError(
                    "an IXP needs member_count >= 2",
                    field=f"{prefix}.member_count",
                )
        for index, line in enumerate(self.leased_lines):
            if line.a == line.b:
                raise ScenarioError(
                    f"a leased line needs two distinct ASes, got {line.a} "
                    "twice",
                    field=f"leased_lines[{index}].b",
                )
        if self.hijack is not None and not (
            1 <= self.hijack.attacker_isd <= layout.num_isds
        ):
            raise ScenarioError(
                f"unknown ISD {self.hijack.attacker_isd}; the layout "
                f"defines ISDs 1..{layout.num_isds}",
                field="hijack.attacker_isd",
            )
        if self.faults is not None and self.faults.num_schedules < 1:
            raise ScenarioError(
                "need at least one schedule", field="faults.num_schedules"
            )
        traffic = self.traffic
        if traffic is not None and (
            traffic.flows_per_tick < 1 or traffic.ticks < 1
        ):
            raise ScenarioError(
                "flows_per_tick and ticks must be positive",
                field="traffic.flows_per_tick",
            )


# ------------------------------------------------------------- dict builds


def _check_fraction(value: float, field_name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(
            f"fraction must be within [0, 1], got {value}",
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

#: List-of-sub-spec fields by ScenarioSpec field name.
_LISTS = {
    "ixps": IXPSpec,
    "leased_lines": LeasedLineSpec,
}


#: What a loaded value may be under each primitive annotation: an ``int``
#: is a valid ``float``; a ``bool`` is not an ``int``, whatever Python says.
_PRIMITIVES = {"int": (int,), "float": (int, float), "str": (str,)}


def _conforms(value: Any, annotation: str) -> bool:
    """Whether ``value`` has the type a field's annotation names. Sub-spec
    annotations pass: :func:`_build` built, hence checked, those values."""
    kinds = _PRIMITIVES.get(annotation)
    if kinds is None:
        return True
    return isinstance(value, kinds) and not isinstance(value, bool)


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
    for key, value in data.items():
        if not _conforms(value, known[key]):
            raise ScenarioError(
                f"expected {known[key]}, got {value!r}",
                field=f"{prefix}.{key}" if prefix else key,
            )
    return cls(**data)


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load a scenario spec from a TOML or JSON file.

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
