"""Spec loading and validation: every structural error names its
offending field, and an overlay is on exactly when its table is present."""

import json

import pytest

from repro.scenario import (
    DeploymentSpec,
    FaultOverlaySpec,
    HijackSpec,
    IsdLayoutSpec,
    IXPSpec,
    LeasedLineSpec,
    ScenarioError,
    ScenarioSpec,
    SigSpec,
    SubstrateSpec,
    TrafficOverlaySpec,
    compile_scenario,
    load_spec,
)

try:
    import tomllib  # noqa: F401

    HAVE_TOMLLIB = True
except ImportError:  # pragma: no cover - Python < 3.11
    HAVE_TOMLLIB = False


def valid_spec(**overrides) -> ScenarioSpec:
    from dataclasses import replace

    spec = ScenarioSpec(
        name="t",
        substrate=SubstrateSpec(ases=40, tier1=5),
        isds=IsdLayoutSpec(core_ases=6, num_isds=2, leaves_per_core=2),
    )
    return replace(spec, **overrides)


def expect_error(spec: ScenarioSpec, field: str, check=None) -> ScenarioError:
    """``check`` is the rule's one place: ``validate()`` by default, or
    the compiler for rules that need the compiled topology."""
    with pytest.raises(ScenarioError) as info:
        (check or ScenarioSpec.validate)(spec)
    error = info.value
    assert error.field == field, (
        f"expected error on field {field!r}, got {error.field!r}: {error}"
    )
    assert field in str(error)
    return error


# ------------------------------------------------------ unknown references


def test_unknown_isd_in_hijack():
    spec = valid_spec(hijack=HijackSpec(attacker_isd=9))
    expect_error(spec, "hijack.attacker_isd")


def test_unknown_as_in_leased_line():
    """Checked against the compiled topology: an AS outside the substrate
    and one core pruning dropped fail alike."""
    core_as = min(compile_scenario(valid_spec()).topology.core_asns())
    pruned = valid_spec().substrate.ases  # the last, a stub: pruned
    for unknown in (4000, pruned):
        spec = valid_spec(
            leased_lines=(LeasedLineSpec(a=core_as, b=unknown),)
        )
        error = expect_error(spec, "leased_lines[0].b", compile_scenario)
        assert f"AS {unknown} " in str(error)


# ---------------------------------------------------------- fraction bounds


def test_scion_fraction_above_one():
    spec = valid_spec(deployment=DeploymentSpec(scion_fraction=1.5))
    expect_error(spec, "deployment.scion_fraction")


def test_legacy_fraction_below_zero():
    spec = valid_spec(sig=SigSpec(legacy_fraction=-0.1))
    expect_error(spec, "sig.legacy_fraction")


# ----------------------------------------------------- IXP membership rules


def test_overlapping_ixp_memberships():
    """Memberships never overlap: a later IXP takes only core ASes no
    earlier one claimed, and fails by name when too few are left."""
    spec = valid_spec(
        ixps=(
            IXPSpec(name="a", member_count=3),
            IXPSpec(name="b", mode="exposed", member_count=3),
        )
    )
    first, second = compile_scenario(spec).ixps
    assert len(first.members) == len(second.members) == 3
    assert not set(first.members) & set(second.members)
    crowded = valid_spec(
        ixps=(
            IXPSpec(name="a", member_count=4),
            IXPSpec(name="b", member_count=3),
        )
    )
    error = expect_error(crowded, "ixps[1].member_count", compile_scenario)
    assert "2 unclaimed core ASes" in str(error)


def test_duplicate_ixp_names():
    spec = valid_spec(
        ixps=(
            IXPSpec(name="a", member_count=2),
            IXPSpec(name="a", member_count=2),
        )
    )
    expect_error(spec, "ixps[1].name")


def test_ixp_needs_members_or_count():
    spec = valid_spec(ixps=(IXPSpec(name="a"),))
    expect_error(spec, "ixps[0].member_count")


def test_unknown_ixp_mode():
    spec = valid_spec(ixps=(IXPSpec(name="a", mode="magic"),))
    expect_error(spec, "ixps[0].mode")


# -------------------------------------------------------- layout and bounds


def test_core_larger_than_substrate():
    spec = valid_spec(
        isds=IsdLayoutSpec(core_ases=400, num_isds=2, leaves_per_core=2)
    )
    expect_error(spec, "isds.core_ases")


def test_more_isds_than_core_ases():
    spec = valid_spec(
        isds=IsdLayoutSpec(core_ases=4, num_isds=9, leaves_per_core=2)
    )
    expect_error(spec, "isds.num_isds")


def test_leased_line_same_endpoints():
    spec = valid_spec(leased_lines=(LeasedLineSpec(a=3, b=3),))
    expect_error(spec, "leased_lines[0].b")


# ------------------------------------------------------------- dict loading


def test_from_dict_round_trip():
    spec = valid_spec(
        ixps=(IXPSpec(name="ix", member_count=3),),
        leased_lines=(LeasedLineSpec(a=1, b=2),),
        hijack=HijackSpec(attacker_isd=2),
    )
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec


@pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python >= 3.11")
def test_a_present_table_is_an_active_overlay(tmp_path):
    """A present table, even an empty one, turns its overlay on with the
    section's defaults; an absent one leaves it off. A spec without
    overlays round-trips through ``to_dict``."""
    overlays = {
        "hijack": HijackSpec(),
        "faults": FaultOverlaySpec(),
        "traffic": TrafficOverlaySpec(),
    }
    path = tmp_path / "spec.toml"
    for name in overlays:
        path.write_text(f'name = "t"\n[{name}]\n')
        spec = load_spec(path)
        for other, section in overlays.items():
            assert getattr(spec, other) == (
                section if other == name else None
            ), (name, other)
    bare = valid_spec()
    assert (bare.hijack, bare.faults, bare.traffic) == (None, None, None)
    assert not {"hijack", "faults", "traffic"} & set(bare.to_dict())
    assert ScenarioSpec.from_dict(bare.to_dict()) == bare


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_dict({"name": "x", "warp_factor": 9})
    assert "warp_factor" in str(info.value)


def test_from_dict_rejects_unknown_section_keys():
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_dict({"substrate": {"asez": 40}})
    assert info.value.field == "substrate.asez"


@pytest.mark.parametrize(
    "data,field",
    [
        ({"seed": "7"}, "seed"),
        ({"substrate": {"ases": "many"}}, "substrate.ases"),
        ({"substrate": {"tier1": True}}, "substrate.tier1"),
        ({"isds": {"num_isds": 2.0}}, "isds.num_isds"),
        ({"deployment": {"scion_fraction": "half"}}, "deployment.scion_fraction"),
        ({"sig": {"legacy_fraction": [0.5]}}, "sig.legacy_fraction"),
        ({"ixps": [{"member_count": "two"}]}, "ixps[0].member_count"),
        ({"ixps": [{"member_count": 2, "mode": 3}]}, "ixps[0].mode"),
        ({"leased_lines": [{"a": 1, "b": "two"}]}, "leased_lines[0].b"),
        ({"hijack": {"attacker_isd": True}}, "hijack.attacker_isd"),
        ({"faults": {"num_pairs": "many"}}, "faults.num_pairs"),
        ({"traffic": {"link_capacity_bps": "fast"}}, "traffic.link_capacity_bps"),
    ],
)
def test_from_dict_rejects_a_wrongly_typed_value_by_field(data, field):
    """Was: ``TypeError: '<' not supported`` out of ``validate()``."""
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_dict(data)
    assert info.value.field == field and field in str(info.value)


def test_from_dict_takes_an_int_where_a_float_is_annotated():
    spec = ScenarioSpec.from_dict(
        {"sig": {"legacy_fraction": 1}, "traffic": {"link_capacity_bps": 4}}
    )
    assert spec.sig.legacy_fraction == 1
    assert spec.traffic.link_capacity_bps == 4


def test_load_spec_json(tmp_path):
    payload = valid_spec().to_dict()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert load_spec(path) == valid_spec()


@pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python >= 3.11")
def test_load_spec_toml(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(
        'name = "t"\n'
        "[substrate]\nases = 40\ntier1 = 5\n"
        "[isds]\ncore_ases = 6\nnum_isds = 2\nleaves_per_core = 2\n"
    )
    assert load_spec(path) == valid_spec()


def test_load_spec_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("name: t\n")
    with pytest.raises(ScenarioError):
        load_spec(path)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_spec(tmp_path / "nope.json")


def test_example_scenario_loads():
    if not HAVE_TOMLLIB:
        pytest.skip("tomllib needs Python >= 3.11")
    from pathlib import Path

    example = (
        Path(__file__).parent.parent
        / "examples"
        / "scenario_partial_deployment.toml"
    )
    spec = load_spec(example)
    assert spec.name == "partial-deployment"
    assert spec.hijack is not None and spec.traffic is not None
    assert spec.faults is None
