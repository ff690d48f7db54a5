"""Spec validation: every structural error names its offending field."""

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


def expect_error(spec: ScenarioSpec, field: str) -> ScenarioError:
    with pytest.raises(ScenarioError) as info:
        spec.validate()
    error = info.value
    assert error.field == field, (
        f"expected error on field {field!r}, got {error.field!r}: {error}"
    )
    assert field in str(error)
    return error


# ------------------------------------------------------ unknown references


def test_unknown_as_in_ixp_members():
    spec = valid_spec(
        ixps=(IXPSpec(name="ix", members=(9999,)),)
    )
    expect_error(spec, "ixps[0].members")


def test_unknown_isd_in_exposed_ixp():
    spec = valid_spec(
        ixps=(IXPSpec(name="ix", mode="exposed", member_count=2, isd=7),)
    )
    expect_error(spec, "ixps[0].isd")


def test_unknown_isd_in_hijack():
    spec = valid_spec(
        hijack=HijackSpec(enabled=True, victim_isd=1, attacker_isd=9)
    )
    expect_error(spec, "hijack.attacker_isd")


def test_unknown_as_in_leased_line():
    spec = valid_spec(leased_lines=(LeasedLineSpec(a=1, b=4000),))
    expect_error(spec, "leased_lines[0].b")


def test_unknown_as_in_hijack_pin():
    spec = valid_spec(
        hijack=HijackSpec(enabled=True, attacker_isd=2, victim_asn=4000)
    )
    expect_error(spec, "hijack.victim_asn")


# ---------------------------------------------------------- fraction bounds


def test_scion_fraction_above_one():
    spec = valid_spec(deployment=DeploymentSpec(scion_fraction=1.5))
    expect_error(spec, "deployment.scion_fraction")


def test_legacy_fraction_below_zero():
    spec = valid_spec(sig=SigSpec(legacy_fraction=-0.1))
    expect_error(spec, "sig.legacy_fraction")


def test_transit_fraction_bounds():
    spec = valid_spec(
        substrate=SubstrateSpec(ases=40, transit_fraction=2.0)
    )
    expect_error(spec, "substrate.transit_fraction")


def test_loss_rate_bounds():
    spec = valid_spec(
        faults=FaultOverlaySpec(
            enabled=True, num_loss_bursts=1, loss_rate=0.0
        )
    )
    expect_error(spec, "faults.loss_rate")


# ----------------------------------------------------- IXP membership rules


def test_overlapping_ixp_memberships():
    spec = valid_spec(
        ixps=(
            IXPSpec(name="a", members=(1, 2)),
            IXPSpec(name="b", members=(2, 3)),
        )
    )
    error = expect_error(spec, "ixps[1].members")
    assert "AS 2" in str(error)


def test_duplicate_member_within_one_ixp():
    spec = valid_spec(ixps=(IXPSpec(name="a", members=(1, 2, 1)),))
    expect_error(spec, "ixps[0].members")


def test_duplicate_ixp_names():
    spec = valid_spec(
        ixps=(
            IXPSpec(name="a", members=(1,), member_count=0),
            IXPSpec(name="a", members=(2,)),
        )
    )
    expect_error(spec, "ixps[1].name")


def test_ixp_needs_members_or_count():
    spec = valid_spec(ixps=(IXPSpec(name="a"),))
    expect_error(spec, "ixps[0].member_count")


def test_exposed_redundant_pair_out_of_range():
    spec = valid_spec(
        ixps=(
            IXPSpec(
                name="a", mode="exposed", member_count=2,
                sites=2, redundant_pairs=((0, 5),),
            ),
        )
    )
    expect_error(spec, "ixps[0].redundant_pairs")


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


def test_fault_horizon_too_short():
    spec = valid_spec(
        faults=FaultOverlaySpec(enabled=True, horizon=10, first_fault=8)
    )
    expect_error(spec, "faults.horizon")


def test_unknown_traffic_algorithm():
    spec = valid_spec(
        traffic=TrafficOverlaySpec(enabled=True, algorithm="quantum")
    )
    expect_error(spec, "traffic.algorithm")


@pytest.mark.parametrize("field", ["policy", "strategy"])
def test_unknown_traffic_selection_name(field):
    """Both selection names are checked against the one strategy
    registry, at the boundary, naming the choices."""
    spec = valid_spec(
        traffic=TrafficOverlaySpec(enabled=True, **{field: "hottest-potato"})
    )
    error = expect_error(spec, f"traffic.{field}")
    assert "hottest-potato" in str(error) and "most-disjoint" in str(error)


# ------------------------------------------------------------- dict loading


def test_from_dict_round_trip():
    spec = valid_spec(
        ixps=(IXPSpec(name="ix", member_count=3),),
        hijack=HijackSpec(enabled=True, victim_isd=1, attacker_isd=2),
    )
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec


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
        ({"ixps": [{"member_count": 2, "members": [1, "x"]}]}, "ixps[0].members"),
        (
            {"ixps": [{"member_count": 2, "redundant_pairs": [[0, 1, 2]]}]},
            "ixps[0].redundant_pairs",
        ),
        ({"leased_lines": [{"a": 1, "b": 2, "count": "two"}]}, "leased_lines[0].count"),
        ({"hijack": {"enabled": 1}}, "hijack.enabled"),
        ({"faults": {"loss_rate": "high"}}, "faults.loss_rate"),
        ({"traffic": {"policy": 3}}, "traffic.policy"),
    ],
)
def test_from_dict_rejects_a_wrongly_typed_value_by_field(data, field):
    """Was: ``TypeError: '<' not supported`` out of ``validate()``."""
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_dict(data)
    assert info.value.field == field and field in str(info.value)


def test_from_dict_takes_an_int_where_a_float_is_annotated():
    spec = ScenarioSpec.from_dict(
        {"substrate": {"transit_fraction": 1, "seed": None}}
    )
    assert spec.substrate.transit_fraction == 1 and spec.substrate.seed is None


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
    assert spec.hijack.enabled and spec.traffic.enabled
