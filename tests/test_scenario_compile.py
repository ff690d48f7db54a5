"""Compiler determinism: golden manifests and byte-identical recompiles."""

import json
from pathlib import Path

import pytest

from repro.scenario import (
    IXPSpec,
    ScenarioError,
    build_family,
    compile_scenario,
    family_names,
    spec_hash,
)

FIXTURES = Path(__file__).parent / "fixtures"
REGEN = "PYTHONPATH=src python tools/regen_fixtures.py"


def load_fixture(name: str) -> dict:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {path}; run: {REGEN}"
    return json.loads(path.read_text())


def canonical_bytes(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True).encode()


def test_family_registry_is_stable():
    assert family_names() == (
        "hijack-isolation",
        "incremental-deployment",
        "isd-trust-split",
        "ixp-models",
        "sig-legacy",
    )


@pytest.mark.parametrize("family", family_names())
def test_compile_matches_golden_fixture(family):
    fixture = load_fixture("scenarios_test.json")
    expected = fixture["families"][family]
    compiled = {
        spec.name: compile_scenario(spec).manifest()
        for spec in build_family(family, "test")
    }
    assert sorted(compiled) == sorted(expected), (
        f"variant set drifted for {family}; run: {REGEN}"
    )
    for name, manifest in compiled.items():
        # The fixture went through JSON, so compare via the same round trip.
        assert json.loads(canonical_bytes(manifest)) == expected[name], (
            f"compiled manifest drifted for {family}/{name}; run: {REGEN}"
        )


def test_recompile_is_byte_identical():
    for family in family_names():
        for spec in build_family(family, "test"):
            first = compile_scenario(spec)
            second = compile_scenario(spec)
            assert canonical_bytes(first.manifest()) == canonical_bytes(
                second.manifest()
            ), f"recompile of {spec.name} is not byte-identical"
            assert spec_hash(spec) == first.manifest()["spec_hash"]


def test_seed_changes_the_artifact():
    from dataclasses import replace

    spec = build_family("incremental-deployment", "test")[0]
    other = replace(spec, seed=spec.seed + 1)
    assert spec_hash(spec) != spec_hash(other)
    a = compile_scenario(spec).manifest()
    b = compile_scenario(other).manifest()
    assert a["rump_asns"] != b["rump_asns"] or a["topology"] != b["topology"]


def test_exposed_ixp_sites_excluded_from_endpoints():
    specs = {s.name: s for s in build_family("ixp-models", "test")}
    compiled = compile_scenario(specs["ixp-exposed"])
    (ixp,) = compiled.ixps
    assert ixp.mode == "exposed" and len(ixp.site_asns) == 2
    assert not set(ixp.site_asns) & set(compiled.endpoints)
    for ts in compiled.traffic_specs:
        assert ts.endpoints is not None
        assert not set(ixp.site_asns) & set(ts.endpoints)


def test_deployment_partition_covers_endpoints():
    for spec in build_family("incremental-deployment", "test"):
        compiled = compile_scenario(spec)
        endpoints = set(compiled.endpoints)
        scion = set(compiled.scion_asns)
        rump = set(compiled.rump_asns)
        assert scion | rump == endpoints and not scion & rump
        observed = len(scion) / len(endpoints)
        target = spec.deployment.scion_fraction
        assert abs(observed - target) <= 1.5 / len(endpoints) + 1e-9
        # The SIG legacy set always covers the whole rump.
        assert rump <= set(compiled.legacy_asns)


def test_hijack_roles_pinned_by_isd():
    specs = {s.name: s for s in build_family("hijack-isolation", "test")}
    cross = compile_scenario(specs["hijack-cross-isd"])
    assert cross.hijack is not None
    topo = cross.topology
    assert topo.as_node(cross.hijack.victim).isd == cross.hijack.victim_isd
    assert topo.as_node(cross.hijack.attacker).isd == cross.hijack.attacker_isd
    same = compile_scenario(specs["hijack-same-isd"])
    assert same.hijack is not None
    assert same.hijack.victim_isd == same.hijack.attacker_isd
    assert same.hijack.victim != same.hijack.attacker


def test_pruned_explicit_member_raises():
    from dataclasses import replace

    spec = build_family("ixp-models", "test")[0]
    # The substrate has 48 ASes but only 8 survive core pruning; AS 47
    # exists at validation time yet is guaranteed not to be a core AS.
    low_degree = spec.substrate.first_asn + spec.substrate.ases - 1
    bad = replace(
        spec, ixps=(IXPSpec(name="ix", members=(low_degree,)),)
    )
    bad.validate()  # passes static checks — the AS exists
    with pytest.raises(ScenarioError) as info:
        compile_scenario(bad)
    assert info.value.field == "ixps[0].members"


def test_leased_lines_materialize():
    fixture = load_fixture("scenarios_test.json")
    # The example-style families do not carry leased lines; exercise the
    # compiler pass directly on a family spec with one added.
    from dataclasses import replace

    from repro.scenario import LeasedLineSpec

    spec = build_family("hijack-isolation", "test")[0]
    wired = replace(spec, leased_lines=(LeasedLineSpec(a=1, b=2, count=2),))
    compiled = compile_scenario(wired)
    assert len(compiled.leased_link_ids) == 2
    locations = {
        compiled.topology.link(link_id).location
        for link_id in compiled.leased_link_ids
    }
    assert locations == {"leased:1-2:0", "leased:1-2:1"}
    assert fixture["scale"] == "test"


def test_overlay_policy_is_the_strategy_that_runs():
    """``strategy="single"`` (the default) means "no split": the
    overlay's ``policy`` ranks at k=1; a named strategy replaces it."""
    from dataclasses import replace

    spec = build_family("incremental-deployment", "test")[0]
    assert spec.traffic.enabled and spec.traffic.strategy == "single"

    def selection(**overlay):
        compiled = compile_scenario(
            replace(spec, traffic=replace(spec.traffic, **overlay))
        )
        (ts,) = compiled.traffic_specs
        return ts.traffic_config, ts.labels()["policy"]

    config, label = selection(policy="most-disjoint")
    assert (config.policy, config.strategy) == ("most-disjoint", None)
    assert label == "most-disjoint"
    config, label = selection(strategy="max-disjoint", k_paths=2)
    assert (config.strategy, config.k_paths) == ("max-disjoint", 2)
    assert label == "multipath/max-disjoint"
