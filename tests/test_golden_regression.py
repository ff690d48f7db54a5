"""Golden-regression diff against the committed figure 5/6 fixtures.

The fixtures pin the full numeric output of the two figure pipelines at
the deterministic ``test`` scale, so *any* unintended behavior change in
topology generation, beaconing, BGP convergence, churn modeling or the
max-flow analysis shows up as a concrete numeric diff — not just as a
violated qualitative ordering.

If a change is intentional, regenerate with::

    PYTHONPATH=src python tools/regen_fixtures.py

and commit the updated fixtures alongside the change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import TEST_SCALE
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6

FIXTURES = Path(__file__).parent / "fixtures"
REGEN = "PYTHONPATH=src python tools/regen_fixtures.py"


def load(name: str) -> dict:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {path}; generate it with: {REGEN}"
    return json.loads(path.read_text())


def test_figure6_matches_fixture():
    fixture = load("figure6_test.json")
    result = run_figure6(TEST_SCALE)
    assert [list(pair) for pair in result.pairs] == fixture["pairs"], (
        f"sampled pair set changed; if intentional, regenerate: {REGEN}"
    )
    assert sorted(result.values) == sorted(fixture["values"])
    for series, expected in fixture["values"].items():
        # Resilience values are integers: exact comparison.
        assert list(result.values[series]) == expected, (
            f"figure6 series {series!r} diverged from the fixture; "
            f"if intentional, regenerate: {REGEN}"
        )


def _regen_tool():
    """``tools/regen_fixtures.py`` as a module: the traffic diff compares
    the generator's own projection, so the series list and field set the
    fixture pins are defined once."""
    import importlib.util

    path = Path(__file__).parent.parent / "tools" / "regen_fixtures.py"
    spec = importlib.util.spec_from_file_location("regen_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_matches_fixture():
    """Every k=1 ranking x both algorithms, both faulted runs, and the
    engine's weighted-ecmp / max-disjoint k=3 splits (faulted too)."""
    fixture = load("traffic_test.json")
    current = _regen_tool().traffic_fixture()
    assert current["scale"] == fixture["scale"]
    assert sorted(current["series"]) == sorted(fixture["series"])
    for name, expected in fixture["series"].items():
        run = current["series"][name]
        assert sorted(run) == sorted(expected)
        for key, value in expected.items():
            if key == "latency_sum":
                # Float pipeline: summed, compared with approx.
                assert run[key] == pytest.approx(value, rel=1e-9), (
                    f"traffic series {name!r} latencies diverged from the "
                    f"fixture; if intentional, regenerate: {REGEN}"
                )
            else:
                # Byte/packet/cache counters are integers: exact.
                assert run[key] == value, (
                    f"traffic series {name!r} {key} diverged from the "
                    f"fixture; if intentional, regenerate: {REGEN}"
                )


def test_multipath_matches_fixture():
    import tempfile

    from repro.experiments.multipath import run_multipath
    from repro.multipath.dataset import write_dataset
    from repro.multipath.scheduler import STRATEGY_NAMES

    fixture = load("multipath_test.json")
    result = run_multipath(
        TEST_SCALE, strategies=STRATEGY_NAMES, k_paths=3
    )
    assert sorted(result.results) == sorted(fixture["series"])
    ordered = []
    for name in STRATEGY_NAMES:
        run = result.results[name]
        ordered.append(run)
        expected = fixture["series"][name]
        # Packet/event counters are integers: exact comparison.
        for key in (
            "packets_offered", "packets_delivered", "packets_lost",
            "macs_verified", "beacon_expiries", "switch_events",
            "scmp_events", "faults_injected",
        ):
            assert getattr(run, key) == expected[key], (
                f"multipath strategy {name!r} {key} diverged from the "
                f"fixture; if intentional, regenerate: {REGEN}"
            )
        assert len(run.rows) == expected["num_rows"]
        assert len(run.paths) == expected["num_paths"]
        assert [list(pair) for pair in run.pairs] == expected["pairs"]
        assert list(run.path_lifetimes) == expected["path_lifetimes"]
        assert sum(row[9] for row in run.rows) == pytest.approx(
            expected["latency_sum"], rel=1e-9
        ), (
            f"multipath strategy {name!r} latencies diverged from the "
            f"fixture; if intentional, regenerate: {REGEN}"
        )
    # The dataset id content-addresses the entire exported time series:
    # byte-level drift anywhere in scheduling, churn or encoding fails
    # this single comparison.
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ordered, tmp)
    assert manifest["schema_version"] == fixture["schema_version"]
    assert manifest["dataset_id"] == fixture["dataset_id"], (
        f"multipath dataset content drifted; if intentional, "
        f"regenerate: {REGEN}"
    )


def test_figure5_matches_fixture():
    fixture = load("figure5_test.json")
    result = run_figure5(TEST_SCALE)
    monthly = result.comparison.monthly_bytes
    assert sorted(monthly) == sorted(fixture["monthly_bytes"])
    for series, expected in fixture["monthly_bytes"].items():
        actual = {str(asn): value for asn, value in monthly[series].items()}
        assert sorted(actual) == sorted(expected), (
            f"figure5 series {series!r} monitor set changed; "
            f"if intentional, regenerate: {REGEN}"
        )
        for asn, value in expected.items():
            # Float pipeline: allow only round-off-level drift.
            assert actual[asn] == pytest.approx(value, rel=1e-9), (
                f"figure5 {series!r} monitor {asn} diverged from the "
                f"fixture; if intentional, regenerate: {REGEN}"
            )
