"""Golden-regression diff against the committed test-scale fixtures.

The fixtures pin the full numeric output of the figure 5/6, traffic and
multipath pipelines at the deterministic ``test`` scale, so *any*
unintended behavior change in topology generation, beaconing, BGP
convergence, churn modeling or the max-flow analysis shows up as a
concrete numeric diff — not just as a violated qualitative ordering.
Figures 5 and 6 are pinned as their result's ``data()`` (``conftest.py``'s
session-wide runs); traffic and
multipath as ``tools/regen_fixtures.py``'s projections. Every test
compares through :func:`assert_matches`, so a field the generator adds is
pinned the moment the fixture is regenerated.

If a change is intentional, regenerate with::

    PYTHONPATH=src python tools/regen_fixtures.py

and commit the updated fixtures alongside the change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
REGEN = "PYTHONPATH=src python tools/regen_fixtures.py"


def load(name: str) -> dict:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {path}; generate it with: {REGEN}"
    return json.loads(path.read_text())


def assert_matches(actual, expected, where: str) -> None:
    """Recursive fixture comparison: dicts by key set then per key, lists
    by length then per item, floats at ``rel=1e-9`` (round-off-level
    drift of a float pipeline), everything else — ints, strings, bools,
    ``None`` — exact."""
    hint = f"{where} diverged from the fixture; if intentional: {REGEN}"
    if isinstance(expected, dict):
        assert isinstance(actual, dict), hint
        assert sorted(actual) == sorted(expected), hint
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), hint
        for index, (got, value) in enumerate(zip(actual, expected)):
            assert_matches(got, value, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9), hint
    else:
        assert type(actual) is type(expected) and actual == expected, hint


def assert_fixture(name: str, current: dict) -> None:
    """``current`` as JSON would store it (tuples as lists, keys as
    strings) against the committed fixture ``name``."""
    assert_matches(json.loads(json.dumps(current)), load(name), name)


def _regen_tool():
    """``tools/regen_fixtures.py`` as a module: the traffic and multipath
    diffs compare the generator's own projection, so the series list and
    field set the fixture pins are defined once."""
    path = Path(__file__).parent.parent / "tools" / "regen_fixtures.py"
    spec = importlib.util.spec_from_file_location("regen_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure5_matches_fixture(figure5):
    assert_fixture("figure5_test.json", figure5.data())


def test_figure6_matches_fixture(figure6):
    assert_fixture("figure6_test.json", figure6.data())


def test_traffic_matches_fixture():
    """Every k=1 ranking x both algorithms, both faulted runs, and the
    engine's weighted-ecmp / max-disjoint k=3 splits (faulted too)."""
    assert_fixture("traffic_test.json", _regen_tool().traffic_fixture())


def test_multipath_matches_fixture():
    """Every strategy's churn aggregates plus the dataset id, which
    content-addresses the entire exported time series: byte-level drift
    anywhere in scheduling, churn or encoding fails that one field."""
    assert_fixture("multipath_test.json", _regen_tool().multipath_fixture())


@pytest.mark.parametrize(
    "actual, expected",
    [
        (1, 2),
        (1, 1.0 + 1e-6),
        ("a", "b"),
        ([1, 2], [1]),
        ({"a": 1}, {"a": 1, "b": 2}),
        ({"a": [1.0]}, {"a": [1.1]}),
        (1.0, 1),
        (True, 1),
    ],
)
def test_the_comparer_rejects_a_drift(actual, expected):
    with pytest.raises(AssertionError):
        assert_matches(actual, expected, "x")


def test_the_comparer_forgives_round_off_only():
    expected = {"a": [1, 1.0, "s", None, True]}
    assert_matches({"a": [1, 1.0 + 1e-12, "s", None, True]}, expected, "x")
