"""Tests for the experiment harnesses (at test scale)."""

import pytest

from repro.experiments import (
    TEST_SCALE,
    build_core_topologies,
    build_full_stack_topology,
    build_large_isd,
    get_scale,
    sample_pairs,
)
from repro.experiments.config import BENCH_SCALE
from repro.experiments.report import (
    format_cdf_series,
    format_magnitude,
    format_table,
)
from repro.analysis import EmpiricalCDF
from repro.topology import Relationship


class TestScales:
    def test_presets_resolvable(self):
        assert get_scale("test") is TEST_SCALE
        assert get_scale("bench") is BENCH_SCALE
        with pytest.raises(ValueError):
            get_scale("paper")

    def test_beaconing_configs(self):
        config = TEST_SCALE.core_beaconing_config(30)
        assert config.storage_limit == 30
        assert config.interval == TEST_SCALE.interval

    def test_scaled_override(self):
        smaller = BENCH_SCALE.scaled(num_isds=2)
        assert smaller.num_isds == 2
        assert smaller.internet_ases == BENCH_SCALE.internet_ases


class TestCommonBuilders:
    def test_core_topologies_share_identifiers(self):
        topos = build_core_topologies(TEST_SCALE)
        assert topos.scion_core.num_ases == TEST_SCALE.core_ases
        assert topos.bgp_core.num_ases == TEST_SCALE.core_ases
        # Same link ids across the three views.
        for link in topos.scion_core.links():
            original = topos.internet.link(link.link_id)
            assert set(original.endpoints()) == set(link.endpoints())

    def test_scion_core_has_isds_and_core_links(self):
        topos = build_core_topologies(TEST_SCALE)
        core = topos.scion_core
        isds = {core.as_node(asn).isd for asn in core.asns()}
        assert len(isds) == TEST_SCALE.num_isds
        assert all(core.as_node(asn).is_core for asn in core.asns())
        assert all(
            link.relationship is Relationship.CORE for link in core.links()
        )

    def test_large_isd_structure(self):
        isd = build_large_isd(TEST_SCALE)
        assert len(isd.core_asns()) == TEST_SCALE.isd_cores
        assert isd.num_ases <= TEST_SCALE.isd_max_ases
        assert isd.num_ases > TEST_SCALE.isd_cores

    def test_full_stack_topology_has_leaves_per_isd(self):
        topo = build_full_stack_topology(TEST_SCALE, leaves_per_core=2)
        assert len(topo.non_core_asns()) == 2 * TEST_SCALE.core_ases
        for asn in topo.non_core_asns():
            assert topo.providers(asn)


class TestSamplePairs:
    def test_deterministic_and_distinct(self):
        pairs = sample_pairs([1, 2, 3, 4, 5], 8, seed=1)
        assert pairs == sample_pairs([1, 2, 3, 4, 5], 8, seed=1)
        assert len(pairs) == len(set(pairs)) == 8
        assert all(a != b for a, b in pairs)

    def test_caps_at_all_ordered_pairs(self):
        pairs = sample_pairs([1, 2, 3], 100, seed=2)
        assert len(pairs) == 6

    def test_needs_two_ases(self):
        with pytest.raises(ValueError):
            sample_pairs([1], 5, seed=0)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_magnitude(self):
        assert "+2.00 orders" in format_magnitude(100.0)
        with pytest.raises(ValueError):
            format_magnitude(0.0)

    def test_format_cdf_series(self):
        series = {"x": EmpiricalCDF.from_values([1, 2, 3])}
        lines = format_cdf_series(series).splitlines()
        assert lines[0].split()[0] == "series" and "p50" in lines[0]
        assert lines[-1].split()[0] == "x"
