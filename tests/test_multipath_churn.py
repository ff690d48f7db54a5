"""Tests for the long-horizon churn driver (repro.multipath.churn)."""

import pickle

import pytest

from repro.control.network import ScionNetwork
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.multipath.churn import (
    DEMAND_PACKETS,
    MIN_LIFETIME_INTERVALS,
    ROW_FIELDS,
    ChurnConfig,
    ChurnDriver,
)


@pytest.fixture(scope="module")
def topology():
    return build_full_stack_topology(TEST_SCALE, leaves_per_core=2)


def make_network(topology):
    return ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=TEST_SCALE.core_beaconing_config(5),
        intra_config=TEST_SCALE.intra_isd_config(5),
    ).run()


CONFIG = ChurnConfig(num_intervals=60, num_pairs=4, seed=7)


@pytest.fixture(scope="module")
def result(topology):
    return ChurnDriver(make_network(topology), CONFIG, name="t").run()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(num_intervals=0)
        with pytest.raises(ValueError):
            ChurnConfig(k_paths=0)
        with pytest.raises(ValueError, match="unknown multipath strategy"):
            ChurnConfig(strategy="hottest-potato")


class TestChurnDriver:
    def test_row_shape_and_counts(self, result):
        # One row per (interval, pair, candidate path).
        per_pair_paths = {}
        for path_id, (src, dst, *_rest) in result.paths.items():
            per_pair_paths[(src, dst)] = per_pair_paths.get((src, dst), 0) + 1
        expected = CONFIG.num_intervals * sum(per_pair_paths.values())
        assert len(result.rows) == expected
        assert all(len(row) == len(ROW_FIELDS) for row in result.rows)

    def test_accounting_reconciles(self, result):
        assert result.reconciles()
        assert (
            result.packets_offered
            == CONFIG.num_intervals * len(result.pairs) * DEMAND_PACKETS
        )
        # Row-level delivery sums to the aggregate too.
        delivered = sum(row[7] for row in result.rows)
        assert delivered == result.packets_delivered

    def test_churn_actually_happens(self, result):
        assert result.beacon_expiries > 0
        assert result.switch_events > 0
        assert result.faults_injected > 0
        assert result.path_lifetimes
        assert all(
            lifetime >= MIN_LIFETIME_INTERVALS
            for lifetime in result.path_lifetimes
        )
        assert 0.0 < result.mean_availability() < 1.0

    def test_forwarding_is_real(self, result):
        # Every delivered packet crossed >= 2 MAC-verified hops.
        assert result.macs_verified >= 2 * result.packets_delivered > 0

    def test_deterministic_rerun(self, topology, result):
        again = ChurnDriver(make_network(topology), CONFIG, name="t").run()
        assert pickle.dumps(again) == pickle.dumps(result)

    def test_backends_byte_identical(self, topology, result):
        from repro.kernels import available_backends

        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        numpy_run = ChurnDriver(
            make_network(topology),
            CONFIG,
            name="t",
            backend="numpy",
        ).run()
        assert pickle.dumps(numpy_run) == pickle.dumps(result)

    def test_multipath_beats_single_path_baseline(self, topology, result):
        """The paper's multipath dividend under identical churn: demand
        exceeds one path's fair-share bottleneck, so a k-way split must
        deliver strictly more than the single-path baseline."""
        baseline = ChurnDriver(
            make_network(topology),
            ChurnConfig(
                num_intervals=60,
                num_pairs=4,
                seed=7,
                strategy="single",
                k_paths=1,
            ),
            name="t",
        ).run()
        assert (
            result.aggregate_goodput_bps() > baseline.aggregate_goodput_bps()
        )

    def test_selected_rows_only_on_available_paths(self, result):
        fields = {name: i for i, name in enumerate(ROW_FIELDS)}
        for row in result.rows:
            if row[fields["selected"]]:
                assert row[fields["available"]] == 1
            if not row[fields["selected"]]:
                assert row[fields["offered_packets"]] == 0

    def test_goodput_shares_normalized(self, result):
        shares = result.goodput_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)
