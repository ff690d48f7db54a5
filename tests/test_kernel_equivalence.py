"""Cross-backend byte-equivalence of full runs (repro.kernels.equivalence).

The acceptance bar of the kernel refactor: a full control-plane +
data-plane run whose traffic engine computes through the numpy backend
must be byte-identical (pickled results, metrics snapshots, scrubbed
traces) to the pure-Python reference. These tests run the harness end to end at TEST
scale; with only one backend installed they degrade to a smoke test of
the harness itself.
"""

import pytest

from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.kernels import available_backends, numpy_available
from repro.kernels.equivalence import (
    EquivalenceReport,
    assert_equivalent,
    compare_traffic,
)
from repro.traffic.engine import TrafficConfig, TrafficFaultPlan
from repro.traffic.flows import FlowConfig
from repro.traffic.worker import select_legacy_asns

multi_backend = pytest.mark.skipif(
    len(available_backends()) < 2,
    reason="needs the numpy extra to compare against the reference",
)

FLOWS = FlowConfig(flows_per_tick=8, num_ticks=6, seed=13)


@pytest.fixture(scope="module")
def topology():
    return build_full_stack_topology(TEST_SCALE, leaves_per_core=2)


class TestTrafficEquivalence:
    @multi_backend
    def test_fault_free_run_is_byte_identical(self, topology):
        report = compare_traffic(
            topology,
            flow_config=FLOWS,
            traffic_config=TrafficConfig(link_capacity_bps=4e6),
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
        )
        assert "numpy" in report.backends
        assert report.identical, report.render()

    @multi_backend
    def test_faulted_legacy_run_is_byte_identical(self, topology):
        """The hard case: mid-run link failure (re-lookups, SCMP, loss)
        plus SIG-fronted legacy endpoints, still bit-for-bit equal."""
        endpoints = sorted(topology.non_core_asns())
        report = compare_traffic(
            topology,
            flow_config=FLOWS,
            traffic_config=TrafficConfig(link_capacity_bps=4e6),
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
            legacy_asns=select_legacy_asns(endpoints, 0.25),
            fault_plan=TrafficFaultPlan(fail_tick=2, recover_tick=4),
        )
        assert report.identical, report.render()


class TestHarness:
    def test_single_backend_report_is_identical(self, topology):
        report = compare_traffic(
            topology,
            flow_config=FLOWS,
            traffic_config=TrafficConfig(link_capacity_bps=4e6),
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
            backends=("python",),
        )
        assert report.identical
        assert "byte-identical" in report.render()

    def test_assert_equivalent_raises_on_divergence(self):
        broken = EquivalenceReport(
            subject="traffic",
            backends=("python", "numpy"),
            mismatches={"numpy": ("results", "telemetry")},
        )
        clean = EquivalenceReport(subject="beaconing", backends=("python",))
        with pytest.raises(AssertionError, match="numpy diverges on"):
            assert_equivalent([clean, broken])
        assert_equivalent([clean])

    def test_numpy_available_matches_registry(self):
        assert ("numpy" in available_backends()) == numpy_available()
