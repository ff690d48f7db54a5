"""Tests for overhead aggregation and Figure-5 style comparisons."""

import pytest

from repro.analysis import (
    SECONDS_PER_MONTH,
    OverheadComparison,
    scale_to_month,
)
from repro.core import PCB, Transmission
from repro.simulation import TrafficMetrics
from repro.topology import Relationship, Topology


class TestScaleToMonth:
    def test_six_hour_window(self):
        # 6 hours fit 120 times into a 30-day month.
        assert scale_to_month(100.0, 6 * 3600.0) == pytest.approx(12000.0)

    def test_full_month_unchanged(self):
        assert scale_to_month(42.0, SECONDS_PER_MONTH) == pytest.approx(42.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            scale_to_month(1.0, 0.0)


class TestReceivedBytes:
    def test_aggregates_per_receiver(self):
        topo = Topology()
        topo.add_as(1, is_core=True)
        topo.add_as(2, is_core=True)
        link = topo.add_link(1, 2, Relationship.CORE)
        metrics = TrafficMetrics()
        pcb = PCB.originate(1, 0.0, 100.0).extend(link.link_id, 2)
        transmission = Transmission(pcb=pcb, link=link, sender=1, receiver=2)
        metrics.record(transmission)
        metrics.record(transmission)
        assert metrics.bytes_received_by(1) == 0
        assert metrics.bytes_received_by(2) == 2 * transmission.wire_size


class TestOverheadComparison:
    def comparison(self):
        return OverheadComparison(
            monthly_bytes={
                "bgp": {1: 100.0, 2: 200.0, 3: 0.0},
                "bgpsec": {1: 1000.0, 2: 4000.0, 3: 10.0},
                "scion": {1: 10.0, 2: 10.0},
            }
        )

    def test_relative_ratios(self):
        comp = self.comparison()
        rel = comp.relative("bgpsec")
        assert rel[1] == pytest.approx(10.0)
        assert rel[2] == pytest.approx(20.0)

    def test_zero_reference_monitors_skipped(self):
        comp = self.comparison()
        assert 3 not in comp.relative("bgpsec")

    def test_missing_monitor_counts_as_zero(self):
        comp = self.comparison()
        rel = comp.relative("scion")
        assert rel[1] == pytest.approx(0.1)
        assert rel[2] == pytest.approx(0.05)

    def test_relative_cdf_and_median(self):
        comp = self.comparison()
        cdf = comp.relative_cdf("bgpsec")
        assert len(cdf) == 2
        assert comp.median_relative("bgpsec") == pytest.approx(10.0)

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            self.comparison().relative("ospf")

    def test_reference_relative_to_itself_is_one(self):
        comp = self.comparison()
        rel = comp.relative("bgp")
        assert all(v == pytest.approx(1.0) for v in rel.values())
