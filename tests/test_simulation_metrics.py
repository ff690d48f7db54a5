"""Unit tests for beaconing traffic metrics."""

import pytest

from repro.core import PCB, Transmission
from repro.simulation import InterfaceStats, TrafficMetrics
from repro.topology import Relationship, Topology


@pytest.fixture()
def wire():
    topo = Topology()
    topo.add_as(1, is_core=True)
    topo.add_as(2, is_core=True)
    link = topo.add_link(1, 2, Relationship.CORE)
    pcb = PCB.originate(1, 0.0, 100.0).extend(link.link_id, 2)
    return topo, link, Transmission(pcb=pcb, link=link, sender=1, receiver=2)


class TestInterfaceStats:
    def test_accumulates(self):
        stats = InterfaceStats()
        stats.add(100)
        stats.add(50)
        assert stats.pcbs == 2
        assert stats.bytes == 150


class TestTrafficMetrics:
    def test_records_per_direction(self, wire):
        topo, link, transmission = wire
        reverse = Transmission(
            pcb=PCB.originate(2, 0.0, 100.0).extend(link.link_id, 1),
            link=link,
            sender=2,
            receiver=1,
        )
        metrics = TrafficMetrics()
        metrics.record([transmission, transmission, reverse])
        forward = metrics.interface_stats(link.link_id, 1)
        backward = metrics.interface_stats(link.link_id, 2)
        assert forward.pcbs == 2
        assert backward.pcbs == 1
        assert metrics.total_pcbs == 3

    def test_received_accounting(self, wire):
        _, _, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        assert metrics.bytes_received_by(2) == transmission.wire_size
        assert metrics.pcbs_received_by(2) == 1
        assert metrics.bytes_received_by(1) == 0

    def test_unknown_interface_is_empty(self):
        metrics = TrafficMetrics()
        assert metrics.interface_stats(99, 1).pcbs == 0

    def test_per_interface_bandwidth(self, wire):
        _, link, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        bandwidths = metrics.per_interface_bandwidth(10.0)
        assert bandwidths == [transmission.wire_size / 10.0]
        with pytest.raises(ValueError):
            metrics.per_interface_bandwidth(0.0)

    def test_mean_pcb_size(self, wire):
        _, _, transmission = wire
        metrics = TrafficMetrics()
        assert metrics.mean_pcb_size() == 0.0
        metrics.record([transmission])
        assert metrics.mean_pcb_size() == transmission.wire_size


class TestTransmissionWireSize:
    def test_receiver_hop_not_signed(self, wire):
        """On the wire the beacon carries signed entries for the sender-side
        ASes only; the receiver's hop data lives in the sender's egress
        fields."""
        _, _, transmission = wire
        from repro.core import PCB_HEADER_BYTES, PCB_HOP_FIXED_BYTES, SIGNATURE_BYTES

        expected = PCB_HEADER_BYTES + 1 * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )
        assert transmission.wire_size == expected
        # The stored (extended) beacon counts both hops.
        assert transmission.pcb.wire_size() == expected + (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )


class TestInterfaceSnapshots:
    def test_interface_stats_returns_read_only_snapshot(self, wire):
        """Regression: interface_stats() used to hand back a fresh,
        unattached InterfaceStats — callers mutating it silently lost the
        update. It now returns an immutable point-in-time snapshot."""
        _, link, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        snapshot = metrics.interface_stats(link.link_id, 1)
        with pytest.raises(Exception):
            snapshot.pcbs = 99  # type: ignore[misc]
        # The snapshot is a copy: later traffic doesn't retro-mutate it.
        metrics.record([transmission])
        assert snapshot.pcbs == 1
        assert metrics.interface_stats(link.link_id, 1).pcbs == 2

    def test_unknown_interface_snapshot_is_detached(self):
        metrics = TrafficMetrics()
        snapshot = metrics.interface_stats(99, 1)
        assert snapshot.pcbs == 0 and snapshot.bytes == 0
        # Asking for an unknown interface must not create an entry.
        assert (99, 1) not in metrics.interfaces()

    def test_interfaces_returns_snapshots(self, wire):
        _, link, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        view = metrics.interfaces()
        assert view[(link.link_id, 1)].pcbs == 1
        with pytest.raises(Exception):
            view[(link.link_id, 1)].bytes = 0  # type: ignore[misc]


class TestFullInterfaceBandwidth:
    def test_idle_interfaces_report_zero(self, wire):
        """Regression: per_interface_bandwidth() only reported interfaces
        that carried traffic, silently dropping idle ones from the Figure 9
        CDF and biasing it upward."""
        _, link, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        full_set = [(link.link_id, 1), (link.link_id, 2), (77, 3)]
        bandwidths = metrics.per_interface_bandwidth(
            10.0, interfaces=full_set
        )
        assert len(bandwidths) == 3
        assert sorted(bandwidths) == [
            0.0, 0.0, transmission.wire_size / 10.0
        ]

    def test_interface_set_is_authoritative(self, wire):
        """When a set is given, it defines the population — order and
        length follow it exactly."""
        _, link, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        assert metrics.per_interface_bandwidth(10.0, interfaces=[]) == []
        only_idle = metrics.per_interface_bandwidth(
            10.0, interfaces=[(link.link_id, 2)]
        )
        assert only_idle == [0.0]

    def test_legacy_call_reports_active_only(self, wire):
        _, _, transmission = wire
        metrics = TrafficMetrics()
        metrics.record([transmission])
        assert metrics.per_interface_bandwidth(10.0) == [
            transmission.wire_size / 10.0
        ]
