"""Tests for the Section 3 deployment models."""

import pytest

from repro.deployment import (
    ASMap,
    CarrierGradeSIG,
    ConnectivityRequirement,
    ExposedIXP,
    IPPacket,
    ScionIPGateway,
    big_switch_peering,
    compare_costs,
)
from repro.topology import Relationship, Topology


class TestLeasedLineEconomics:
    def test_paper_arithmetic(self):
        """N branches x K data centers: N*K lines vs N+K connections."""
        requirement = ConnectivityRequirement(branches=10, data_centers=3)
        assert requirement.leased_lines_needed == 30
        assert requirement.scion_connections_needed == 13

    def test_redundancy_amplifies_savings(self):
        """Leased lines need a disjoint line per pair and level; SCION
        tops out at two uplinks per site (multi-path covers the rest)."""
        plain = compare_costs(10, 3)
        redundant = compare_costs(10, 3, redundancy=3)
        assert redundant.savings_factor > plain.savings_factor
        assert redundant.requirement.leased_lines_needed == 90
        assert redundant.requirement.scion_connections_needed == 26

    def test_savings_factor(self):
        comparison = compare_costs(
            10, 3, leased_line_monthly=1000.0, scion_connection_monthly=500.0
        )
        assert comparison.leased_total == 30_000.0
        assert comparison.scion_total == 6_500.0
        assert comparison.savings_factor == pytest.approx(30_000 / 6_500)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectivityRequirement(branches=0, data_centers=1)
        with pytest.raises(ValueError):
            ConnectivityRequirement(branches=1, data_centers=1, redundancy=0)


class TestSIG:
    def make_sig(self):
        asmap = ASMap()
        asmap.add("192.0.2.0/24", isd=1, asn=64512)
        asmap.add("198.51.100.0/24", isd=2, asn=64513)
        asmap.add("192.0.2.128/25", isd=1, asn=64514)  # more specific
        return ScionIPGateway(1, 64500, asmap)

    def test_asmap_longest_prefix_match(self):
        sig = self.make_sig()
        assert sig.asmap.lookup("192.0.2.1") == (1, 64512)
        assert sig.asmap.lookup("192.0.2.200") == (1, 64514)
        assert sig.asmap.lookup("198.51.100.9") == (2, 64513)
        assert sig.asmap.lookup("203.0.113.1") is None

    def test_encapsulation_wraps_whole_ip_packet(self):
        sig = self.make_sig()
        ip_packet = IPPacket("10.0.0.1", "192.0.2.1", payload_bytes=100)
        scion = sig.encapsulate(ip_packet, forwarding_path=None)
        assert scion is not None
        assert scion.destination.asn == 64512
        assert scion.payload_bytes == ip_packet.total_bytes
        assert sig.encapsulated == 1

    def test_unmapped_destination_stays_on_legacy_internet(self):
        sig = self.make_sig()
        ip_packet = IPPacket("10.0.0.1", "203.0.113.1")
        assert sig.encapsulate(ip_packet, forwarding_path=None) is None
        assert sig.unroutable == 1

    def test_decapsulation_round_trip(self):
        sig = self.make_sig()
        remote_map = ASMap()
        remote = ScionIPGateway(1, 64512, remote_map)
        ip_packet = IPPacket("10.0.0.1", "192.0.2.1", payload_bytes=100)
        scion = sig.encapsulate(ip_packet, forwarding_path=None)
        out = remote.decapsulate(scion)
        assert out.dst_ip == "192.0.2.1"
        assert remote.decapsulated == 1

    def test_decapsulation_rejects_wrong_as(self):
        sig = self.make_sig()
        ip_packet = IPPacket("10.0.0.1", "192.0.2.1")
        scion = sig.encapsulate(ip_packet, forwarding_path=None)
        wrong = ScionIPGateway(1, 99999, ASMap())
        with pytest.raises(ValueError):
            wrong.decapsulate(scion)

    def test_cgsig_aggregates_customers(self):
        cgsig = CarrierGradeSIG(1, 64500, ASMap())
        cgsig.attach_customer("bank", "10.1.0.0/16")
        cgsig.attach_customer("office", "10.2.0.0/16")
        assert cgsig.customer_of("10.1.2.3") == "bank"
        assert cgsig.customer_of("10.9.0.1") is None


class TestIXP:
    def test_big_switch_creates_missing_bilateral_links(self):
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn)
        created = big_switch_peering(topo, [1, 2, 3], location="SwissIX")
        assert len(created) == 3
        for link_id in created:
            assert topo.link(link_id).relationship is Relationship.PEER_PEER
        # Idempotent: nothing new on a second run.
        assert big_switch_peering(topo, [1, 2, 3], location="SwissIX") == []

    def test_exposed_ixp_sites_and_backup_links(self):
        topo = Topology()
        ixp = ExposedIXP(topo, name="swissix")
        sites = ixp.add_sites(4, first_asn=65000, redundant_pairs=[(0, 2)])
        assert len(sites) == 4
        internal = ixp.internal_link_ids()
        assert len(internal) == 5  # ring of 4 + 1 backup

    def test_members_attach_to_sites(self):
        topo = Topology()
        topo.add_as(1)
        topo.add_as(2)
        ixp = ExposedIXP(topo)
        ixp.add_sites(2, first_asn=65000)
        ixp.attach_member(1, 0)
        ixp.attach_member(2, 1)
        assert len(topo.links_between(1, 65000)) == 1
        # Members reach each other across the IXP's internal topology.
        assert topo.is_connected()

    def test_exposed_ixp_validation(self):
        topo = Topology()
        ixp = ExposedIXP(topo)
        with pytest.raises(ValueError):
            ixp.add_sites(1, first_asn=65000)
        with pytest.raises(ValueError):
            ixp.attach_member(1, 0)
