"""Tests for Gao-Rexford preference and export rules."""

from repro.bgp import NeighborKind, Route, may_export


def route(path, kind=NeighborKind.CUSTOMER, neighbor=99, prefix=1):
    return Route(prefix=prefix, as_path=tuple(path), neighbor=neighbor,
                 learned_from=kind)


class TestPreference:
    """``Route.preference_key``: the speaker installs the candidate with
    the smallest key."""

    def test_customer_beats_peer_beats_provider(self):
        customer = route([5, 4, 3, 2], NeighborKind.CUSTOMER)
        peer = route([5, 4], NeighborKind.PEER)
        provider = route([5], NeighborKind.PROVIDER)
        assert (
            customer.preference_key()
            < peer.preference_key()
            < provider.preference_key()
        )

    def test_shorter_path_within_same_class(self):
        short = route([5, 4], NeighborKind.PEER, neighbor=7)
        long = route([5, 4, 3], NeighborKind.PEER, neighbor=8)
        assert short.preference_key() < long.preference_key()

    def test_deterministic_neighbor_tiebreak(self):
        a = route([5, 4], NeighborKind.PEER, neighbor=7)
        b = route([5, 9], NeighborKind.PEER, neighbor=8)
        assert a.preference_key() < b.preference_key()

    def test_self_originated_wins(self):
        own = Route(prefix=1, as_path=(1,), neighbor=None)
        learned = route([1, 2], NeighborKind.CUSTOMER)
        assert own.preference_key() < learned.preference_key()


class TestExport:
    def test_customer_routes_exported_everywhere(self):
        r = route([5], NeighborKind.CUSTOMER)
        assert may_export(r, NeighborKind.CUSTOMER)
        assert may_export(r, NeighborKind.PEER)
        assert may_export(r, NeighborKind.PROVIDER)

    def test_peer_routes_only_to_customers(self):
        r = route([5], NeighborKind.PEER)
        assert may_export(r, NeighborKind.CUSTOMER)
        assert not may_export(r, NeighborKind.PEER)
        assert not may_export(r, NeighborKind.PROVIDER)

    def test_provider_routes_only_to_customers(self):
        r = route([5], NeighborKind.PROVIDER)
        assert may_export(r, NeighborKind.CUSTOMER)
        assert not may_export(r, NeighborKind.PEER)
        assert not may_export(r, NeighborKind.PROVIDER)

    def test_own_prefixes_exported_everywhere(self):
        own = Route(prefix=1, as_path=(1,), neighbor=None)
        for kind in NeighborKind:
            assert may_export(own, kind)
