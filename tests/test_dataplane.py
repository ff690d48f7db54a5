"""Tests for hop fields, packets, border routers, and delivery."""

import dataclasses
import hashlib
import random
import struct

import pytest

from repro.dataplane import (
    BorderRouter,
    ForwardingError,
    ForwardingPath,
    HostAddress,
    MAC_BYTES,
    RouterTable,
    ScionPacket,
    ZERO_MAC,
    build_forwarding_path,
    compute_mac,
    deliver,
    forwarding_key,
    make_hop_field,
)
from repro.topology import Relationship, Topology


@pytest.fixture()
def line():
    """1 - 2 - 3 core line."""
    topo = Topology("line")
    for asn in (1, 2, 3):
        topo.add_as(asn, isd=1, is_core=True)
    topo.add_link(1, 2, Relationship.CORE)
    topo.add_link(2, 3, Relationship.CORE)
    return topo


def path_along(topo, asns, *, timestamp=0.0, expiry=3600.0):
    """The forwarding path over the first link between consecutive ASes."""
    links = [
        topo.links_between(a, b)[0].link_id for a, b in zip(asns, asns[1:])
    ]
    return build_forwarding_path(
        topo, asns, links, timestamp=timestamp, expiry=expiry
    )


def path_1_to_3(topo, timestamp=0.0, expiry=3600.0):
    return path_along(topo, [1, 2, 3], timestamp=timestamp, expiry=expiry)


def packet_1_to_3(topo, **kwargs):
    return ScionPacket(
        source=HostAddress(1, 1),
        destination=HostAddress(1, 3),
        path=path_1_to_3(topo, **kwargs),
        payload_bytes=100,
    )


class TestHopFields:
    def test_mac_is_deterministic(self):
        key = forwarding_key(1)
        a = compute_mac(key, 0.0, 1, 2, 100.0, b"\x00" * MAC_BYTES)
        b = compute_mac(key, 0.0, 1, 2, 100.0, b"\x00" * MAC_BYTES)
        assert a == b
        assert len(a) == MAC_BYTES

    def test_mac_depends_on_every_field(self):
        key = forwarding_key(1)
        base = compute_mac(key, 0.0, 1, 2, 100.0, b"\x00" * MAC_BYTES)
        assert base != compute_mac(key, 1.0, 1, 2, 100.0, b"\x00" * MAC_BYTES)
        assert base != compute_mac(key, 0.0, 9, 2, 100.0, b"\x00" * MAC_BYTES)
        assert base != compute_mac(key, 0.0, 1, 9, 100.0, b"\x00" * MAC_BYTES)
        assert base != compute_mac(key, 0.0, 1, 2, 900.0, b"\x00" * MAC_BYTES)
        assert base != compute_mac(key, 0.0, 1, 2, 100.0, b"\x01" * MAC_BYTES)

    def test_verify_round_trip(self):
        hop = make_hop_field(1, 5, 6, timestamp=0.0, expiry=100.0)
        assert hop.verify(0.0, b"\x00" * MAC_BYTES)
        assert not hop.verify(1.0, b"\x00" * MAC_BYTES)

    def test_keys_differ_per_as(self):
        assert forwarding_key(1) != forwarding_key(2)

    def test_key_depends_on_the_secret(self):
        assert forwarding_key(1) == forwarding_key(1, b"repro-forwarding")
        assert forwarding_key(1) != forwarding_key(1, b"another-secret")

    @pytest.mark.parametrize(
        "timestamp, expiry",
        [(0.0, 100.0), (1.25, 1.75), (1e9 + 0.1, 1e9 + 0.2)],
    )
    @pytest.mark.parametrize(
        "ingress, egress", [(0, 0), (0, 2**32 - 1), (2**32 - 1, 7)]
    )
    @pytest.mark.parametrize(
        "prev_mac", [ZERO_MAC, b"", b"\x01\x02\x03", b"|" * 9]
    )
    def test_mac_payload_is_the_joined_form(
        self, timestamp, expiry, ingress, egress, prev_mac
    ):
        """The one-pack payload is byte for byte the five parts joined by
        ``|`` that every committed MAC was computed over."""
        joined = b"|".join(
            (
                struct.pack(">d", timestamp),
                ingress.to_bytes(4, "big"),
                egress.to_bytes(4, "big"),
                struct.pack(">d", expiry),
                prev_mac,
            )
        )
        key = forwarding_key(5)
        assert compute_mac(
            key, timestamp, ingress, egress, expiry, prev_mac
        ) == hashlib.blake2b(joined, key=key, digest_size=MAC_BYTES).digest()


class TestForwardingPath:
    def test_build_sets_interfaces(self, line):
        path = path_1_to_3(line)
        first, middle, last = path.hop_fields
        assert first.ingress_ifid == 0
        assert last.egress_ifid == 0
        assert middle.ingress_ifid != 0
        assert middle.egress_ifid != 0

    def test_cursor_advances(self, line):
        path = path_1_to_3(line)
        assert path.current.asn == 1
        assert path.advanced().current.asn == 2
        assert path.advanced().advanced().advanced().at_destination

    def test_header_size_linear(self, line):
        path = path_1_to_3(line)
        assert path.header_bytes() == 8 + 12 * 3

    def test_misaligned_links_rejected(self, line):
        with pytest.raises(ValueError):
            build_forwarding_path(line, [1, 2], [], timestamp=0.0, expiry=1.0)


class TestBorderRouter:
    def test_forwards_along_the_line(self, line):
        packet = packet_1_to_3(line)
        assert deliver(line, packet, now=1.0) == [1, 2, 3]

    def test_rejects_expired_hop_field(self, line):
        packet = packet_1_to_3(line, expiry=10.0)
        with pytest.raises(ForwardingError, match="expired"):
            deliver(line, packet, now=100.0)

    def test_rejects_tampered_path(self, line):
        """Altering a hop field (different egress) breaks the MAC."""
        packet = packet_1_to_3(line)
        hops = list(packet.path.hop_fields)
        tampered = make_hop_field(
            hops[1].asn,
            hops[1].ingress_ifid,
            99,
            timestamp=packet.path.timestamp,
            expiry=hops[1].expiry,
            prev_mac=packet.path.hop_fields[0].mac,
            key=b"wrong-key-0123456",
        )
        hops[1] = tampered
        bad = packet.with_path(
            ForwardingPath(
                timestamp=packet.path.timestamp, hop_fields=tuple(hops)
            )
        )
        with pytest.raises(ForwardingError, match="MAC"):
            deliver(line, bad, now=1.0)

    def test_rejects_spliced_hop_field(self, line):
        """A valid hop field moved to a different position fails chaining."""
        packet = packet_1_to_3(line)
        hops = list(packet.path.hop_fields)
        # Recompute hop 2's MAC with a zero prev-mac (as if it were first).
        spliced = make_hop_field(
            hops[1].asn,
            hops[1].ingress_ifid,
            hops[1].egress_ifid,
            timestamp=packet.path.timestamp,
            expiry=hops[1].expiry,
        )
        hops[1] = spliced
        bad = packet.with_path(
            ForwardingPath(
                timestamp=packet.path.timestamp, hop_fields=tuple(hops)
            )
        )
        with pytest.raises(ForwardingError, match="MAC"):
            deliver(line, bad, now=1.0)

    def test_rejects_wrong_as(self, line):
        packet = packet_1_to_3(line)
        router = BorderRouter(2, line)
        with pytest.raises(ForwardingError, match="hop field is for"):
            router.forward(packet, now=1.0)

    def test_rejects_mismatched_destination(self, line):
        path = path_1_to_3(line)
        packet = ScionPacket(
            source=HostAddress(1, 1),
            destination=HostAddress(1, 9),  # path ends at 3, not 9
            path=path,
        )
        with pytest.raises(ForwardingError, match="addressed"):
            deliver(line, packet, now=1.0)

    def test_packet_sizes(self, line):
        packet = packet_1_to_3(line)
        assert packet.header_bytes() == 24 + 8 + (8 + 12 * 3)
        assert packet.wire_bytes() == packet.header_bytes() + 100


class TestRouterTable:
    def test_matches_transient_delivery(self, line):
        table = RouterTable(line)
        packet = packet_1_to_3(line)
        final, traversed = table.deliver_packet(packet, now=1.0)
        assert traversed == deliver(line, packet, now=1.0) == [1, 2, 3]
        assert final.path.at_destination

    def test_memoizes_routers(self, line):
        table = RouterTable(line)
        assert table.router(1) is table.router(1)
        assert len(table) == 1
        table.deliver_packet(packet_1_to_3(line), now=1.0)
        assert len(table) == 3

    def test_deliver_accepts_shared_table(self, line):
        table = RouterTable(line)
        packet = packet_1_to_3(line)
        assert deliver(line, packet, now=1.0, routers=table) == [1, 2, 3]
        assert len(table) == 3

    def test_rejects_foreign_topology(self, line):
        other = Topology("other")
        for asn in (1, 2, 3):
            other.add_as(asn, isd=1, is_core=True)
        other.add_link(1, 2, Relationship.CORE)
        other.add_link(2, 3, Relationship.CORE)
        with pytest.raises(ValueError, match="topology"):
            deliver(line, packet_1_to_3(line), now=1.0, routers=RouterTable(other))

    def test_still_verifies_macs(self, line):
        table = RouterTable(line)
        packet = packet_1_to_3(line, expiry=10.0)
        with pytest.raises(ForwardingError, match="expired"):
            table.deliver_packet(packet, now=100.0)


# --------------------------------------------------------------------------
# The cursor walk against its specification: BorderRouter.forward, chained.


def forward_step_by_step(topology, packet, *, now):
    """``deliver_packet`` as it is specified: one ``BorderRouter.forward``
    per hop, each on the packet the previous router handed over."""
    path = packet.path
    if not path.at_destination and path.current.asn != packet.source.asn:
        raise ForwardingError("path does not start at the packet source")
    traversed = []
    current = packet.source.asn
    while True:
        traversed.append(current)
        packet, next_asn = BorderRouter(current, topology).forward(
            packet, now=now
        )
        if next_asn is None:
            return packet, traversed
        current = next_asn


def outcome(deliver, *args, **kwargs):
    """What ``deliver`` returns, or the text of the ForwardingError."""
    try:
        return deliver(*args, **kwargs)
    except ForwardingError as error:
        return str(error)


def random_tree(rng, size, *, line):
    topo = Topology("line" if line else "tree")
    parent = {}
    for asn in range(1, size + 1):
        topo.add_as(asn, isd=1, is_core=True)
        if asn > 1:
            parent[asn] = asn - 1 if line else rng.randint(1, asn - 1)
            topo.add_link(parent[asn], asn, Relationship.CORE)
    return topo, parent


def packet_along(topo, asns, *, timestamp, expiry, payload_bytes=0):
    return ScionPacket(
        source=HostAddress(1, asns[0]),
        destination=HostAddress(1, asns[-1]),
        path=path_along(topo, asns, timestamp=timestamp, expiry=expiry),
        payload_bytes=payload_bytes,
    )


def tree_route(rng, size, parent):
    """The AS sequence between two distinct random nodes of the tree."""

    def to_root(asn):
        chain = [asn]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
        return chain

    src, dst = rng.sample(range(1, size + 1), 2)
    up, down = to_root(src), to_root(dst)
    meet = next(asn for asn in up if asn in down)
    return up[: up.index(meet) + 1] + down[: down.index(meet)][::-1]


def rechained(path, index, *, key=None, prev_mac=None, **changes):
    """``path`` with hop ``index`` rebuilt with ``changes`` and a fresh MAC,
    and every later hop re-MACed over it, so that only the check the change
    aims at can fail."""
    hops = list(path.hop_fields)
    for at in range(index, len(hops)):
        hop = dataclasses.replace(hops[at], **(changes if at == index else {}))
        before = hops[at - 1].mac if at else ZERO_MAC
        hops[at] = make_hop_field(
            hop.asn,
            hop.ingress_ifid,
            hop.egress_ifid,
            timestamp=path.timestamp,
            expiry=hop.expiry,
            prev_mac=prev_mac if at == index and prev_mac is not None else before,
            key=key if at == index else None,
        )
    return ForwardingPath(path.timestamp, tuple(hops), path.cursor)


def tamper_cases(rng, topo, packet):
    """(name, packet, expected error text or None) per tamper class; every
    case is delivered at ``now=1.0``."""
    path = packet.path
    hops = path.hop_fields
    last = len(hops) - 1
    at = rng.randint(0, last)
    mid = rng.randint(1, last)
    flipped = bytearray(hops[at].mac)
    flipped[rng.randrange(MAC_BYTES)] ^= 1 << rng.randrange(8)
    swapped = list(hops)
    swapped[at] = dataclasses.replace(hops[at], mac=bytes(flipped))
    stranger = max(topo.asns()) + 1
    back_door = next(iter(topo.as_node(hops[last].asn).interfaces))
    return [
        ("untouched", packet, None),
        (
            "flipped MAC byte",
            packet.with_path(ForwardingPath(path.timestamp, tuple(swapped))),
            "MAC verification",
        ),
        (
            "spliced hop",
            packet.with_path(rechained(path, mid, prev_mac=ZERO_MAC)),
            "MAC verification",
        ),
        (
            "wrong key",
            packet.with_path(rechained(path, at, key=b"not-the-as-key")),
            "MAC verification",
        ),
        (
            "expired hop",
            packet.with_path(rechained(path, at, expiry=0.5)),
            f"hop field of AS {hops[at].asn} expired",
        ),
        (
            "wrong source",
            dataclasses.replace(packet, source=HostAddress(1, stranger)),
            "does not start at the packet source",
        ),
        (
            "wrong destination",
            dataclasses.replace(packet, destination=HostAddress(1, stranger)),
            f"addressed to AS {stranger}",
        ),
        (
            "unknown egress interface",
            packet.with_path(rechained(path, at, egress_ifid=2**16)),
            f"AS {hops[at].asn} has no interface {2**16}",
        ),
        (
            "terminal hop with an egress",
            packet.with_path(rechained(path, last, egress_ifid=back_door)),
            "path already consumed",
        ),
        (
            "hop of another AS",
            packet.with_path(rechained(path, mid, asn=stranger)),
            f"hop field is for AS {stranger}",
        ),
        (
            "cursor mid, source unchanged",
            packet.with_path(path.at(mid)),
            "does not start at the packet source",
        ),
        (
            "cursor mid, sent from there",
            dataclasses.replace(
                packet,
                source=HostAddress(1, hops[mid].asn),
                path=path.at(mid),
            ),
            None,
        ),
        (
            "cursor at end",
            packet.with_path(path.at(last + 1)),
            "path already consumed",
        ),
    ]


class TestWalkMatchesStepByStep:
    @pytest.mark.parametrize("shape", ["line", "tree"])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_packet_same_trace_same_error(self, seed, shape):
        rng = random.Random(f"walk:{seed}:{shape}")
        size = rng.randint(3, 9)
        topo, parent = random_tree(rng, size, line=shape == "line")
        asns = tree_route(rng, size, parent)
        packet = packet_along(
            topo,
            asns,
            timestamp=0.25,
            expiry=3600.5,
            payload_bytes=rng.randrange(1500),
        )
        table = RouterTable(topo)
        for name, case, error in tamper_cases(rng, topo, packet):
            walked = outcome(table.deliver_packet, case, now=1.0)
            stepped = outcome(forward_step_by_step, topo, case, now=1.0)
            assert walked == stepped, name
            if error is None:
                final, traversed = walked
                start = case.path.cursor
                assert traversed == asns[start:], name
                assert final == case.with_path(case.path.at(len(asns))), name
            else:
                assert isinstance(walked, str) and error in walked, (name, walked)

    def test_early_terminal_hop_leaves_the_rest_unvisited(self, line):
        """An egress-0 hop mid-path ends the walk there: the cursor stops
        behind it and later hop fields are never checked."""
        path = path_1_to_3(line)
        cut = rechained(path, 1, egress_ifid=0)
        hops = list(cut.hop_fields)
        hops[2] = dataclasses.replace(hops[2], mac=b"garbage")
        packet = ScionPacket(
            source=HostAddress(1, 1),
            destination=HostAddress(1, 2),
            path=ForwardingPath(cut.timestamp, tuple(hops)),
        )
        walked = RouterTable(line).deliver_packet(packet, now=1.0)
        assert walked == forward_step_by_step(line, packet, now=1.0)
        assert walked[0].path.cursor == 2 and walked[1] == [1, 2]


class TestWalkAllocations:
    @pytest.mark.parametrize("hops", [2, 3, 6, 12])
    def test_one_path_object_per_packet(self, hops, monkeypatch):
        """The walk builds the consumed path once, however long the path:
        a return to per-hop rebuilding fails here, not only in a benchmark."""
        topo, _ = random_tree(random.Random(0), hops, line=True)
        asns = list(range(1, hops + 1))
        packet = packet_along(topo, asns, timestamp=0.0, expiry=10.0)
        table = RouterTable(topo)
        built = []
        post_init = ForwardingPath.__post_init__

        def counting(self):
            built.append(self.cursor)
            post_init(self)

        monkeypatch.setattr(ForwardingPath, "__post_init__", counting)
        final, traversed = table.deliver_packet(packet, now=1.0)
        assert built == [hops]
        assert traversed == asns and final.path.at_destination
