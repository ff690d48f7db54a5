"""Tests for hop fields, packets, border routers, and delivery."""

import dataclasses
import hashlib
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.dataplane.hopfield import (
    FORWARDING_SECRET,
    HopField,
    keyed_mac,
    keyed_state,
    pack_covered,
    pack_timestamp,
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
        key = forwarding_key(1)
        assert compute_mac(key, 0.0, 5, 6, 100.0, ZERO_MAC) == hop.mac
        assert compute_mac(key, 1.0, 5, 6, 100.0, ZERO_MAC) != hop.mac

    def test_keys_differ_per_as(self):
        assert forwarding_key(1) != forwarding_key(2)

    def test_key_depends_on_the_secret(self):
        assert forwarding_key(1) == hashlib.blake2b(
            (1).to_bytes(8, "big"), key=FORWARDING_SECRET, digest_size=16
        ).digest()

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
        joined = joined_payload(timestamp, ingress, egress, expiry, prev_mac)
        key = forwarding_key(5)
        assert compute_mac(
            key, timestamp, ingress, egress, expiry, prev_mac
        ) == hashlib.blake2b(joined, key=key, digest_size=MAC_BYTES).digest()


def joined_payload(timestamp, ingress, egress, expiry, prev_mac):
    return b"|".join(
        (
            struct.pack(">d", timestamp),
            ingress.to_bytes(4, "big"),
            egress.to_bytes(4, "big"),
            struct.pack(">d", expiry),
            prev_mac,
        )
    )


# -0.0 equals 0.0 but packs apart: interned bytes must still tell them apart.
_seconds = st.one_of(
    st.just(-0.0), st.floats(min_value=0.0, max_value=4e9, allow_nan=False)
)
_ifids = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
_prev_macs = st.sampled_from([0, 3, 6, 9]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


class TestPreKeyedMac:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=64), min_size=2, max_size=2,
            unique=True,
        ),
        calls=st.lists(
            st.tuples(
                st.sampled_from([0, 1]), _seconds, _ifids, _ifids, _seconds,
                _prev_macs,
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_equals_a_freshly_keyed_blake2b(self, keys, calls):
        """Copying a keyed state gives the bytes of keying a new hasher,
        whatever the key's earlier MACs: two keys interleaved share no
        state, and no MAC leaves anything behind in the state it copied.
        ``keyed_mac``, the one definition the routers and the numpy
        backend verify through, gives those bytes over what a packet
        carries — its path's packed timestamp, the hop field's covered
        bytes, the previous MAC — from the shared state and from a state
        keyed afresh, and ``compute_mac`` is it."""
        for which, timestamp, ingress, egress, expiry, prev_mac in calls:
            key = keys[which]
            payload = joined_payload(timestamp, ingress, egress, expiry, prev_mac)
            literal = hashlib.blake2b(payload, key=key, digest_size=6).digest()
            hop = HopField(5, ingress, egress, expiry, literal)
            path = ForwardingPath(timestamp, (hop,))
            carried = (path.packed_timestamp, hop.covered, prev_mac)
            assert b"".join(carried) == payload
            assert keyed_mac(keyed_state(key), *carried) == literal
            assert keyed_mac(
                hashlib.blake2b(key=key, digest_size=6), *carried
            ) == literal
            assert compute_mac(
                key, timestamp, ingress, egress, expiry, prev_mac
            ) == literal

    @settings(max_examples=100, deadline=None)
    @given(
        fields=st.tuples(_ifids, _ifids, _seconds),
        changes=st.dictionaries(
            st.sampled_from(["ingress_ifid", "egress_ifid", "expiry"]),
            st.one_of(_ifids, _seconds),
            min_size=1,
        ),
    )
    def test_replace_rederives_and_pickle_keeps_the_bytes(self, fields, changes):
        """A hop field built any way — constructed, ``dataclasses.replace``d
        or unpickled — carries exactly the bytes its fields pack to, and
        a path its timestamp's: never the bytes of the hop it came from."""
        ingress, egress, expiry = fields
        hop = HopField(7, ingress, egress, expiry, ZERO_MAC)
        try:
            changed = dataclasses.replace(hop, **changes)
            expected = pack_covered(
                changed.ingress_ifid, changed.egress_ifid, changed.expiry
            )
        except struct.error:  # a float interface id: no hop field packs
            return
        assert changed.covered == expected
        assert changed.covered == joined_payload(
            0.0, changed.ingress_ifid, changed.egress_ifid, changed.expiry,
            b"",
        )[8:]
        path = ForwardingPath(expiry, (hop, changed), 1)
        for record in (hop, changed, path):
            loaded = pickle.loads(pickle.dumps(record))
            assert loaded == record
        loaded = pickle.loads(pickle.dumps(path))
        assert loaded.packed_timestamp == pack_timestamp(expiry)
        assert [h.covered for h in loaded.hop_fields] == [
            hop.covered, expected
        ]


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

    def test_expires_at_the_expiry_instant(self, line):
        """``process`` drops a hop field from ``now == expiry`` on and
        passes it just before."""
        path = path_1_to_3(line, expiry=10.0)
        hop, timestamp = path.hop_fields[0], path.packed_timestamp
        router = BorderRouter(1, line)
        assert router.process(hop, timestamp, ZERO_MAC, 3, 9.999) == 2
        with pytest.raises(ForwardingError, match="hop field of AS 1 expired"):
            router.process(hop, timestamp, ZERO_MAC, 3, 10.0)

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
        traversed = table.deliver_packet(packet, now=1.0)
        final, stepped = forward_step_by_step(line, packet, now=1.0)
        assert traversed == stepped == deliver(line, packet, now=1.0)
        assert traversed == [1, 2, 3]
        assert final.path.cursor == packet.path.cursor + len(traversed)
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

    @pytest.mark.parametrize(
        "edit",
        ["on-path link", "transit AS", "source AS", "re-added transit AS"],
    )
    def test_follows_the_live_topology(self, edit):
        """Routers hold their AS's interface table, not a copy of it: after
        an edit the table that has forwarded gives exactly what a fresh
        table gives — the trajectory, or the error's type and text."""
        topo, _ = random_tree(random.Random(0), 4, line=True)
        packet = packet_along(topo, [1, 2, 3, 4], timestamp=0.0, expiry=10.0)
        table = RouterTable(topo)
        assert table.deliver_packet(packet, now=1.0) == [1, 2, 3, 4]
        if edit == "on-path link":
            topo.remove_link(topo.links_between(2, 3)[0].link_id)
        elif edit == "transit AS":
            topo.remove_as(3)
        elif edit == "source AS":
            topo.remove_as(1)
        else:
            topo.remove_as(2)
            topo.add_as(2, isd=1, is_core=True)
            topo.add_link(1, 2, Relationship.CORE)
            topo.add_link(2, 3, Relationship.CORE)
            # AS 2's router holds the removed node's emptied table.
            packet = packet_along(topo, [1, 2, 3, 4], timestamp=0.0, expiry=10.0)
        shared = verdict(table.deliver_packet, packet, now=1.0)
        assert shared == verdict(deliver, topo, packet, now=1.0)
        assert shared == {
            "on-path link": ("ForwardingError", "AS 2 has no interface 2"),
            "transit AS": ("ForwardingError", "AS 2 has no interface 2"),
            "source AS": ("ForwardingError", "AS 1 is not in the topology"),
            "re-added transit AS": [1, 2, 3, 4],
        }[edit]


def verdict(walk, *args, **kwargs):
    """What ``walk`` returns, or the type name and text of what it raises."""
    try:
        return walk(*args, **kwargs)
    except Exception as error:
        return type(error).__name__, str(error)


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


def assert_walk_is_the_chain(packet, walked, stepped, name=""):
    """The walk returns the chain's trajectory (or its error text), and
    the chain's packet ends with the cursor advanced by that many hops."""
    if isinstance(stepped, str):
        assert walked == stepped, name
        return
    final, traversed = stepped
    assert walked == traversed, name
    assert final.path.cursor == packet.path.cursor + len(walked), name


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
            # Every tampered hop carries the bytes of its own fields.
            assert case.path.packed_timestamp == pack_timestamp(0.25)
            for hop in case.path.hop_fields:
                assert hop.covered == pack_covered(
                    hop.ingress_ifid, hop.egress_ifid, hop.expiry
                ), name
            walked = outcome(table.deliver_packet, case, now=1.0)
            stepped = outcome(forward_step_by_step, topo, case, now=1.0)
            assert_walk_is_the_chain(case, walked, stepped, name)
            if error is None:
                start = case.path.cursor
                assert walked == asns[start:], name
                assert stepped[0] == case.with_path(case.path.at(len(asns)))
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
        stepped = forward_step_by_step(line, packet, now=1.0)
        assert_walk_is_the_chain(packet, walked, stepped)
        assert walked == [1, 2] and stepped[0].path.cursor == 2


class TestWalkAllocations:
    @pytest.mark.parametrize("hops", [2, 3, 6, 12])
    def test_builds_no_path_or_packet(self, hops, monkeypatch):
        """The walk reads the packet and builds nothing from it, however
        long the path: a return to building a consumed path or packet per
        hop, or per packet, fails here, not only in a benchmark."""
        topo, _ = random_tree(random.Random(0), hops, line=True)
        asns = list(range(1, hops + 1))
        packet = packet_along(topo, asns, timestamp=0.0, expiry=10.0)
        table = RouterTable(topo)
        built = []
        post_init = ForwardingPath.__post_init__
        packet_init = ScionPacket.__init__

        def counting_path(self):
            built.append("path")
            post_init(self)

        def counting_packet(self, *args, **kwargs):
            built.append("packet")
            packet_init(self, *args, **kwargs)

        monkeypatch.setattr(ForwardingPath, "__post_init__", counting_path)
        monkeypatch.setattr(ScionPacket, "__init__", counting_packet)
        traversed = table.deliver_packet(packet, now=1.0)
        assert built == []
        assert traversed == asns
        # The counters do count: the chained specification builds both.
        forward_step_by_step(topo, packet, now=1.0)
        assert built.count("path") == built.count("packet") == hops
