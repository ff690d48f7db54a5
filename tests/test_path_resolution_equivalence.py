"""Compute-once path resolution returns what the literal computation does.

``ScionNetwork.lookup_paths`` memoises the combination of the segments a
lookup ends with, promotes up-segments once per stored beacon, and
``combine_segments`` joins through indexes. The references here are the
literal forms those replaced: a frozen copy of the nested-loop combinator
(``reference_combine``), a lookup assembled from freshly promoted segments
read straight off the servers (``reference_lookup``), and a twin network
whose memos are emptied before every call.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.control import PathSegment, ScionNetwork, SegmentType
from repro.control.revocation import REVOCATION_LIFETIME
from repro.core import PCB
from repro.dataplane.combinator import EndToEndPath, combine_segments
from repro.simulation import BeaconingConfig, BeaconingMode
from repro.topology import Relationship, Topology
from tests.recording_log import RecordingLog

FAST = dict(
    interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)
TOPOLOGY_SEEDS = (1, 2, 3)


# ------------------------------------------------------------- references


def _join(*parts):
    asns, links = [], []
    for part_asns, part_links in parts:
        if not part_asns:
            return None
        if asns:
            if asns[-1] != part_asns[0]:
                return None
            asns.extend(part_asns[1:])
        else:
            asns.extend(part_asns)
        links.extend(part_links)
    return tuple(asns), tuple(links)


def _emit(results, seen, joined, expires_at, *, is_shortcut=False,
          uses_peering=False):
    if joined is None:
        return
    asns, link_ids = joined
    if len(asns) != len(set(asns)):
        return
    key = (asns, link_ids)
    if key in seen:
        return
    seen.add(key)
    results.append(
        EndToEndPath(
            asns=asns, link_ids=link_ids, expires_at=expires_at,
            is_shortcut=is_shortcut, uses_peering=uses_peering,
        )
    )


def reference_combine(up_segments, core_segments, down_segments, *,
                      topology=None, now=0.0):
    """The nested-loop ``combine_segments`` as it stood before the indexed
    join — frozen here, not to be edited along with the product code."""
    ups = [s for s in up_segments if s.is_valid(now)]
    cores = [s for s in core_segments if s.is_valid(now)]
    downs = [s for s in down_segments if s.is_valid(now)]
    for segment, expected in (
        *((s, SegmentType.UP) for s in ups),
        *((s, SegmentType.CORE) for s in cores),
        *((s, SegmentType.DOWN) for s in downs),
    ):
        if segment.segment_type is not expected:
            raise ValueError(
                f"segment {segment.key()} used as {expected.value}"
            )

    results, seen = [], set()

    def expiry(*segments):
        return min(s.expires_at for s in segments)

    up_options = list(ups) if up_segments else [None]
    down_options = list(downs) if down_segments else [None]
    for core in cores:
        for up in up_options:
            if up is not None and up.last_asn != core.first_asn:
                continue
            for down in down_options:
                if down is not None and down.first_asn != core.last_asn:
                    continue
                parts, segs = [], []
                if up is not None:
                    parts.append((up.asns, up.link_ids))
                    segs.append(up)
                parts.append((core.asns, core.link_ids))
                segs.append(core)
                if down is not None:
                    parts.append((down.asns, down.link_ids))
                    segs.append(down)
                _emit(results, seen, _join(*parts), expiry(*segs))

    for up in ups:
        for down in downs:
            if up.last_asn == down.first_asn:
                _emit(
                    results, seen,
                    _join((up.asns, up.link_ids), (down.asns, down.link_ids)),
                    expiry(up, down),
                )

    for up in ups:
        for down in downs:
            common = set(up.asns[:-1]) & set(down.asns[1:])
            for crossover in common:
                i = up.asns.index(crossover)
                j = down.asns.index(crossover)
                _emit(
                    results, seen,
                    _join(
                        (up.asns[: i + 1], up.link_ids[:i]),
                        (down.asns[j:], down.link_ids[j:]),
                    ),
                    expiry(up, down),
                    is_shortcut=True,
                )

    if topology is not None:
        for up in ups:
            for down in downs:
                for i, up_asn in enumerate(up.asns[:-1]):
                    for j, down_asn in enumerate(down.asns[1:], start=1):
                        if up_asn == down_asn:
                            continue
                        for link in topology.links_between(up_asn, down_asn):
                            if link.relationship is not Relationship.PEER_PEER:
                                continue
                            _emit(
                                results, seen,
                                _join(
                                    (up.asns[: i + 1], up.link_ids[:i]),
                                    ((up_asn, down_asn), (link.link_id,)),
                                    (down.asns[j:], down.link_ids[j:]),
                                ),
                                expiry(up, down),
                                is_shortcut=True,
                                uses_peering=True,
                            )

    results.sort(key=lambda path: (path.num_links, path.asns, path.link_ids))
    return results


def reference_lookup(network, src, dst, when):
    """``lookup_paths`` without its caches, memos or accounting: segments
    promoted afresh from the beacon stores and read straight off the core
    path servers, the literal combination, then the single-segment cases."""
    topology = network.topology
    src_node, dst_node = topology.as_node(src), topology.as_node(dst)
    ups = []
    sim = network.intra_sims.get(src_node.isd)
    if sim is not None and not src_node.is_core:
        for origin in sim.originator_asns():
            for pcb in sim.paths_at(src, origin):
                segment = PathSegment.from_pcb(pcb, SegmentType.UP)
                if segment.is_valid(when):
                    ups.append(segment)
    src_cores = {src} if src_node.is_core else {s.core_asn for s in ups}
    downs = []
    if not dst_node.is_core:
        for server in network.core_servers.values():
            if server.isd == dst_node.isd:
                downs = server.down_segments(dst, when)
                if downs:
                    break
    dst_cores = {dst} if dst_node.is_core else {s.first_asn for s in downs}
    cores = []
    for cu in sorted(src_cores):
        for cd in sorted(dst_cores):
            if cu != cd and cu in network.core_servers:
                cores.extend(network.core_servers[cu].core_segments(cd, when))
    paths = reference_combine(ups, cores, downs, topology=topology, now=when)
    for segment in [u for u in ups if u.last_asn == dst] + [
        d for d in downs if d.first_asn == src
    ]:
        paths.append(
            EndToEndPath(
                asns=segment.asns, link_ids=segment.link_ids,
                expires_at=segment.expires_at,
            )
        )
    unique = {}
    for path in paths:
        if path.source == src and path.destination == dst:
            unique.setdefault((path.asns, path.link_ids), path)
    return sorted(
        unique.values(), key=lambda p: (p.num_links, p.asns, p.link_ids)
    )


def fields(paths):
    return [dataclasses.astuple(path) for path in paths]


# ------------------------------------------------------------- topologies


def tiny_topology(seed):
    """Two ISDs of two cores, five leaves each in multi-homed customer
    trees, with parallel core, parallel access and leaf peering links."""
    rng = random.Random(seed)
    topo = Topology(name=f"tiny-{seed}")
    isd_cores = {1: (1, 2), 2: (3, 4)}
    for isd, cores in isd_cores.items():
        for asn in cores:
            topo.add_as(asn, isd=isd, is_core=True)
    for a, b in itertools.combinations((1, 2, 3, 4), 2):
        for n in range(rng.choice((1, 1, 2))):
            topo.add_link(a, b, Relationship.CORE, location=f"x{n}")
    leaves = []
    next_asn = 10
    for isd, cores in isd_cores.items():
        parents = list(cores)
        for _ in range(5):
            topo.add_as(next_asn, isd=isd)
            for parent in rng.sample(parents, rng.choice((1, 2))):
                for n in range(rng.choice((1, 1, 2))):
                    topo.add_link(
                        parent, next_asn, Relationship.PROVIDER_CUSTOMER,
                        location=f"a{n}",
                    )
            parents.append(next_asn)
            leaves.append(next_asn)
            next_asn += 1
    for n in range(5):
        a, b = rng.sample(leaves, 2)
        if not topo.links_between(a, b):
            for m in range(rng.choice((1, 2))):
                topo.add_link(a, b, Relationship.PEER_PEER, location=f"p{m}")
    topo.validate()
    return topo


def run_network(topology):
    """A run network whose log also records every message."""
    network = ScionNetwork(
        topology,
        core_config=BeaconingConfig(mode=BeaconingMode.CORE, **FAST),
        intra_config=BeaconingConfig(mode=BeaconingMode.INTRA_ISD, **FAST),
    )
    network.log = RecordingLog()
    return network.run()


@pytest.fixture(scope="module", params=TOPOLOGY_SEEDS)
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def network(seed):
    return run_network(tiny_topology(seed))


def ordered_pairs(network):
    asns = sorted(network.topology.asns())
    return [(a, b) for a in asns for b in asns if a != b]


def pairs_by_kind(network):
    """One ordered pair of every endpoint kind, each with a path: leaf to
    leaf within and across ISDs, leaf to core likewise, core to leaf, core
    to core."""
    node = network.topology.as_node
    chosen = {}
    for src, dst in ordered_pairs(network):
        kind = (
            node(src).is_core, node(dst).is_core, node(src).isd == node(dst).isd
        )
        if kind not in chosen and network.lookup_paths(src, dst):
            chosen[kind] = (src, dst)
    assert len(chosen) == 8
    return chosen


def flush_segment_caches(network):
    """The endpoints' reaction to a revocation: refetch everything (what
    ``TrafficEngine`` does when its fault plan recovers a link)."""
    for server in network.local_servers.values():
        server.down_cache.clear()
        server.core_cache.clear()
    for server in network.core_servers.values():
        server.remote_cache.clear()


def forget(network):
    """Empty the network's resolution memos (white box)."""
    network._resolved.clear()
    network._up_memo.clear()


# ------------------------------------------------------------------ tests


def test_repeated_lookups_equal_the_literal_combination(network):
    """(a) Leaf and core endpoints, three consecutive calls each."""
    kinds = set()
    for src, dst in ordered_pairs(network):
        expected = fields(reference_lookup(network, src, dst, network.now))
        for _ in range(3):
            assert fields(network.lookup_paths(src, dst)) == expected
        kinds.update(
            (p.is_shortcut, p.uses_peering)
            for p in network.lookup_paths(src, dst)
        )
    # The topologies exercise every provenance the combinator emits.
    assert kinds == {(False, False), (True, False), (True, True)}


def test_lookup_chain_accounting_is_not_memoised(seed):
    """(b) Message log and segment-cache counters match a twin that
    resolves every lookup from scratch."""
    network = run_network(tiny_topology(seed))
    twin = run_network(tiny_topology(seed))
    pairs = ordered_pairs(network)[::3]
    for _ in range(3):
        for src, dst in pairs:
            forget(twin)
            assert fields(network.lookup_paths(src, dst)) == fields(
                twin.lookup_paths(src, dst)
            )
    assert network.cache_counters() == twin.cache_counters()
    assert network.log.messages == twin.log.messages


def test_each_segment_list_keys_the_memo(seed):
    """A change to the core, the down or the up segments alone — the other
    two lists unchanged — is a different resolution."""
    network = run_network(tiny_topology(seed))
    kinds = pairs_by_kind(network)

    def lookup_both(src, dst):
        found = fields(network.lookup_paths(src, dst))
        assert found == fields(
            reference_lookup(network, src, dst, network.now)
        )
        return found

    # Core segments only: a core link of a cross-ISD leaf pair fails.
    src, dst = kinds[(False, False, False)]
    before = lookup_both(src, dst)
    core_link = next(
        link_id
        for path in network.lookup_paths(src, dst)
        for link_id in path.link_ids
        if network.topology.link(link_id).relationship is Relationship.CORE
    )
    network.fail_link(core_link)
    flush_segment_caches(network)
    assert lookup_both(src, dst) != before
    network.recover_link(core_link)
    flush_segment_caches(network)
    assert lookup_both(src, dst) == before

    # Down segments only: the last link towards the destination fails.
    before = lookup_both(src, dst)
    access_link = network.lookup_paths(src, dst)[0].link_ids[-1]
    network.fail_link(access_link)
    flush_segment_caches(network)
    assert lookup_both(src, dst) != before
    network.recover_link(access_link)
    flush_segment_caches(network)
    assert lookup_both(src, dst) == before

    # Up segments only: a leaf homed at one core reaches it over its
    # up-segments alone (no core, no down segment); the clock passes the
    # earliest one's expiry.
    src, dst = next(
        (leaf, min(homes))
        for leaf in sorted(network.topology.non_core_asns())
        for homes in [{s.core_asn for s in network.up_segments(leaf)}]
        if len(homes) == 1
    )
    before = lookup_both(src, dst)
    assert before
    network.now = min(s.expires_at for s in network.up_segments(src))
    assert lookup_both(src, dst) != before


def test_up_segments_follow_the_beacon_store(seed):
    """Promotion is once per stored beacon, not once per network: a newer
    instance of a beacon is promoted when the store first returns it."""
    network = run_network(tiny_topology(seed))
    src, dst = pairs_by_kind(network)[(False, True, True)]
    before = network.up_segments(src)
    assert network.up_segments(src) == before
    sim = network.intra_sims[network.topology.as_node(src).isd]
    old = sim.paths_at(src, sim.originator_asns()[0])[0]
    newer = PCB(old.origin, old.issued_at + 60.0, old.lifetime, old.hops)
    assert sim.servers[src].store.insert(newer, now=sim.now)
    after = network.up_segments(src)
    assert newer.expires_at in {s.expires_at for s in after}
    assert newer.expires_at not in {s.expires_at for s in before}
    assert fields(network.lookup_paths(src, dst)) == fields(
        reference_lookup(network, src, dst, network.now)
    )


def test_returned_lists_are_the_callers(network):
    """(d) Results and ``up_segments()`` are fresh lists."""
    src, dst = next(
        (a, b) for a, b in ordered_pairs(network)
        if network.up_segments(a) and network.lookup_paths(a, b)
    )
    first = network.lookup_paths(src, dst)
    expected = fields(first)
    first.clear()
    again = network.lookup_paths(src, dst)
    assert fields(again) == expected
    again.reverse()
    again.append(None)
    assert fields(network.lookup_paths(src, dst)) == expected

    ups = network.up_segments(src)
    kept = list(ups)
    ups.clear()
    assert network.up_segments(src) == kept
    assert fields(network.lookup_paths(src, dst)) == expected


def test_memo_is_bounded_per_source(network, monkeypatch):
    from repro.control.path_server import SegmentCache

    monkeypatch.setattr(SegmentCache, "MAX_ENTRIES", 3)
    forget(network)
    pairs = ordered_pairs(network)
    for src, dst in pairs + pairs[::-1]:
        expected = fields(reference_lookup(network, src, dst, network.now))
        assert fields(network.lookup_paths(src, dst)) == expected
    assert max(len(memo) for memo in network._resolved.values()) == 3


def test_copies_start_without_memos(network):
    import copy
    import pickle

    src, dst = ordered_pairs(network)[0]
    network.lookup_paths(src, dst)
    assert network._resolved
    for clone in (copy.deepcopy(network), pickle.loads(pickle.dumps(network))):
        assert clone._resolved == {} and clone._up_memo == {}
        assert fields(clone.lookup_paths(src, dst)) == fields(
            network.lookup_paths(src, dst)
        )


# --------------------------------------------------------- state machine


class ResolutionUnderChurn(RuleBasedStateMachine):
    """(c) Lookups interleaved with failures, recoveries, re-registration
    and the clock passing segment expiries. The twin receives every
    operation and forgets its memos before every lookup."""

    @initialize(seed=st.sampled_from(TOPOLOGY_SEEDS))
    def build(self, seed):
        self.network = run_network(tiny_topology(seed))
        self.twin = run_network(tiny_topology(seed))
        # Few pairs, so that a pair is looked up again after a change.
        self.pairs = sorted(pairs_by_kind(self.network).values())
        pairs_by_kind(self.twin)  # the same lookups, for the accounting
        self.links = sorted(
            link.link_id for link in self.network.topology.links()
        )
        self.seen_links = []  # links of the paths returned last
        self.failed = {}  # link id -> when its revocation was issued

    def both(self):
        return (self.network, self.twin)

    def flush_segment_caches(self):
        for net in self.both():
            flush_segment_caches(net)

    @rule(index=st.integers(0, 10_000))
    def lookup(self, index):
        src, dst = self.pairs[index % len(self.pairs)]
        forget(self.twin)
        found = self.network.lookup_paths(src, dst)
        assert fields(found) == fields(self.twin.lookup_paths(src, dst))
        self.seen_links = sorted({l for p in found for l in p.link_ids})
        now = self.network.now
        held = self.held_segment_links()
        for path in found:
            assert path.source == src and path.destination == dst
            assert path.is_loop_free()
            assert path.expires_at > now
            # Every link is one a current segment of the servers (or of
            # the source's own beacon store) crosses, or a peering link.
            assert set(path.link_ids) <= held | self.own_links(src)
        revoked = {
            link_id
            for link_id, issued_at in self.failed.items()
            if issued_at <= now < issued_at + REVOCATION_LIFETIME
        }
        forget(self.twin)
        usable = self.network.usable_paths(src, dst)
        assert fields(usable) == fields(self.twin.usable_paths(src, dst))
        assert fields(usable) == fields(
            [p for p in found if not revoked & set(p.link_ids)]
        )

    def held_segment_links(self):
        now = self.network.now
        links = {
            link.link_id
            for link in self.network.topology.links()
            if link.relationship is Relationship.PEER_PEER
        }
        for server in self.network.core_servers.values():
            for bucket in (server._down, server._core):
                for segments in bucket.values():
                    for segment in segments.values():
                        if segment.is_valid(now):
                            links.update(segment.link_ids)
        return links

    def own_links(self, src):
        return {
            link_id
            for segment in self.network.up_segments(src)
            for link_id in segment.link_ids
        }

    @rule(index=st.integers(0, 10_000))
    def fail_link(self, index):
        links = self.seen_links or self.links
        link_id = links[index % len(links)]
        for net in self.both():
            net.fail_link(link_id)
        self.failed[link_id] = self.network.now
        self.flush_segment_caches()

    @rule()
    def recover_link(self):
        if not self.failed:
            return
        link_id = min(self.failed)
        for net in self.both():
            net.recover_link(link_id)
        del self.failed[link_id]
        self.flush_segment_caches()

    @rule()
    def refresh_registrations(self):
        for net in self.both():
            net.refresh_registrations()

    @rule()
    def pass_earliest_expiry(self):
        now = self.network.now
        expiries = [
            segment.expires_at
            for server in self.network.core_servers.values()
            for bucket in (server._down, server._core)
            for segments in bucket.values()
            for segment in segments.values()
            if segment.expires_at > now
        ]
        if not expiries:
            return
        for net in self.both():
            net.now = min(expiries) + 1.0

    @invariant()
    def accounting_matches(self):
        assert self.network.cache_counters() == self.twin.cache_counters()
        assert len(self.network.log) == len(self.twin.log)

    def teardown(self):
        if hasattr(self, "network"):
            assert self.network.log.messages == self.twin.log.messages


ResolutionUnderChurn.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
test_resolution_under_churn = ResolutionUnderChurn.TestCase


# ------------------------------------------------- combinator equivalence


def random_segments(rng):
    """A topology and segment lists with parallel links, peering links and
    non-core ASes shared between up- and down-segments."""
    topo = Topology()
    cores = [1, 2, 3]
    leaves = list(range(10, 18))
    for asn in cores:
        topo.add_as(asn, isd=1, is_core=True)
    for asn in leaves:
        topo.add_as(asn, isd=1)
    for a, b in itertools.combinations(cores, 2):
        for _ in range(rng.choice((1, 2))):
            topo.add_link(a, b, Relationship.CORE)
    for index, leaf in enumerate(leaves):
        parents = cores + leaves[:index]
        for parent in rng.sample(parents, min(len(parents), rng.choice((1, 2, 3)))):
            for _ in range(rng.choice((1, 1, 2))):
                topo.add_link(parent, leaf, Relationship.PROVIDER_CUSTOMER)
    for _ in range(6):
        a, b = rng.sample(leaves, 2)
        if not topo.links_between(a, b):
            for _ in range(rng.choice((1, 2))):
                topo.add_link(a, b, Relationship.PEER_PEER)

    def walk_down(start, length):
        asns, links = [start], []
        while len(asns) < length:
            options = [
                link
                for link in topo.as_node(asns[-1]).links()
                if link.is_provider(asns[-1]) and link.b.asn not in asns
            ]
            if not options:
                break
            link = rng.choice(options)
            asns.append(link.b.asn)
            links.append(link.link_id)
        return tuple(asns), tuple(links)

    def lifetime():
        issued = rng.choice((0.0, 50.0))
        return issued, issued + rng.choice((40.0, 100.0, 200.0, 300.0))

    def down():
        asns, links = walk_down(rng.choice(cores), rng.randint(1, 5))
        return PathSegment(SegmentType.DOWN, asns, links, *lifetime())

    def core():
        a, b = rng.sample(cores, 2)
        link = rng.choice(topo.links_between(a, b))
        return PathSegment(
            SegmentType.CORE, (a, b), (link.link_id,), *lifetime()
        )

    ups = [down().reversed() for _ in range(rng.randint(0, 6))]
    core_segments = [core() for _ in range(rng.randint(0, 5))]
    downs = [down() for _ in range(rng.randint(0, 6))]
    return topo, ups, core_segments, downs


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), now=st.sampled_from((60.0, 120.0, 260.0)))
def test_indexed_combination_equals_the_nested_loops(seed, now):
    """(e) Same paths, same order, same provenance and expiry."""
    topo, ups, cores, downs = random_segments(random.Random(seed))
    for topology in (topo, None):
        assert fields(
            combine_segments(ups, cores, downs, topology=topology, now=now)
        ) == fields(
            reference_combine(ups, cores, downs, topology=topology, now=now)
        )



def test_emission_order_on_inputs_beaconing_never_produces():
    """Where the join order could show: a path reachable at two crossovers
    through different down-segments keeps the expiry of the first
    down-segment, and a crossover is an AS's first occurrence only."""
    def segment(kind, asns, links, expires):
        return PathSegment(kind, tuple(asns), tuple(links), 0.0, expires)

    up = segment(SegmentType.UP, (10, 11, 1), (100, 101), 1000.0)
    early = segment(SegmentType.DOWN, (1, 11, 20), (201, 300), 500.0)
    late = segment(SegmentType.DOWN, (1, 10, 11, 20), (202, 100, 300), 900.0)
    looped = segment(
        SegmentType.DOWN, (1, 11, 12, 11, 20), (201, 400, 400, 300), 700.0
    )
    for downs in ([early, late], [late, early], [looped], [looped, late]):
        assert fields(combine_segments([up], [], downs, now=1.0)) == fields(
            reference_combine([up], [], downs, now=1.0)
        )
    (shortcut,) = [
        p for p in combine_segments([up], [], [early, late], now=1.0)
        if p.asns == (10, 11, 20)
    ]
    assert shortcut.expires_at == 500.0
