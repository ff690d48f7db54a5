"""The suppression lemma behind Algorithm 1's cross-interval skip.

``DiversityAlgorithm`` remembers, per [origin AS, neighbour group], the
stored beacons ``_best`` turned down and leaves them out of later heaps
unscored. That is exact only while nothing can have raised their score.
The property test checks the monotonicity the rule rests on (as computed,
``pow`` included); the negative tests each build a table, a store and
sent records by hand, first prove the beacon *was* being skipped, then
fire one of the events that must re-admit it. Each fails when its
invalidation is taken out of ``core/diversity.py``.
"""

import pickle

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    BeaconStore,
    DiversityAlgorithm,
    LinkHistoryTable,
    PCB,
    SentRecord,
)
from repro.topology import Relationship, Topology
from repro.topology.model import Link, LinkEnd

ASN, NEIGHBOR, ORIGIN = 1, 2, 9
LIFETIME = 21600.0
PATH_LINK, EGRESS, PARALLEL = 10, 20, 21


def topology() -> Topology:
    """Origin 9 -(10)- AS 1 =(20, 21)= AS 2."""
    t = Topology()
    for asn in (ORIGIN, ASN, NEIGHBOR):
        t.add_as(asn, is_core=True)
    t.add_link(ORIGIN, ASN, Relationship.CORE, link_id=PATH_LINK)
    t.add_link(ASN, NEIGHBOR, Relationship.CORE, link_id=EGRESS)
    t.add_link(ASN, NEIGHBOR, Relationship.CORE, link_id=PARALLEL)
    return t


def beacon(issued_at: float = 0.0) -> PCB:
    return PCB.originate(ORIGIN, issued_at, LIFETIME).extend(PATH_LINK, ASN)


def sent(algo, path_links, egress, *, issued_at, ds, expires_at=None):
    """File a sent record by hand and count its links, as ``_commit`` does."""
    counted = tuple(path_links) + (egress,)
    if expires_at is None:
        expires_at = issued_at + LIFETIME
    algo.history.table(ORIGIN, NEIGHBOR).increment(counted)
    algo.sent.add(
        SentRecord(
            path_key=(ORIGIN, tuple(path_links)),
            egress_link_id=egress,
            diversity_score=ds,
            expires_at=expires_at,
            neighbor=NEIGHBOR,
        )
    )


class Bench:
    """One beacon server (AS 1) holding one beacon from AS 9, and ``others``
    other paths over links 10 and 20 already sent to AS 2: with five of
    them both counters reach ``MAX_ACCEPTABLE_GM`` and the beacon's only
    candidate, over link 20, has diversity score 0."""

    def __init__(self, others: int = 5, others_expire_at: float = LIFETIME):
        self.topology = topology()
        self.algo = DiversityAlgorithm(ASN, self.topology)
        self.store = BeaconStore()
        self.pcb = beacon()
        self.store.insert(self.pcb, now=0.0)
        for other in range(others):
            sent(
                self.algo, (PATH_LINK, 30 + other), EGRESS,
                issued_at=0.0, ds=0.5, expires_at=others_expire_at,
            )
        self.links = [self.topology.link(EGRESS)]
        self.both = self.topology.links_between(ASN, NEIGHBOR)

    def step(self, now, links=None):
        """One ``select``: (candidates skipped, egress links sent on)."""
        before = self.algo.skipped
        out = self.algo.select(self.store, links or self.links, now)
        return self.algo.skipped - before, [t.link.link_id for t in out]


def test_a_turned_down_beacon_is_skipped_in_later_intervals():
    bench = Bench()
    assert bench.step(600.0) == (0, [])
    assert bench.algo._suppressed[(ORIGIN, NEIGHBOR)][1] == {
        bench.pcb.path_key(): bench.pcb
    }
    for now in (1200.0, 1800.0, 21000.0):
        assert bench.step(now) == (1, [])


def test_a_released_counter_readmits():
    """(i) The five other records expire at 1500: counters 10 and 20
    drop to 0 and the beacon is fully novel again."""
    bench = Bench(others_expire_at=1500.0)
    table = bench.algo.history.table(ORIGIN, NEIGHBOR)
    assert bench.step(600.0) == (0, [])
    assert bench.step(1200.0) == (1, [])
    assert table.releases == 0
    assert bench.step(1800.0) == (0, [EGRESS])
    assert table.releases == 5


def test_a_revocation_readmits():
    """(i) again, by ``on_link_revoked``: the record crossing link 30 is
    purged and one count on links 10 and 20 is released."""
    bench = Bench()
    assert bench.step(600.0) == (0, [])
    assert bench.step(1200.0) == (1, [])
    bench.algo.on_link_revoked(30)
    assert bench.step(1800.0) == (0, [EGRESS])


def test_a_recovered_parallel_link_with_counter_zero_readmits():
    """(ii) Link 21 comes back: its counter is 0, the candidate over it
    has geometric mean 0 and diversity score 1."""
    bench = Bench()
    assert bench.step(600.0) == (0, [])
    assert bench.step(1200.0) == (1, [])
    assert bench.step(1800.0, bench.both) == (0, [PARALLEL])
    # A link going away is a change as well (nothing to send, but scored).
    assert bench.step(2400.0) == (0, [])
    assert bench.step(3000.0) == (1, [])


def test_a_newer_instance_is_scored_and_never_remembered_before_its_resend():
    """(iii) The stored instance was sent (a record of itself: Eq. 3's
    ratio is exactly 1, the score constant) and is skipped; the newer
    instance that replaces it holds a record of an *older* instance, its
    score rises with time, and it goes out once Eq. 3 crosses."""
    bench = Bench(others=0)
    sent(bench.algo, bench.pcb.link_ids(), EGRESS, issued_at=0.0, ds=0.5)
    assert bench.step(600.0) == (0, [])
    assert bench.step(1200.0) == (1, [])
    assert bench.store.insert(beacon(1200.0), now=1200.0)
    # A different object: scored, turned down, and not remembered ...
    assert bench.step(1800.0) == (0, [])
    assert bench.step(2400.0) == (0, [])
    assert bench.algo._suppressed == {}
    # ... so with a minute of the sent instance left it is re-sent.
    assert bench.step(LIFETIME - 60.0) == (0, [EGRESS])
    (record,) = bench.algo.sent.records()
    assert record.expires_at == 1200.0 + LIFETIME
    # Now the record is of the stored instance: remembered from here on.
    assert bench.step(LIFETIME + 540.0) == (0, [])
    assert bench.step(LIFETIME + 1140.0) == (1, [])


def test_a_clock_that_steps_back_readmits():
    """Ages shrink, Eq. 2's exponent with them, and the score rises:
    counters 4 and 4 make a diversity score of 0.2, under the threshold
    only once the beacon has aged."""
    bench = Bench(others=4)
    assert bench.step(6000.0) == (0, [])
    assert bench.step(6600.0) == (1, [])
    assert bench.step(600.0) == (0, [EGRESS])


def test_groups_on_one_table_remember_apart():
    """The per-interface ablation puts links 20 and 21 in two groups on
    one Link History Table; what one turned down says nothing about the
    other, whose egress counter is 0."""
    bench = Bench()
    bench.algo.per_interface_limit = True
    assert bench.step(600.0, bench.both) == (0, [PARALLEL])
    assert set(bench.algo._suppressed) == {(ORIGIN, EGRESS)}
    # Sent over 21 by the other group: a record of the stored instance,
    # no bar to staying out of group 20's heap.
    assert bench.step(1200.0, bench.both) == (1, [])


def test_remembered_state_is_not_pickled():
    bench = Bench()
    cold = pickle.dumps(bench.algo)
    bench.step(600.0)
    bench.step(1200.0)
    assert bench.algo._suppressed and bench.algo.skipped == 1
    warm = pickle.dumps(bench.algo)
    assert len(warm) == len(cold)
    clone = pickle.loads(warm)
    assert clone._suppressed == {} and clone.skipped == 0
    assert clone.history.table(ORIGIN, NEIGHBOR).releases == 0
    store = pickle.loads(pickle.dumps(bench.store))
    assert clone.select(store, bench.links, 1800.0) == []
    assert bench.step(1800.0) == (1, [])


def test_the_set_follows_the_store():
    """Rebuilt from the beacons offered: an evicted or expired beacon's
    entry goes with it, and a pair offered nothing is dropped."""
    bench = Bench()
    bench.step(600.0)
    assert bench.algo._suppressed
    assert bench.store.clear() == 1
    bench.step(1200.0)
    assert bench.algo._suppressed == {}


# ------------------------------------------------------------ the lemma

PATH_LINK_IDS = range(1, 9)
EGRESS_LINK_IDS = range(20, 32)
NOW = 18000.0
COUNTS = st.sampled_from([0, 1, 2, 3, 4, 4, 5, 6, 8])


@st.composite
def turned_down(draw):
    path_links = draw(
        st.lists(st.sampled_from(PATH_LINK_IDS), max_size=5, unique=True)
    )
    egress = draw(
        st.lists(
            st.sampled_from(EGRESS_LINK_IDS), min_size=1, max_size=12, unique=True
        )
    )
    # Zero counters and counters past ``MAX_ACCEPTABLE_GM`` (5); a floor
    # above 0 in most cases, because one never-used link makes a
    # candidate fully novel and nothing is turned down.
    floor = draw(st.sampled_from([0, 1, 3, 3, 4]))
    counters = {
        link_id: max(floor, draw(COUNTS)) for link_id in [*path_links, *egress]
    }
    age = draw(st.sampled_from([600.0, 5400.0, 10800.0, 16200.0]))
    # Per egress link: never sent, or a record of the stored instance.
    records = {
        link_id: draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.9999]))
        for link_id in egress
        if draw(st.sampled_from([False, False, True]))
    }
    links = st.sampled_from([*PATH_LINK_IDS, *EGRESS_LINK_IDS])
    increments = draw(
        st.lists(st.lists(links, min_size=1, max_size=6, unique=True), max_size=8)
    )
    later = draw(st.floats(min_value=0.0, max_value=0.999))
    return path_links, egress, counters, age, records, increments, later


@settings(max_examples=400, deadline=None)
@given(turned_down())
def test_what_stays_out_is_still_turned_down_after_any_increments(case):
    """(a) ``_best`` is None and ``_stays_out`` holds: after any sequence
    of ``increment``s and at any later ``now`` inside the beacon's
    lifetime ``_best`` is still None."""
    path_links, egress, counters, age, records, increments, later = case
    algo = DiversityAlgorithm(ASN, topology())
    table = LinkHistoryTable()
    for link_id, count in counters.items():
        for _ in range(count):
            table.increment((link_id,))
    pcb = PCB.originate(ORIGIN, NOW - age, LIFETIME)
    for hop, link_id in enumerate(path_links):
        pcb = pcb.extend(link_id, ASN if hop == len(path_links) - 1 else 100 + hop)
    links = [
        Link(link_id, LinkEnd(ASN, link_id), LinkEnd(NEIGHBOR, link_id), Relationship.CORE)
        for link_id in egress
    ]
    for link_id, ds in records.items():
        algo.sent.add(
            SentRecord(
                path_key=pcb.path_key(),
                egress_link_id=link_id,
                diversity_score=ds,
                expires_at=pcb.expires_at,
                neighbor=NEIGHBOR,
            )
        )

    def best(now):
        return algo._best(
            pcb,
            algo._egress_order(links, table),
            {},
            algo.sent.paths(ORIGIN, NEIGHBOR),
            table,
            now,
        )

    assume(best(NOW) is None)
    assert algo._stays_out(pcb, NEIGHBOR)
    for row in increments:
        table.increment(row)
        assert best(NOW) is None
    now = NOW + later * (pcb.expires_at - NOW)
    assert now < pcb.expires_at
    assert best(now) is None


def test_a_record_of_another_instance_does_not_stay_out():
    algo = DiversityAlgorithm(ASN, topology())
    new = beacon(1200.0)
    assert algo._stays_out(new, NEIGHBOR)
    sent(algo, new.link_ids(), EGRESS, issued_at=1200.0, ds=0.5)
    assert algo._stays_out(new, NEIGHBOR)
    sent(algo, new.link_ids(), PARALLEL, issued_at=0.0, ds=0.5)
    assert not algo._stays_out(new, NEIGHBOR)
