"""The ordering lemma behind Algorithm 1's one-heap-entry-per-beacon.

``DiversityAlgorithm._best`` scores, of one stored beacon's candidates
over a neighbour's parallel links, only the first fresh link in
``(egress counter, link_id)`` order plus every link holding a valid sent
record. It must return *the same tuple* — priority and chosen link — as
the minimum over scoring every link, which is what ``_select_pair`` did
before; ``rank_every_link`` below keeps that per-link scoring as the
reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiversityAlgorithm, LinkHistoryTable, PCB, SentRecord
from repro.core.scoring import (
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)
from repro.topology import generate_core_mesh
from repro.topology.model import Link, LinkEnd, Relationship

ASN, NEIGHBOR, ORIGIN = 1, 2, 9
NOW, LIFETIME = 7200.0, 21600.0
PATH_LINK_IDS = range(1, 13)
EGRESS_LINK_IDS = range(20, 32)
TOPOLOGY = generate_core_mesh(2, seed=0)  # ``_best`` never consults it


def rank_every_link(algo, pcb, links, skip, records, table, now):
    """Min over the per-(beacon, link) scoring of the old heap build."""
    params = algo.params
    path_links = pcb.link_ids()
    ranks = []
    for link in links:
        link_id = link.link_id
        if link_id in skip:
            continue
        record = records.get(link_id)
        if record is not None and record.is_valid(now):
            counter_sum = None
            ds = record.diversity_score
            exponent = exponent_g(
                record.remaining_lifetime(now),
                pcb.remaining_lifetime(now),
                params,
            )
        else:
            counter_sum, gm = table.row(path_links, link_id)
            ds = diversity_score(gm)
            exponent = exponent_f(pcb.age(now), pcb.lifetime, params)
        score = final_score(ds, exponent)
        if score <= params.score_threshold:
            continue
        if counter_sum is None:
            counter_sum, _ = table.row(path_links, link_id)
        ranks.append(
            (
                -score,
                -ds,
                counter_sum,
                pcb.path_length,
                path_links,
                link_id,
                pcb,
                link,
            )
        )
    return min(ranks, default=None)


@st.composite
def cases(draw):
    # Counters from never-used up to past ``MAX_ACCEPTABLE_GM`` (5).
    counters = draw(
        st.dictionaries(
            st.sampled_from([*PATH_LINK_IDS, *EGRESS_LINK_IDS]),
            st.integers(min_value=0, max_value=8),
        )
    )
    path_links = draw(
        st.lists(
            st.sampled_from(PATH_LINK_IDS), min_size=0, max_size=5, unique=True
        )
    )
    egress = draw(
        st.lists(
            st.sampled_from(EGRESS_LINK_IDS), min_size=1, max_size=12, unique=True
        )
    )
    age = draw(st.sampled_from([0.0, 600.0, 1800.0, 5400.0, 7200.0]))
    # Per egress link: no record, a valid one or an expired one.
    records = {}
    for link_id in egress:
        state = draw(st.sampled_from(["absent", "absent", "valid", "expired"]))
        if state == "absent":
            continue
        remaining = (
            draw(st.sampled_from([1.0, 600.0, 3000.0, 14400.0]))
            if state == "valid"
            else draw(st.sampled_from([0.0, -600.0]))
        )
        records[link_id] = (
            draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])),
            NOW + remaining - LIFETIME,
        )
    skip = tuple(draw(st.lists(st.sampled_from(egress), unique=True, max_size=2)))
    return counters, path_links, egress, age, records, skip


@settings(max_examples=300, deadline=None)
@given(cases())
def test_best_link_is_the_minimum_over_every_link(case):
    counters, path_links, egress, age, records, skip = case
    algo = DiversityAlgorithm(ASN, TOPOLOGY)
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
    by_link = {}
    for link_id, (ds, issued_at) in records.items():
        by_link[link_id] = SentRecord(
            path_key=pcb.path_key(),
            egress_link_id=link_id,
            diversity_score=ds,
            expires_at=issued_at + LIFETIME,
            neighbor=NEIGHBOR,
        )
        algo.sent.add(by_link[link_id])

    best = algo._best(
        pcb,
        algo._egress_order(links, table),
        {pcb.path_key(): skip},
        algo.sent.paths(ORIGIN, NEIGHBOR),
        table,
        NOW,
    )
    expected = rank_every_link(algo, pcb, links, skip, by_link, table, NOW)
    assert best == expected
    if best is not None:
        assert best[-1] is expected[-1]


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 4), max_size=4).map(tuple),
            st.integers(0, 4),
        ),
        max_size=12,
    )
)
def test_the_split_heap_key_orders_as_the_concatenated_one(keys):
    """``_rank`` keys ties by ``(path_length, path_links, link_id)`` where
    it used to build ``(path_length, path_links + (link_id,))``: at equal
    lengths the two sort identically."""
    split = sorted((len(links), links, link) for links, link in keys)
    joined = sorted((len(links), links + (link,)) for links, link in keys)
    assert [(n, links + (link,)) for n, links, link in split] == joined
