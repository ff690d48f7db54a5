"""Cross-module property-based tests on system invariants."""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import path_set_resilience, unit_max_flow_between
from repro.core import BaselineAlgorithm, DiversityAlgorithm
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import generate_core_mesh


def run_sim(n, seed, factory, storage=8, intervals=6):
    topo = generate_core_mesh(n, seed=seed)
    config = BeaconingConfig(
        interval=600.0,
        duration=intervals * 600.0,
        pcb_lifetime=6 * 3600.0,
        storage_limit=storage,
    )
    sim = BeaconingSimulation(topo, factory, config).run()
    return topo, sim


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=500),
)
def test_disseminated_paths_are_valid_walks(n, seed):
    """Every disseminated beacon is a loop-free walk over real links that
    starts at its origin and ends at its holder."""
    topo, sim = run_sim(n, seed, diversity_factory())
    for receiver in sim.participant_asns():
        for origin in sim.originator_asns():
            for pcb in sim.paths_at(receiver, origin):
                asns = pcb.path_asns()
                assert asns[0] == origin
                assert asns[-1] == receiver
                assert len(set(asns)) == len(asns)
                for (a, b), link_id in zip(
                    zip(asns, asns[1:]), pcb.link_ids()
                ):
                    assert {a, b} == set(topo.link(link_id).endpoints())


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=500),
)
def test_path_set_resilience_never_exceeds_optimum(n, seed):
    topo, sim = run_sim(n, seed, baseline_factory())
    asns = sim.participant_asns()
    rng = random.Random(seed)
    for _ in range(5):
        origin, receiver = rng.sample(asns, 2)
        paths = [p.link_ids() for p in sim.paths_at(receiver, origin)]
        achieved = path_set_resilience(topo, origin, receiver, paths)
        assert achieved <= unit_max_flow_between(topo, origin, receiver)
        if paths:
            assert achieved >= 1  # a non-empty path set connects the pair


def assert_dissemination_limit(factory, n, seed, limit):
    """Step a core mesh four intervals; fail if any interval's record
    carries more than ``limit`` PCBs of one origin from one sender to
    one neighbour."""
    config = BeaconingConfig(
        interval=600.0, duration=600.0 * 4, pcb_lifetime=6 * 3600.0,
        storage_limit=10,
    )
    topo = generate_core_mesh(n, seed=seed)
    sim = BeaconingSimulation(topo, factory, config)
    for _ in range(4):
        counts = Counter(
            (t.sender, t.pcb.origin, t.receiver) for t in sim.step()
        )
        for key, count in counts.items():
            assert count <= limit, f"{key} sent {count} > {limit}"


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
    limit=st.integers(min_value=1, max_value=5),
)
def test_diversity_dissemination_limit_respected(n, seed, limit):
    """Per interval, the diversity algorithm never sends more than the
    dissemination limit per [origin AS, neighbor AS] pair."""
    assert_dissemination_limit(
        partial(DiversityAlgorithm, dissemination_limit=limit), n, seed, limit
    )


def test_dissemination_limit_check_catches_one_too_many():
    """Negative test: Algorithm 1 built with the limit plus one fails the
    same check."""
    with pytest.raises(AssertionError, match="sent 3 > 2"):
        assert_dissemination_limit(
            partial(DiversityAlgorithm, dissemination_limit=3), 6, 1, 2
        )


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_baseline_limit_per_interface(n, seed):
    """The baseline never sends more than the limit per origin/interface."""
    topo = generate_core_mesh(n, seed=seed)
    algo = BaselineAlgorithm(
        topo.asns()[0], topo, dissemination_limit=3
    )
    from repro.core import BeaconStore, PCB

    store = BeaconStore()
    asn = topo.asns()[0]
    for i in range(10):
        store.insert(
            PCB.originate(999, 0.0, 7200.0).extend(1000 + i, asn), now=1.0
        )
    links = topo.as_node(asn).links()
    out = algo.select(store, links, now=600.0)
    per_interface = {}
    for t in out:
        key = (t.pcb.origin, t.link.link_id)
        per_interface[key] = per_interface.get(key, 0) + 1
    assert all(v <= 3 for v in per_interface.values())


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200))
def test_diversity_counters_match_valid_sent_records(seed):
    """Invariant: every Link History counter equals the number of valid
    sent records whose counted links include it."""
    topo, sim = run_sim(6, seed, diversity_factory(), intervals=5)
    for server in sim.servers.values():
        algo = server.algorithm
        if not isinstance(algo, DiversityAlgorithm):
            continue
        algo._expire_sent(sim.now)
        expected = {}
        for record in algo.sent.records():
            if not record.is_valid(sim.now):
                continue
            key = (record.origin, record.neighbor)
            for counted in record.counted_links:
                expected.setdefault(key, {}).setdefault(counted, 0)
                expected[key][counted] += 1
        for (origin, neighbor), table in algo.history._tables.items():
            for link_id in list(table._counters):
                assert table.counter(link_id) == expected.get(
                    (origin, neighbor), {}
                ).get(link_id, 0)
