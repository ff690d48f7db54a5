"""Differential test of Algorithm 1 against a literal reference (ROADMAP 4a).

``AppendixAOracle`` is a deliberately slow transcription of the paper's
pseudo-code: per [origin AS, neighbor AS] pair it rescans *every* (stored
beacon, egress interface) combination for each path it selects — no heap,
no memo, no precomputed keys, its own plain-dict Sent PCBs List — and
scores straight from ``scoring.py`` and ``LinkHistoryTable.geometric_mean``.
The production ``DiversityAlgorithm`` must send exactly the same
transmissions, interval by interval, on seeded small cores run long enough
(with a short PCB lifetime) that sent records expire and counters are
decremented, across one link failure and recovery — on the default meshes
and on wide ones (up to 12 parallel links per neighbour, a deeper store,
other dissemination limits, the per-interface ablation), where one heap
entry per beacon stands for a dozen candidates — and with a lifetime that
outlasts the failure window, where beacons the production algorithm has
stopped scoring must come back when a parallel link does.
"""

import functools

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core import DiversityAlgorithm, LinkHistoryTable
from repro.core.policy import PathConstructionAlgorithm, Transmission
from repro.core.scoring import (
    DiversityParams,
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    diversity_factory,
)
from repro.topology import generate_core_mesh

INTERVAL = 600.0
#: (PCB lifetime in intervals, intervals run, fail at, recover at).
#: Five intervals: every sent record expires, and its counters are
#: released, several times within a run.
SHORT_LIVED = (5, 16, 6, 10)
#: No sent record expires while the link is down: what re-admits a
#: candidate at recovery is the egress set alone.
LONG_LIVED = (12, 22, 4, 9)


@dataclass
class _Sent:
    diversity_score: float
    issued_at: float
    lifetime: float
    neighbor: int


class AppendixAOracle(PathConstructionAlgorithm):
    name = "oracle"

    def __init__(
        self,
        asn,
        topology,
        *,
        dissemination_limit=5,
        per_interface_limit=False,
        params=None,
    ):
        super().__init__(asn, topology, dissemination_limit=dissemination_limit)
        self.per_interface_limit = per_interface_limit
        self.params = params or DiversityParams()
        self.tables: Dict[Tuple[int, int], LinkHistoryTable] = {}
        #: (egress link, origin, path links + egress link) -> record
        self.sent: Dict[Tuple[int, int, Tuple[int, ...]], _Sent] = {}
        #: Sent records that reached their expiry (for the test's own
        #: check that the run exercised counter decrements).
        self.expired = 0

    def _release(self, key) -> None:
        record = self.sent.pop(key)
        self.tables[(key[1], record.neighbor)].decrement(key[2])

    def on_link_revoked(self, link_id: int) -> None:
        for key in [key for key in self.sent if link_id in key[2]]:
            self._release(key)

    def select(self, store, egress_links, now) -> List[Transmission]:
        for key, record in list(self.sent.items()):
            if now >= record.issued_at + record.lifetime:
                self._release(key)
                self.expired += 1
        # One group per neighbor AS, or per interface in the ablation; the
        # Link History Table is the neighbor's either way.
        groups: Dict[int, list] = {}
        for link in egress_links:
            group = (
                link.link_id
                if self.per_interface_limit
                else link.other(self.asn)
            )
            groups.setdefault(group, []).append(link)
        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            for group in sorted(groups):
                transmissions.extend(
                    self._select_pair(
                        origin,
                        store.beacons(origin, now),
                        groups[group][0].other(self.asn),
                        groups[group],
                        now,
                    )
                )
        return transmissions

    def _select_pair(self, origin, beacons, neighbor, links, now):
        params = self.params
        table = self.tables.setdefault((origin, neighbor), LinkHistoryTable())
        selected: List[Transmission] = []
        chosen = set()
        while len(selected) < self.dissemination_limit:
            best = None
            for pcb in beacons:
                if neighbor in pcb.path_asns():
                    continue
                for link in links:
                    counted = pcb.link_ids() + (link.link_id,)
                    if counted in chosen:
                        continue
                    record = self.sent.get((link.link_id, origin, counted))
                    if record is not None:
                        ds = record.diversity_score
                        exponent = exponent_g(
                            record.issued_at + record.lifetime - now,
                            pcb.issued_at + pcb.lifetime - now,
                            params,
                        )
                    else:
                        ds = diversity_score(
                            table.geometric_mean(counted), params
                        )
                        exponent = exponent_f(
                            now - pcb.issued_at, pcb.lifetime, params
                        )
                    score = final_score(ds, exponent)
                    if score <= params.score_threshold:
                        continue
                    priority = (
                        -score,
                        -ds,
                        sum(table.counter(link_id) for link_id in counted),
                        len(counted),
                        counted,
                    )
                    if best is None or priority < best[0]:
                        best = (priority, pcb, link, counted, record)
            if best is None:
                break
            _, pcb, link, counted, record = best
            chosen.add(counted)
            if record is not None:
                record.issued_at, record.lifetime = pcb.issued_at, pcb.lifetime
            else:
                table.increment(counted)
                self.sent[(link.link_id, origin, counted)] = _Sent(
                    diversity_score(table.geometric_mean(counted), params),
                    pcb.issued_at,
                    pcb.lifetime,
                    neighbor,
                )
            selected.append(
                Transmission(
                    pcb=pcb.extend(link.link_id, neighbor),
                    link=link,
                    sender=self.asn,
                    receiver=neighbor,
                )
            )
        return selected


def _recorded(sim: BeaconingSimulation) -> List[Transmission]:
    """Make every server's ``select`` also append what it returns."""
    log: List[Transmission] = []
    for server in sim.servers.values():
        def recording(store, links, now, _select=server.algorithm.select):
            out = _select(store, links, now)
            log.extend(out)
            return out

        server.algorithm.select = recording
    return log


def _factories(dissemination_limit=5, per_interface_limit=False, params=None):
    """(production, oracle) factories built with the same options."""
    options = dict(
        dissemination_limit=dissemination_limit,
        per_interface_limit=per_interface_limit,
        params=params,
    )
    return (
        functools.partial(DiversityAlgorithm, **options),
        functools.partial(AppendixAOracle, **options),
    )


def _assert_same_transmissions(
    topology, storage_limit, factories, victim_index, timing=SHORT_LIVED
) -> int:
    """Step both simulations through a link failure and recovery, compare
    what they send interval by interval; the number of candidates the
    production algorithm left out of its heaps unscored."""
    lifetime, intervals, fail_at, recover_at = timing
    config = BeaconingConfig(
        interval=INTERVAL,
        duration=intervals * INTERVAL,
        pcb_lifetime=lifetime * INTERVAL,
        storage_limit=storage_limit,
    )
    production = BeaconingSimulation(topology, factories[0], config)
    oracle = BeaconingSimulation(topology, factories[1], config)
    sent, expected = _recorded(production), _recorded(oracle)
    victim = sorted(link.link_id for link in topology.links())[victim_index]
    total = 0
    for interval in range(intervals):
        if interval == fail_at:
            assert production.fail_link(victim) == oracle.fail_link(victim)
        if interval == recover_at:
            production.recover_link(victim)
            oracle.recover_link(victim)
        production.step()
        oracle.step()
        assert sent == expected, f"interval {interval}"
        total += len(sent)
        sent.clear()
        expected.clear()
    # The run exercised what it is meant to: paths were sent, and sent
    # records expired (releasing their counters) along the way.
    assert total > 0
    assert sum(server.algorithm.expired for server in oracle.servers.values()) > 0
    return sum(server.algorithm.skipped for server in production.servers.values())


@pytest.mark.parametrize("seed", range(6))
def test_production_sends_what_the_oracle_sends(seed):
    topology = generate_core_mesh(5 + seed % 3, seed=seed)
    _assert_same_transmissions(topology, 6, _factories(), seed)


#: Eq. 3 barely suppresses: a path just sent on a link still outscores
#: the threshold there, so only Algorithm 1's "each combination once per
#: round" keeps it from being picked again.
WEAK_SUPPRESSION = DiversityParams(beta=0.25, gamma=1.0)


@pytest.mark.parametrize(
    "seed, dissemination_limit, per_interface_limit, params",
    [
        (0, 5, False, None),
        (1, 2, False, None),
        (2, 5, True, None),
        (3, 2, True, None),
        (4, 5, False, WEAK_SUPPRESSION),
    ],
)
def test_wide_neighbour_groups_send_what_the_oracle_sends(
    seed, dissemination_limit, per_interface_limit, params
):
    """Up to 12 parallel links per neighbour and a store deep enough that
    one beacon's candidates outnumber the dissemination limit."""
    # ``parallel_link_p`` is the generator's probability of *stopping* at
    # each further parallel link: a low value makes the groups wide.
    topology = generate_core_mesh(
        6, seed=seed, max_parallel_links=12, parallel_link_p=0.15
    )
    widest = max(
        sum(1 for link in topology.as_node(asn).links() if link.other(asn) == peer)
        for asn in topology.asns()
        for peer in topology.asns()
    )
    assert widest >= 11
    _assert_same_transmissions(
        topology,
        20,
        _factories(dissemination_limit, per_interface_limit, params),
        seed,
    )


@pytest.mark.parametrize("seed", range(4))
def test_a_lifetime_that_outlasts_the_failure_sends_what_the_oracle_sends(seed):
    """Parallel links, storage 20, a 12-interval lifetime: by the time the
    victim recovers most candidates are remembered as turned down, and
    only the changed egress set brings the ones over it back."""
    topology = generate_core_mesh(
        6, seed=seed, max_parallel_links=4, parallel_link_p=0.4
    )
    skipped = _assert_same_transmissions(
        topology, 20, _factories(), seed, LONG_LIVED
    )
    assert skipped > 0
