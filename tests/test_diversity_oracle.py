"""Differential test of Algorithm 1 against a literal reference (ROADMAP 4a).

``AppendixAOracle`` is a deliberately slow transcription of the paper's
pseudo-code: per [origin AS, neighbor AS] pair it rescans *every* (stored
beacon, egress interface) combination for each path it selects — no heap,
no memo, no precomputed keys, its own plain-dict Sent PCBs List — and
scores straight from ``scoring.py`` and ``LinkHistoryTable.geometric_mean``.
The production ``DiversityAlgorithm`` must send exactly the same
transmissions, interval by interval, on seeded small cores run long enough
(with a short PCB lifetime) that sent records expire and counters are
decremented, across one link failure and recovery.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core import LinkHistoryTable
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
#: Five intervals: every sent record expires, and its counters are
#: released, several times within a run.
PCB_LIFETIME = 5 * INTERVAL
INTERVALS = 16
FAIL_AT, RECOVER_AT = 6, 10


@dataclass
class _Sent:
    diversity_score: float
    issued_at: float
    lifetime: float
    neighbor: int


class AppendixAOracle(PathConstructionAlgorithm):
    name = "oracle"

    def __init__(self, asn, topology, *, dissemination_limit=5):
        super().__init__(asn, topology, dissemination_limit=dissemination_limit)
        self.params = DiversityParams()
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
        by_neighbor: Dict[int, list] = {}
        for link in egress_links:
            by_neighbor.setdefault(link.other(self.asn), []).append(link)
        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            for neighbor in sorted(by_neighbor):
                transmissions.extend(
                    self._select_pair(
                        origin,
                        store.beacons(origin, now),
                        neighbor,
                        by_neighbor[neighbor],
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


@pytest.mark.parametrize("seed", range(6))
def test_production_sends_what_the_oracle_sends(seed):
    topology = generate_core_mesh(5 + seed % 3, seed=seed)
    config = BeaconingConfig(
        interval=INTERVAL,
        duration=INTERVALS * INTERVAL,
        pcb_lifetime=PCB_LIFETIME,
        storage_limit=6,
    )
    production = BeaconingSimulation(topology, diversity_factory(), config)
    oracle = BeaconingSimulation(topology, AppendixAOracle, config)
    sent, expected = _recorded(production), _recorded(oracle)
    victim = sorted(link.link_id for link in topology.links())[seed]
    total = 0
    for interval in range(INTERVALS):
        if interval == FAIL_AT:
            assert production.fail_link(victim) == oracle.fail_link(victim)
        if interval == RECOVER_AT:
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
