"""Path-diversity-based path construction algorithm (Section 4.2, Alg. 1).

A distributed greedy algorithm that maximizes link-disjointness of the
disseminated paths while suppressing redundant retransmissions. Per
[origin AS, neighbor AS] pair and beaconing interval it iteratively selects
up to ``dissemination_limit`` (candidate beacon, egress interface)
combinations by score:

* the **link diversity score** of a candidate path is derived from the
  geometric mean of the Link History Table counters of its links (including
  the egress link);
* the **final score** maps the diversity score through an exponent that
  depends on the beacon's age/lifetime (Eq. 2, never-sent paths) or on the
  remaining lifetime of the previously-sent instance (Eq. 3, re-sends);
* selection stops when no candidate exceeds the score threshold.

Implementation notes beyond the pseudo-code (each called out in DESIGN.md):

* The diversity score stored in the Sent PCBs List is computed *after*
  incrementing the counters for the selected path, i.e. it reflects the
  path's jointness as a member of the sent set. Storing the pre-increment
  score would freeze fully novel paths at score 1.0, and ``1.0 ** g == 1``
  would defeat the retransmission suppression entirely.
* Counters count the number of *valid* sent paths containing a link, so a
  re-send of a still-valid path refreshes its timers without incrementing,
  and counters are decremented when a sent record expires.
* Ties (frequent among fresh beacons whose exponent is near 0) break by
  higher diversity score, then shorter path, then a deterministic key.
* A stored beacon found at or below the threshold for a pair stays out of
  that pair's heap, for one dictionary lookup per interval, until
  something that can raise its score happens: a counter of the pair's
  table is released (an expiry or a revocation), the egress-link set
  changes, or the store holds a newer instance of the path. Ages and
  counters otherwise only grow, so its score only falls (the suppression
  lemma, DESIGN.md §5).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..topology.model import Link
from .beacon_store import BeaconStore
from .link_history import LinkHistory, LinkHistoryTable
from .pcb import PCB
from .policy import PathConstructionAlgorithm, Transmission
from .scoring import (
    DiversityParams,
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)
from .sent_registry import PathKey, SentRecord, SentRegistry, chained

__all__ = ["DiversityAlgorithm"]


class DiversityAlgorithm(PathConstructionAlgorithm):
    """Algorithm 1 of the paper, with per-neighbor dissemination limits."""

    name = "diversity"

    def __init__(
        self,
        asn: int,
        topology,
        *,
        dissemination_limit: int = 5,
        params: Optional[DiversityParams] = None,
        per_interface_limit: bool = False,
        kernel=None,
    ) -> None:
        """``per_interface_limit`` is an ablation knob: apply the
        dissemination limit per egress interface (like the baseline)
        instead of per neighbor AS, quantifying the redundancy the paper's
        per-neighbor grouping avoids on parallel links (DESIGN.md #3).

        ``kernel`` names a :class:`~repro.kernels.KernelBackend` (an
        instance, a registry name, or None for the reference backend). It
        is resolved, so an unknown name still fails here, but selection no
        longer dispatches through it: the Link History Table memo scores
        every backend's candidates the same way (DESIGN.md §9)."""
        super().__init__(asn, topology, dissemination_limit=dissemination_limit)
        self.params = params or DiversityParams()
        self.params.validate()
        self.per_interface_limit = per_interface_limit
        # Imported lazily: repro.kernels reaches the dataplane package,
        # whose import chain leads back into this module.
        from ..kernels import resolve_backend

        self.kernel = resolve_backend(kernel)
        self.history = LinkHistory()
        self.sent = SentRegistry()
        self._forget()

    def _forget(self) -> None:
        """Start with nothing remembered from earlier intervals."""
        #: [origin AS, neighbour group] -> (the table's release count, the
        #: offered beacons then at or below the threshold by path). Keyed
        #: by group, not by table: the per-interface ablation puts several
        #: groups on one table. Rebuilt by every ``select`` from the
        #: beacons it is offered, so it holds no beacon the store dropped;
        #: a beacon is out only while it *is* the value under its path, so
        #: a newer instance of the path is scored again.
        self._suppressed: Dict[
            Tuple[int, int], Tuple[int, Dict[PathKey, PCB]]
        ] = {}
        #: The egress link ids and the time of the last ``select``.
        self._last_select: Tuple[Tuple[int, ...], float] = ((), -math.inf)
        #: Candidates left out of a heap without scoring, over all pairs
        #: and intervals since construction or unpickling.
        self.skipped = 0

    def __getstate__(self):
        # What ``_forget`` resets is derived state: snapshots neither
        # grow nor differ, and a loaded algorithm rescores everything once.
        state = self.__dict__.copy()
        del state["_suppressed"], state["_last_select"], state["skipped"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._forget()

    # ------------------------------------------------------------ lifecycle

    def _expire_sent(self, now: float) -> None:
        """Purge expired sent records and release their counters."""
        for record in self.sent.purge_expired(now):
            self.history.table(record.origin, record.neighbor).decrement(
                record.counted_links
            )

    def on_link_revoked(self, link_id: int) -> None:
        """Drop sent records for paths crossing the revoked link.

        Counters track *valid* sent paths; a revoked path is invalid, so
        its counters are released immediately instead of at instance
        expiry, and the path becomes eligible for fresh (Eq. 2) selection
        once the link recovers.
        """
        for record in self.sent.purge_crossing(link_id):
            self.history.table(record.origin, record.neighbor).decrement(
                record.counted_links
            )

    # -------------------------------------------------------------- select

    def select(
        self,
        store: BeaconStore,
        egress_links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        self._expire_sent(now)
        # Remembered candidates carry over while nothing but counter
        # releases (checked per pair) can have raised a score: the same
        # egress links, and a clock that did not step back.
        egress = tuple([link.link_id for link in egress_links])
        carried = self._suppressed
        if egress != self._last_select[0] or now < self._last_select[1]:
            carried = {}
        self._suppressed = {}
        self._last_select = (egress, now)
        by_neighbor: Dict[int, List[Link]] = {}
        for link in egress_links:
            group = (
                link.link_id
                if self.per_interface_limit
                else self._neighbor_of(link)
            )
            by_neighbor.setdefault(group, []).append(link)

        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            beacons = store.beacons(origin, now)
            if not beacons:
                continue
            for group in sorted(by_neighbor):
                transmissions.extend(
                    self._select_pair(
                        origin,
                        beacons,
                        group,
                        by_neighbor[group],
                        now,
                        carried.get((origin, group)),
                    )
                )
        return transmissions

    def _select_pair(
        self,
        origin: int,
        beacons: Sequence[PCB],
        group: int,
        links: Sequence[Link],
        now: float,
        remembered: Optional[Tuple[int, Dict[PathKey, PCB]]],
    ) -> List[Transmission]:
        """The per-[origin AS, neighbor AS] greedy loop of Algorithm 1.

        Implemented as a lazy max-heap instead of the pseudo-code's full
        rescan per iteration: within one selection round counters only
        *increase* (decrements happen at expiry, before selection), so
        candidate scores only decrease — a popped entry whose recomputed
        score dropped is pushed back and the maximum remains exact. The
        heap holds one entry per stored beacon: its :meth:`_best` link.

        The same monotonicity holds from one interval to the next while no
        counter of the table is released: a beacon ``remembered`` as at or
        below the threshold under the table's current release count is
        left out unscored, and one found there now is remembered for the
        next interval (see :meth:`_stays_out` for the one exception).
        """
        # The Link History Table stays keyed by the actual neighbor AS in
        # both limit modes (a group is a single interface in the
        # per-interface ablation).
        neighbor = self._neighbor_of(links[0])
        table = self.history.table(origin, neighbor)
        order = self._egress_order(links, table)
        paths = self.sent.paths(origin, neighbor)
        out: Mapping[PathKey, PCB] = {}
        if remembered is not None and remembered[0] == table.releases:
            out = remembered[1]
        still_out: Dict[PathKey, PCB] = {}
        skipped = 0
        #: path key -> the egress links the beacon went out on this round.
        done: Dict[PathKey, Tuple[int, ...]] = {}
        heap: List[Tuple] = []
        for pcb in beacons:
            key = pcb.path_key()
            if out.get(key) is pcb:
                skipped += 1
                still_out[key] = pcb
                continue
            if pcb.contains_as(neighbor):
                continue
            rank = self._best(pcb, order, done, paths, table, now)
            if rank is not None:
                heap.append(rank)
            elif self._stays_out(pcb, neighbor):
                still_out[key] = pcb
        if still_out:
            # No counter is released inside a round: the count read here
            # is the one the scores above were computed under.
            self._suppressed[(origin, group)] = (table.releases, still_out)
        self.skipped += skipped
        heapq.heapify(heap)

        selected: List[Transmission] = []
        while heap and len(selected) < self.dissemination_limit:
            entry = heapq.heappop(heap)
            pcb = entry[-2]
            rank = self._best(pcb, order, done, paths, table, now)
            if rank is not None and rank[:-2] == entry[:-2]:
                # No priority component degraded: still the maximum.
                link = rank[-1]
                child = pcb.extend(link.link_id, neighbor)
                self._commit(pcb, child.link_ids(), table, neighbor, now)
                selected.append(
                    Transmission(
                        pcb=child, link=link, sender=self.asn, receiver=neighbor
                    )
                )
                # The commit moved counters and sent records; the beacon
                # goes back with the best of its remaining links.
                key = pcb.path_key()
                done[key] = done.get(key, ()) + (link.link_id,)
                order = self._egress_order(links, table)
                # The pair's first record files it under a new mapping.
                paths = self.sent.paths(origin, neighbor)
                rank = self._best(pcb, order, done, paths, table, now)
            if rank is not None:
                heapq.heappush(heap, rank)
        return selected

    def _stays_out(self, pcb: PCB, neighbor: int) -> bool:
        """Whether a beacon :meth:`_best` just turned down for every link
        keeps scoring at or below the threshold until a counter is
        released. A never-sent candidate's ``ds ** f`` only falls as age
        and counters grow, and a sent record of the stored instance itself
        has an Eq. 3 ratio of exactly 1 and a constant score; a record of
        any other instance does not qualify — of an *older* one (the case
        that occurs) the ratio falls with time and the score rises
        towards the refresh.
        """
        expires_at = pcb.expires_at
        for record in self.sent.path_records(neighbor, pcb.path_key()):
            if record.expires_at != expires_at:
                return False
        return True

    @staticmethod
    def _egress_order(links: Sequence[Link], table: LinkHistoryTable) -> List:
        """The group's links by (egress counter, link id)."""
        return sorted(
            links, key=lambda link: (table.counter(link.link_id), link.link_id)
        )

    def _best(
        self,
        pcb: PCB,
        order: Sequence[Link],
        done: Mapping[PathKey, Tuple[int, ...]],
        paths: Mapping[PathKey, SentRecord],
        table: LinkHistoryTable,
        now: float,
    ) -> Optional[Tuple]:
        """The smallest :meth:`_rank` of one beacon over the links of
        ``order`` it is not ``done`` with; None when none passes the
        threshold. ``paths`` is the pair's :meth:`SentRegistry.paths`.

        A beacon's fresh (Eq. 2) candidates differ only in the egress
        counter: the counter sum grows strictly with it, ``-ds`` and
        ``-score`` weakly, so their ranks are in the order of ``order``
        and only the first needs scoring (DESIGN.md §5 has the lemma and
        its floating-point caveat). A link holding a valid sent record
        (Eq. 3) is scored on its own.
        """
        key = pcb.path_key()
        first = paths.get(key)
        skip = done.get(key, ())
        if first is None and not skip:
            return self._rank(pcb, order[0], None, table, now)
        valid = {r.egress_link_id: r for r in chained(first) if r.is_valid(now)}
        best, fresh_scored = None, False
        for link in order:
            record = valid.get(link.link_id)
            if link.link_id in skip or (record is None and fresh_scored):
                continue
            fresh_scored |= record is None
            rank = self._rank(pcb, link, record, table, now)
            if rank is not None and (best is None or rank < best):
                best = rank
        return best

    def _rank(
        self,
        pcb: PCB,
        link: Link,
        record: Optional[SentRecord],
        table: LinkHistoryTable,
        now: float,
    ) -> Optional[Tuple]:
        """Score one (stored beacon, egress link) combination by Eq. (1),
        a re-send (Eq. 3) if ``record``, its valid sent record, is given;
        its min-heap entry, or None at or below the score threshold.

        Priority (best first): higher score, higher diversity score, lower
        total link-counter coverage (a second disjointness signal: the
        geometric mean is 0 for *any* path containing one unused link,
        while the counter sum still separates fully disjoint paths from
        partially overlapping ones), shorter path, deterministic key (path
        links, then egress link: the counted links unconcatenated, ordered
        alike since path links only meet at equal lengths; the origin is
        the same for the whole heap, and no two entries share both, so the
        beacon and link that close the entry are never compared). Every
        component degrades monotonically as counters grow within a
        selection round, which the lazy-heap revalidation in
        ``_select_pair`` relies on.
        """
        link_id = link.link_id
        path_links = pcb.link_ids()
        if record is not None:
            # Previously sent: reuse the score stored at send time (Eq. 3).
            counter_sum = None
            ds = record.diversity_score
            exponent = exponent_g(
                record.remaining_lifetime(now),
                pcb.remaining_lifetime(now),
                self.params,
            )
        else:
            counter_sum, gm = table.row(path_links, link_id)
            ds = diversity_score(gm)
            exponent = exponent_f(pcb.age(now), pcb.lifetime, self.params)
        score = final_score(ds, exponent)
        if score <= self.params.score_threshold:
            return None
        if counter_sum is None:
            counter_sum, _ = table.row(path_links, link_id)
        return (
            -score,
            -ds,
            counter_sum,
            pcb.path_length,
            path_links,
            link_id,
            pcb,
            link,
        )

    def _commit(
        self,
        pcb: PCB,
        counted: Tuple[int, ...],
        table: LinkHistoryTable,
        neighbor: int,
        now: float,
    ) -> None:
        """Update Link History Table and Sent PCBs List for sending ``pcb``
        over ``counted[-1]``; ``counted`` is the sent child's link tuple."""
        record = self.sent.record(neighbor, pcb.path_key(), counted[-1])
        if record is not None and record.is_valid(now):
            self.sent.refresh(record, pcb)
            return
        table.increment(counted)
        self.sent.add(
            SentRecord(
                path_key=pcb.path_key(),
                egress_link_id=counted[-1],
                diversity_score=diversity_score(table.geometric_mean(counted)),
                expires_at=pcb.expires_at,
                neighbor=neighbor,
            ),
        )
