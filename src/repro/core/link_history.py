"""Link History Tables (Section 4.2).

"To perform the link diversity score calculations, the algorithm stores a
Link History Table per [origin AS, neighbor AS] pair. Each table is a
one-to-one map from link_ids to their associated counters ... the counter
counts the number of times the link is part of a **valid** path from the
origin AS to the neighbor AS."

Because counters count *valid* sent paths, they are decremented when a sent
path's beacon expires (handled by the algorithm via the Sent PCBs List), and
a re-send of a still-valid path refreshes timers without incrementing again.

Each table also maintains a monotonically increasing *version* per link
(read by the kernel backends' ``batch_diversity``) and a memo of the
per-path part of a candidate row, which is what makes Algorithm 1's
per-interval rescoring cheap: until the table is next touched, a row it
has been asked about before costs one dictionary lookup and one logarithm.
``releases`` counts the ``decrement`` calls: between two of them every
counter only grows, which is what lets Algorithm 1 keep a candidate it
found at or below the threshold out of its heap (DESIGN.md §5).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["LinkHistoryTable", "LinkHistory"]


class LinkHistoryTable:
    """Counter table for one [origin AS, neighbor AS] pair."""

    __slots__ = ("_counters", "_version", "_memo", "releases")

    def __init__(self) -> None:
        self._counters: Dict[int, int] = {}
        self._version: Dict[int, int] = {}
        #: path links -> (counter sum, left-to-right log sum) over them;
        #: the log sum is None when a link on the path was never used.
        #: Dropped whole by every increment/decrement: a link -> rows index
        #: for selective invalidation costs more memory than it saves time.
        self._memo: Dict[Tuple[int, ...], Tuple[int, Optional[float]]] = {}
        #: How many times counters were released (:meth:`decrement`).
        self.releases = 0

    def __getstate__(self):
        # The memo is derived state, and the release count is only ever
        # compared with itself by state that is not pickled either:
        # snapshots neither grow nor differ.
        return (self._counters, self._version)

    def __setstate__(self, state) -> None:
        self._counters, self._version = state
        self._memo = {}
        self.releases = 0

    def counter(self, link_id: int) -> int:
        return self._counters.get(link_id, 0)

    def increment(self, link_ids: Iterable[int]) -> None:
        self._memo.clear()
        for link_id in link_ids:
            self._counters[link_id] = self._counters.get(link_id, 0) + 1
            self._version[link_id] = self._version.get(link_id, 0) + 1

    def decrement(self, link_ids: Iterable[int]) -> None:
        self._memo.clear()
        self.releases += 1
        for link_id in link_ids:
            current = self._counters.get(link_id, 0)
            if current <= 0:
                raise ValueError(f"counter underflow for link {link_id}")
            if current == 1:
                del self._counters[link_id]
            else:
                self._counters[link_id] = current - 1
            self._version[link_id] = self._version.get(link_id, 0) + 1

    def version(self, link_ids: Iterable[int]) -> int:
        """Sum of per-link versions; changes iff any counter changed."""
        return sum(self._version.get(link_id, 0) for link_id in link_ids)

    def geometric_mean(self, link_ids: Tuple[int, ...]) -> float:
        """Geometric mean of the counters of the links on a path.

        A path containing any never-used link has geometric mean 0 — it is
        maximally novel. Empty paths (an origin beacon before appending the
        egress link) also score 0.
        """
        if not link_ids:
            return 0.0
        log_sum = 0.0
        for link_id in link_ids:
            count = self._counters.get(link_id, 0)
            if count == 0:
                return 0.0
            log_sum += math.log(count)
        return math.exp(log_sum / len(link_ids))

    def row(
        self, path_links: Tuple[int, ...], egress_link_id: int
    ) -> Tuple[int, float]:
        """``(counter sum, geometric mean)`` of the candidate row
        ``path_links + (egress_link_id,)``, without building that tuple.

        The part over ``path_links`` (a beacon's own ``link_ids()``) is
        memoised; the egress counter is folded in last, which is the order
        :meth:`geometric_mean` accumulates in, so both values are
        bit-identical to the scalar calls on the concatenated row.
        """
        memo = self._memo.get(path_links)
        if memo is None:
            counter_sum, log_sum = 0, 0.0
            for link_id in path_links:
                count = self._counters.get(link_id, 0)
                counter_sum += count
                if count == 0:
                    log_sum = None
                elif log_sum is not None:
                    log_sum += math.log(count)
            memo = self._memo[path_links] = (counter_sum, log_sum)
        counter_sum, log_sum = memo
        count = self._counters.get(egress_link_id, 0)
        if count == 0 or log_sum is None:
            return counter_sum + count, 0.0
        return (
            counter_sum + count,
            math.exp((log_sum + math.log(count)) / (len(path_links) + 1)),
        )

    def __len__(self) -> int:
        return len(self._counters)


class LinkHistory:
    """All Link History Tables of one beacon server, keyed by
    (origin AS, neighbor AS)."""

    def __init__(self) -> None:
        self._tables: Dict[Tuple[int, int], LinkHistoryTable] = {}

    def table(self, origin: int, neighbor: int) -> LinkHistoryTable:
        key = (origin, neighbor)
        table = self._tables.get(key)
        if table is None:
            table = LinkHistoryTable()
            self._tables[key] = table
        return table

    def __len__(self) -> int:
        return len(self._tables)
