"""Long-horizon path-churn driver (the multipath stack's churn layer).

Replays thousands of scheduling intervals over one ran
:class:`~repro.control.network.ScionNetwork`, the way a SCIONLab-style
longitudinal measurement campaign observes the path mix of a deployed
inter-domain multipath network. Three churn processes layer on top of
each other, all seeded and order-independent:

* **beacon expiry** — every candidate path's beacon has a lifetime drawn
  from a per-path seeded RNG; on expiry the path disappears until the
  control plane re-issues it ``REISSUE_INTERVALS`` later (the renewal
  draws a fresh lifetime), yielding the lifetime/availability
  distributions the dataset exports;
* **fault schedule** — every ``FAULT_EVERY`` intervals one link used by
  the monitored paths fails for ``FAULT_DURATION`` intervals. Endpoints
  learn of a failure one interval late (the SCMP discovery model), so
  packets scheduled onto a freshly failed path are lost before
  re-selection routes around it;
* **policy re-selection** — each interval, each monitored pair re-runs
  its multipath strategy (:mod:`repro.multipath.scheduler`) over the
  currently known-available candidates; changes in the selected path set
  are recorded as switch events.

Delivery is real: every scheduled subflow forwards hop-field packets
through the shared router table via the pluggable kernel backend, so
python/numpy byte-identity extends to churn runs. The model-layer
interval clock is decoupled from the data-plane validation clock
(hop-field MACs are checked at the network's beaconing ``now``), which
keeps forwarding hot and lets the NumPy backend memoize per unique path.

Per-path per-interval capacity (``PATH_CAPACITY_PACKETS``) models the
fair-share bottleneck a single TCP-like flow obtains on one path: a
single-path strategy overflows it whenever demand exceeds capacity,
while a k-way split delivers — the paper's core multipath dividend,
reproduced deterministically.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..control.network import ScionNetwork
from ..dataplane.combinator import EndToEndPath
from ..dataplane.packet import ScionPacket, build_packet
from ..kernels import KernelBackend, resolve_backend
from ..obs import NULL_TELEMETRY, Telemetry
from ..topology.latency import QUEUEING_FACTOR, LatencyModel
from ..traffic.flows import PAYLOAD_BYTES
from ..traffic.metrics import path_key
from .scheduler import (
    SchedulerContext,
    get_strategy,
    latency_rank,
    split_diversity,
)

__all__ = ["ChurnConfig", "ChurnResult", "ChurnDriver", "ROW_FIELDS"]

#: Field order of every :attr:`ChurnResult.rows` tuple — the dataset
#: exporter (:mod:`repro.multipath.dataset`) writes rows in exactly this
#: order, so the two modules must agree.
ROW_FIELDS: Tuple[str, ...] = (
    "interval",
    "src",
    "dst",
    "path_id",
    "available",
    "selected",
    "offered_packets",
    "delivered_packets",
    "lost_packets",
    "latency_seconds",
    "goodput_share",
    "switch",
    "age_intervals",
    "diversity",
)

#: Bucket bounds of the path-lifetime histogram (intervals).
LIFETIME_BUCKETS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


#: Wall-clock seconds one interval represents (sizing goodput).
INTERVAL_SECONDS = 60.0
#: Packets each monitored pair offers per interval (constant demand).
DEMAND_PACKETS = 12
#: Per-path fair-share bottleneck, packets per interval.
PATH_CAPACITY_PACKETS = 8
#: Candidate paths monitored per pair (lowest-latency first).
MAX_PATHS_PER_PAIR = 6
#: Beacon-lifetime model: each path's lifetimes draw uniformly from
#: ``MIN`` to ``2 * MEAN - MIN`` intervals, so they average ``MEAN``.
MEAN_LIFETIME_INTERVALS = 40
MIN_LIFETIME_INTERVALS = 5
#: Intervals an expired path stays down before re-issue.
REISSUE_INTERVALS = 3
#: One link fault starts every this many intervals and lasts
#: ``FAULT_DURATION`` intervals.
FAULT_EVERY = 25
FAULT_DURATION = 5


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of one churn horizon. Pure primitives: picklable, hashable
    through ``stable_key``, so it can live on a cached run spec."""

    num_intervals: int = 500
    #: Monitored (src, dst) endpoint pairs.
    num_pairs: int = 6
    #: Multipath strategy name (:data:`~repro.multipath.scheduler.
    #: STRATEGY_NAMES`).
    strategy: str = "weighted-ecmp"
    k_paths: int = 3
    latency_seed: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_intervals < 1 or self.num_pairs < 1:
            raise ValueError("num_intervals and num_pairs must be positive")
        if self.k_paths < 1:
            raise ValueError("k_paths must be positive")
        # Validates the strategy name early (raises on unknown names).
        get_strategy(self.strategy)


@dataclass
class ChurnResult:
    """Everything one churn horizon reports — pure primitives, so cached
    results are byte-identical and ``--jobs N`` compares equal by pickle."""

    name: str
    strategy: str
    k_paths: int
    num_intervals: int
    seed: int
    #: Monitored (src, dst) pairs, in monitoring order.
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    #: Static path table: path_id -> (src, dst, asns, link_ids,
    #: propagation latency seconds).
    paths: Dict[str, Tuple] = field(default_factory=dict)
    #: One tuple per (interval, pair, candidate path), :data:`ROW_FIELDS`
    #: order.
    rows: List[Tuple] = field(default_factory=list)

    # ---- aggregates ------------------------------------------------------
    packets_offered: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    macs_verified: int = 0
    beacon_expiries: int = 0
    faults_injected: int = 0
    switch_events: int = 0
    scmp_events: int = 0
    #: Completed beacon lifetimes, in intervals (issue -> expiry).
    path_lifetimes: List[int] = field(default_factory=list)
    #: Intervals each path was control-plane available.
    path_available_intervals: Dict[str, int] = field(default_factory=dict)
    #: Packets delivered per path over the whole horizon.
    path_delivered_packets: Dict[str, int] = field(default_factory=dict)

    # ---- derived ---------------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        return self.num_intervals * INTERVAL_SECONDS

    def aggregate_goodput_bps(self) -> float:
        return (
            self.packets_delivered * PAYLOAD_BYTES * 8.0
            / self.duration_seconds
        )

    def delivered_fraction(self) -> float:
        if not self.packets_offered:
            return 1.0
        return self.packets_delivered / self.packets_offered

    def availability(self, path_id: str) -> float:
        return (
            self.path_available_intervals.get(path_id, 0) / self.num_intervals
        )

    def mean_availability(self) -> float:
        if not self.paths:
            return 0.0
        return sum(
            self.availability(path_id) for path_id in self.paths
        ) / len(self.paths)

    def mean_path_lifetime(self) -> float:
        if not self.path_lifetimes:
            return 0.0
        return sum(self.path_lifetimes) / len(self.path_lifetimes)

    def goodput_shares(self) -> Dict[str, float]:
        total = sum(self.path_delivered_packets.values())
        if not total:
            return {}
        return {
            path_id: self.path_delivered_packets[path_id] / total
            for path_id in sorted(self.path_delivered_packets)
        }

    def reconciles(self) -> bool:
        """Per-path delivery attribution matches the aggregate exactly."""
        return (
            sum(self.path_delivered_packets.values())
            == self.packets_delivered
            and self.packets_offered
            == self.packets_delivered + self.packets_lost
        )


class _PathState:
    """Mutable per-(pair, candidate) churn state."""

    __slots__ = (
        "path",
        "key",
        "packet",
        "propagation",
        "links",
        "issued_at",
        "expires_at",
        "down_until",
        "rng",
    )

    def __init__(
        self,
        path: EndToEndPath,
        key: str,
        packet: ScionPacket,
        propagation: float,
        seed: int,
    ) -> None:
        self.path = path
        self.key = key
        self.packet = packet
        self.propagation = propagation
        self.links = frozenset(path.link_ids)
        # Per-path RNG keyed on (seed, path id): lifetime draws are
        # independent of pair iteration order and of other paths.
        digest = hashlib.blake2b(
            f"life:{seed}:{key}".encode("ascii"), digest_size=8
        ).digest()
        self.rng = random.Random(int.from_bytes(digest, "big"))
        self.issued_at = 0
        self.expires_at = 0
        self.down_until: Optional[int] = None

    def draw_lifetime(self) -> int:
        return self.rng.randint(
            MIN_LIFETIME_INTERVALS,
            2 * MEAN_LIFETIME_INTERVALS - MIN_LIFETIME_INTERVALS,
        )


class ChurnDriver:
    """Runs one churn horizon over a ran network.

    Deterministic given ``(network, config, backend)``: pair selection,
    beacon lifetimes and fault targets all derive from seeded RNGs keyed
    on stable identities, and forwarding goes through the byte-identical
    kernel contract.
    """

    def __init__(
        self,
        network: ScionNetwork,
        config: ChurnConfig,
        *,
        name: str = "churn",
        obs: Optional[Telemetry] = None,
        backend: Union[KernelBackend, str, None] = None,
    ) -> None:
        self.network = network
        self.topology = network.topology
        self.config = config
        self.name = name
        self.obs = obs if obs is not None else NULL_TELEMETRY
        self.kernel = resolve_backend(backend)
        self.routers = network.router_table
        self.latency = LatencyModel(self.topology, seed=config.latency_seed)
        self.strategy = get_strategy(config.strategy)
        self._sched_ctx = SchedulerContext(
            lambda path: self.latency.path_latency(path.link_ids),
            seed=config.seed,
        )
        #: Data-plane validation clock: hop fields are built and checked
        #: at the network's beaconing ``now``; the churn interval clock
        #: is a model layer above it.
        self.data_now = network.now

    # -------------------------------------------------------------- setup

    def _monitored_pairs(self) -> List[Tuple[int, int]]:
        """Deterministic pair pick: shuffle the leaf ASes with the run
        seed, pair them off, and prefer pairs with >= 2 candidate paths
        (multipath needs diversity to schedule over)."""
        leaves = sorted(self.topology.non_core_asns())
        rng = random.Random(self.config.seed)
        rng.shuffle(leaves)
        proposed = [
            (leaves[i], leaves[i + 1])
            for i in range(0, len(leaves) - 1, 2)
        ]
        chosen: List[Tuple[int, int]] = []
        fallback: List[Tuple[int, int]] = []
        for src, dst in proposed:
            found = self.network.lookup_paths(src, dst, now=self.data_now)
            if len(found) >= 2:
                chosen.append((src, dst))
            elif found:
                fallback.append((src, dst))
            if len(chosen) == self.config.num_pairs:
                break
        for pair in fallback:
            if len(chosen) == self.config.num_pairs:
                break
            chosen.append(pair)
        if not chosen:
            raise ValueError(
                "no monitored pairs with any candidate path; "
                "is the network converged?"
            )
        return chosen

    def _build_states(
        self, pairs: List[Tuple[int, int]]
    ) -> List[List[_PathState]]:
        config = self.config
        states: List[List[_PathState]] = []
        for src, dst in pairs:
            candidates = self.network.lookup_paths(
                src, dst, now=self.data_now
            )
            ranked = sorted(
                candidates, key=lambda p: latency_rank(self._sched_ctx, p)
            )[:MAX_PATHS_PER_PAIR]
            pair_states: List[_PathState] = []
            for path in ranked:
                key = path_key(path.asns, path.link_ids)
                packet = build_packet(
                    self.topology,
                    src,
                    dst,
                    path,
                    timestamp=self.data_now,
                    payload_bytes=PAYLOAD_BYTES,
                )
                state = _PathState(
                    path,
                    key,
                    packet,
                    self.latency.path_latency(path.link_ids),
                    config.seed,
                )
                state.expires_at = state.draw_lifetime()
                pair_states.append(state)
            states.append(pair_states)
        return states

    def _fault_windows(
        self, states: List[List[_PathState]]
    ) -> List[Tuple[int, int, int]]:
        """Seeded fault schedule: (start, end, link_id) windows over the
        links the monitored paths actually use."""
        config = self.config
        used_links = sorted(
            {link for pair in states for st in pair for link in st.links}
        )
        if not used_links:
            return []
        digest = hashlib.blake2b(
            f"fault:{config.seed}".encode("ascii"), digest_size=8
        ).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        windows = []
        start = FAULT_EVERY
        while start < config.num_intervals:
            link = used_links[rng.randrange(len(used_links))]
            windows.append((start, start + FAULT_DURATION, link))
            start += FAULT_EVERY
        return windows

    # ---------------------------------------------------------------- run

    def run(self) -> ChurnResult:
        config = self.config
        result = ChurnResult(
            name=self.name,
            strategy=config.strategy,
            k_paths=config.k_paths,
            num_intervals=config.num_intervals,
            seed=config.seed,
        )
        with self.obs.causal.span(
            "multipath", "churn", run=self.name, strategy=config.strategy
        ):
            pairs = self._monitored_pairs()
            states = self._build_states(pairs)
            windows = self._fault_windows(states)
            result.pairs = list(pairs)
            result.faults_injected = len(windows)
            for pair_states, (src, dst) in zip(states, pairs):
                for state in pair_states:
                    result.paths[state.key] = (
                        src,
                        dst,
                        state.path.asns,
                        state.path.link_ids,
                        state.propagation,
                    )
                    result.path_available_intervals[state.key] = 0
            prev_selected: List[Set[str]] = [set() for _ in pairs]
            for interval in range(config.num_intervals):
                self._run_interval(
                    interval, states, pairs, windows, prev_selected, result
                )
        self._export_metrics(result)
        return result

    def _failed_links(
        self, windows: List[Tuple[int, int, int]], interval: int
    ) -> Set[int]:
        return {
            link for start, end, link in windows if start <= interval < end
        }

    def _run_interval(
        self,
        interval: int,
        states: List[List[_PathState]],
        pairs: List[Tuple[int, int]],
        windows: List[Tuple[int, int, int]],
        prev_selected: List[Set[str]],
        result: ChurnResult,
    ) -> None:
        config = self.config
        trace = self.obs.causal
        actual_failed = self._failed_links(windows, interval)
        # SCMP discovery lag: endpoints schedule on last interval's view.
        known_failed = self._failed_links(windows, interval - 1)
        for start, _end, link in windows:
            if start == interval:
                trace.instant(
                    "multipath", "fault", interval=interval, link=link
                )

        for pair_index, (pair_states, (src, dst)) in enumerate(
            zip(states, pairs)
        ):
            # -- beacon expiry / re-issue -------------------------------
            for state in pair_states:
                if state.down_until is not None:
                    if interval >= state.down_until:
                        state.issued_at = interval
                        state.expires_at = interval + state.draw_lifetime()
                        state.down_until = None
                elif interval >= state.expires_at and interval > 0:
                    result.path_lifetimes.append(
                        state.expires_at - state.issued_at
                    )
                    result.beacon_expiries += 1
                    state.down_until = interval + REISSUE_INTERVALS
            available = [
                st for st in pair_states if st.down_until is None
            ]
            for state in available:
                result.path_available_intervals[state.key] += 1

            # -- scheduling over the known-good candidates --------------
            result.packets_offered += DEMAND_PACKETS
            schedulable = [
                st
                for st in available
                if not (st.links & known_failed)
            ]
            per_path: Dict[str, Tuple[int, int, int]] = {}
            selected_keys: Set[str] = set()
            diversity = 1.0
            if schedulable:
                by_key = {st.key: st for st in schedulable}
                split = self.strategy.split(
                    (pair_index << 20) | interval,
                    DEMAND_PACKETS,
                    [st.path for st in schedulable],
                    config.k_paths,
                    self._sched_ctx,
                )
                active = split.active
                diversity = split_diversity([a.path for a in active])
                for assignment in active:
                    key = path_key(
                        assignment.path.asns, assignment.path.link_ids
                    )
                    state = by_key[key]
                    selected_keys.add(key)
                    offered = assignment.packets
                    capped = min(offered, PATH_CAPACITY_PACKETS)
                    delivered = 0
                    if state.links & actual_failed:
                        # Scheduled onto a link that failed this interval:
                        # the first packet triggers SCMP, the subflow is
                        # lost, next interval's view routes around it.
                        result.scmp_events += 1
                    elif capped:
                        delivered, hops = self.kernel.deliver_flow(
                            self.routers,
                            state.packet,
                            capped,
                            now=self.data_now,
                        )
                        result.macs_verified += delivered * hops
                    per_path[key] = (offered, delivered, offered - delivered)
                    result.packets_delivered += delivered
                    result.packets_lost += offered - delivered
                    result.path_delivered_packets[key] = (
                        result.path_delivered_packets.get(key, 0) + delivered
                    )
            else:
                # Pair outage: demand offered, nothing schedulable.
                result.packets_lost += DEMAND_PACKETS

            # -- switch events ------------------------------------------
            switch = int(
                bool(prev_selected[pair_index])
                and selected_keys != prev_selected[pair_index]
            )
            if switch:
                result.switch_events += 1
            prev_selected[pair_index] = selected_keys

            # -- per-path rows ------------------------------------------
            pair_delivered = sum(d for _, d, _ in per_path.values())
            for state in pair_states:
                offered, delivered, lost = per_path.get(
                    state.key, (0, 0, 0)
                )
                available_flag = int(state.down_until is None)
                load = (
                    offered / PATH_CAPACITY_PACKETS if offered else 0.0
                )
                result.rows.append(
                    (
                        interval,
                        src,
                        dst,
                        state.key,
                        available_flag,
                        int(state.key in selected_keys),
                        offered,
                        delivered,
                        lost,
                        state.propagation
                        * (1.0 + QUEUEING_FACTOR * load),
                        (
                            delivered / pair_delivered
                            if pair_delivered
                            else 0.0
                        ),
                        switch if state.key in selected_keys else 0,
                        (
                            interval - state.issued_at
                            if available_flag
                            else 0
                        ),
                        diversity,
                    )
                )

    def _export_metrics(self, result: ChurnResult) -> None:
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        labels = {"strategy": result.strategy, "run": result.name}
        for name, value in (
            ("multipath.packets_offered", result.packets_offered),
            ("multipath.packets_delivered", result.packets_delivered),
            ("multipath.packets_lost", result.packets_lost),
            ("multipath.macs_verified", result.macs_verified),
            ("multipath.beacon_expiries", result.beacon_expiries),
            ("multipath.switch_events", result.switch_events),
            ("multipath.scmp_events", result.scmp_events),
            ("multipath.faults_injected", result.faults_injected),
        ):
            if value:
                metrics.counter(name, labels).inc(value)
        lifetimes = metrics.histogram(
            "multipath.path_lifetime_intervals", LIFETIME_BUCKETS, labels
        )
        for lifetime in result.path_lifetimes:
            lifetimes.observe(float(lifetime))
