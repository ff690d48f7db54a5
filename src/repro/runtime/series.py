"""The beaconing-series workload family.

A *series* is one beaconing run — one (algorithm, storage limit, eviction
policy, mode) combination of Figures 5-9 — plus the per-series collection
the figure needs (bytes received per monitor, path-set resilience per AS
pair, per-interface bandwidth).

A series caches no result; it snapshots the *simulation*: a series with
``warmup_intervals > 0`` snapshots it after the warm-up (metrics reset),
keyed by the content hash of topology + algorithm + beaconing config; a
series without warm-up snapshots the completed run. Either way a rerun
skips straight to the uncached part. Snapshots are byte-faithful pickles
of the simulation, so a resumed run is bit-identical to an uninterrupted
one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ..analysis.resilience import path_set_resilience
from ..core.scoring import DiversityParams
from ..simulation.beaconing import BeaconingConfig, algorithm_factory
from .cache import stable_key
from .instrument import PhaseRecord
from .worker import Outcome, TaskContext, build_beaconing, close_beaconing

__all__ = ["SeriesSpec", "SeriesResult"]


@dataclass
class SeriesResult:
    """Everything a figure reads from one series, picklable and small."""

    #: Measured window in seconds (``num_intervals * interval``).
    duration: float
    intervals_run: int = 0
    total_pcbs: int = 0
    total_bytes: int = 0
    received_bytes: Dict[int, int] = field(default_factory=dict)
    received_pcbs: Dict[int, int] = field(default_factory=dict)
    #: Aligned with ``spec.collect_pairs``.
    resilience: List[int] = field(default_factory=list)
    interface_bandwidths: List[float] = field(default_factory=list)
    #: Stored path count per ``spec.collect_pairs`` pair.
    path_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesSpec:
    """One beaconing series and what to collect from it."""

    kind: ClassVar[str] = "series"
    category: ClassVar[str] = "runtime"

    name: str
    #: ``"baseline"`` or ``"diversity"`` — resolved to a factory in the
    #: worker (factory closures don't pickle; names + params do).
    algorithm: str
    config: BeaconingConfig
    warmup_intervals: int = 0
    dissemination_limit: int = 5
    params: Optional[DiversityParams] = None
    seed: int = 0
    #: ASNs whose received bytes/PCBs the figure reads (Figure 5 monitors).
    collect_received: Tuple[int, ...] = ()
    #: (origin, receiver) pairs to evaluate path-set resilience for
    #: (Figures 6-8); the max-flow analysis runs inside the worker.
    collect_pairs: Tuple[Tuple[int, int], ...] = ()
    #: Collect the per-interface bandwidth CDF input (Figure 9), reported
    #: over the topology's *full* directed-interface set.
    collect_bandwidth: bool = False

    def labels(self) -> Dict[str, str]:
        return {"algorithm": self.algorithm, "mode": self.config.mode.value}

    def result_key(self, topology_fp: str) -> None:
        """Series cache a simulation snapshot (:meth:`snapshot_key`)."""
        return None

    def snapshot_key(self, topology_fp: str) -> str:
        """Cache key of this series' simulation snapshot.

        A warm-up snapshot is independent of the measurement duration, so
        sibling series that share warm-up but measure different windows hit
        the same entry; a full-run snapshot includes the duration.
        """
        config = self.config
        shared = [
            topology_fp,
            self.algorithm,
            self.dissemination_limit,
            self.params,
            config.interval,
            config.pcb_lifetime,
            config.storage_limit,
            config.eviction_policy,
            config.mode,
            self.seed,
        ]
        if self.warmup_intervals:
            return stable_key("warm-sim", shared, self.warmup_intervals)
        return stable_key("run-sim", shared, config.duration)

    def execute(self, ctx: TaskContext) -> SeriesResult:
        task, topology, cache, tel = ctx.task, ctx.topology, ctx.cache, ctx.tel
        config = self.config
        factory = algorithm_factory(
            self.algorithm, self.dissemination_limit, self.params, task.backend
        )

        start = time.perf_counter()
        with ctx.span("setup"):
            snapshot_key = (
                self.snapshot_key(ctx.topology_fp) if cache else None
            )
            sharded = task.shards > 1
            plan = None
            shard_keys: List[str] = []
            if sharded:
                # Imported lazily, as in ``build_beaconing``.
                from ..shard import partition_topology

                plan = partition_topology(topology, task.shards)
                if snapshot_key is not None:
                    # Warm state is cached per shard: each shard's simulation
                    # pickles under its own key derived from the single-process
                    # snapshot key, so different shard counts never mix states.
                    shard_keys = [
                        stable_key(
                            "shard-sim", snapshot_key, plan.num_shards, index
                        )
                        for index in range(plan.num_shards)
                    ]
        ctx.timings["setup"] += time.perf_counter() - start

        def build_sim(states=None):
            return build_beaconing(
                ctx, factory, config, plan=plan, initial_states=states
            )

        def store_sim(sim) -> None:
            if snapshot_key is None:
                return
            if sharded:
                for key, state in zip(shard_keys, sim.snapshot_states()):
                    cache.store(key, state)
            else:
                cache.store(snapshot_key, sim)

        # --- warm-up (or full run), snapshot-cached -----------------------
        start = time.perf_counter()
        sim = None
        if snapshot_key is not None:
            if sharded:
                states: Optional[list] = []
                for key in shard_keys:
                    hit, state = cache.load(key)
                    if not hit:
                        # All-or-nothing: a partial set of shard snapshots
                        # rebuilds from scratch rather than mixing epochs.
                        states = None
                        break
                    states.append(state)
                if states is not None:
                    sim = build_sim(states)
            else:
                _, sim = cache.load(snapshot_key)
            ctx.cached = sim is not None
        if self.warmup_intervals:
            with ctx.span("warmup", cached=ctx.cached):
                if sim is None:
                    sim = build_sim()
                    sim.run_intervals(self.warmup_intervals)
                    sim.reset_metrics()
                    store_sim(sim)
            ctx.timings["warmup"] = time.perf_counter() - start
            # Telemetry attaches after the warm-up (cached or not), so only
            # the measured window is observed — identically on both paths.
            if tel is not None:
                sim.attach_telemetry(tel)
            start = time.perf_counter()
            with ctx.span("measure", intervals=config.num_intervals):
                sim.run_intervals(config.num_intervals)
        else:
            fresh = sim is None
            if fresh:
                # Built and attached outside the leg: shards join the
                # trace under what is ambient here and leave it at
                # ``close()`` below, so both must see the root.
                sim = build_sim()
                if tel is not None:
                    sim.attach_telemetry(tel)
            with ctx.span("measure", cached=ctx.cached):
                if fresh:
                    sim.run()
                    store_sim(sim)
        ctx.timings["measure"] = time.perf_counter() - start

        result = SeriesResult(
            duration=config.num_intervals * config.interval,
            intervals_run=sim.intervals_run,
            total_pcbs=sim.metrics.total_pcbs,
            total_bytes=sim.metrics.total_bytes,
        )

        # --- figure-specific collection ----------------------------------
        start = time.perf_counter()
        with ctx.span("analyze"):
            metrics = sim.metrics
            for asn in self.collect_received:
                result.received_bytes[asn] = metrics.bytes_received_by(asn)
                result.received_pcbs[asn] = metrics.pcbs_received_by(asn)
            for origin, receiver in self.collect_pairs:
                paths = [
                    pcb.link_ids() for pcb in sim.paths_at(receiver, origin)
                ]
                result.path_counts[(origin, receiver)] = len(paths)
                result.resilience.append(
                    path_set_resilience(topology, origin, receiver, paths)
                )
            if self.collect_bandwidth:
                result.interface_bandwidths = metrics.per_interface_bandwidth(
                    result.duration, interfaces=sim.directed_interfaces()
                )
        ctx.timings["analyze"] = time.perf_counter() - start

        close_beaconing(ctx, sim)
        ctx.root_attrs.update(
            intervals=result.intervals_run,
            pcbs=result.total_pcbs,
            cached=ctx.cached,
        )
        return result

    def phases(self, outcome: Outcome) -> List[PhaseRecord]:
        timings, result = outcome.timings, outcome.result
        counters = {
            "intervals": result.intervals_run,
            "pcbs": result.total_pcbs,
            "bytes": result.total_bytes,
        }
        name = outcome.name
        if "warmup" in timings:
            rows = [
                PhaseRecord(
                    f"{name}:warmup", timings["warmup"], outcome.cached
                ),
                PhaseRecord(
                    f"{name}:measure",
                    timings.get("measure", 0.0),
                    counters=counters,
                ),
            ]
        else:
            # Full-run series: the counters belong to the run phase.
            rows = [
                PhaseRecord(
                    f"{name}:run",
                    timings.get("measure", 0.0),
                    outcome.cached,
                    counters,
                )
            ]
        if result.resilience or result.interface_bandwidths:
            rows.append(
                PhaseRecord(f"{name}:analyze", timings.get("analyze", 0.0))
            )
        return rows
