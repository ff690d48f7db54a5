"""The beaconing-series workload family.

A *series* is one beaconing run — one (algorithm, storage limit, eviction
policy, mode) combination of Figures 5-9 — plus the per-series collection
the figure needs (bytes received per monitor, path-set resilience per AS
pair, per-interface bandwidth).

A series with ``warmup_intervals > 0`` reads its AS pairs after every
measured interval and reports each pair's mean over the window; a series
without reads them once, at the end of its run.

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
from typing import ClassVar, Dict, List, Tuple

from ..analysis.resilience import stored_path_resilience
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    algorithm_factory,
)
from .cache import stable_key
from .instrument import PhaseRecord
from .worker import Outcome, TaskContext

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
    resilience: List[float] = field(default_factory=list)
    interface_bandwidths: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class SeriesSpec:
    """One beaconing series and what to collect from it."""

    kind: ClassVar[str] = "series"
    category: ClassVar[str] = "runtime"

    name: str
    #: ``"baseline"`` or ``"diversity"`` — resolved to a factory in the
    #: worker (factory closures don't pickle; names do).
    algorithm: str
    config: BeaconingConfig
    warmup_intervals: int = 0
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
        topology, cache, tel = ctx.topology, ctx.cache, ctx.tel
        config = self.config
        factory = algorithm_factory(self.algorithm)

        start = time.perf_counter()
        with ctx.span("setup"):
            snapshot_key = (
                self.snapshot_key(ctx.topology_fp) if cache else None
            )
        ctx.timings["setup"] += time.perf_counter() - start

        def store_sim(sim: BeaconingSimulation) -> None:
            if snapshot_key is not None:
                cache.store(snapshot_key, sim)

        # --- warm-up (or full run), snapshot-cached -----------------------
        start = time.perf_counter()
        sim = readings = None
        if snapshot_key is not None:
            _, sim = cache.load(snapshot_key)
            ctx.cached = sim is not None
        if self.warmup_intervals:
            with ctx.span("warmup", cached=ctx.cached):
                if sim is None:
                    sim = BeaconingSimulation(topology, factory, config)
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
                readings = stored_path_resilience(
                    sim, self.collect_pairs, config.num_intervals
                )
        else:
            with ctx.span("measure", cached=ctx.cached):
                if sim is None:
                    sim = BeaconingSimulation(
                        topology, factory, config, obs=tel
                    )
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
            if readings is None:
                readings = stored_path_resilience(sim, self.collect_pairs)
            result.resilience = readings
            if self.collect_bandwidth:
                result.interface_bandwidths = metrics.per_interface_bandwidth(
                    result.duration, interfaces=sim.directed_interfaces()
                )
        ctx.timings["analyze"] = time.perf_counter() - start

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
