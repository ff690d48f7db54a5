"""Lightweight timing/counter instrumentation for experiment runs.

Every run through :class:`~repro.runtime.pool.ExperimentRuntime` produces a
:class:`RunReport`: one :class:`PhaseRecord` per pipeline phase (topology
construction, per-series warm-up, measurement, analysis) with wall time,
whether the phase was served from the cache, and domain counters (beaconing
intervals executed, PCBs disseminated, bytes on the wire). The report is
what makes cache behavior observable — a warm-up phase served from the
snapshot cache shows up as ``cached`` with near-zero wall time — and it is
serializable for the benchmark JSON trajectory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, Iterator, List, Optional

__all__ = ["PhaseRecord", "RunReport"]


@dataclass
class PhaseRecord:
    """One timed phase of an experiment run."""

    name: str
    seconds: float = 0.0
    #: Whether the phase's work was skipped by a cache hit.
    cached: bool = False
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "counters": dict(self.counters),
        }


@dataclass
class RunReport:
    """Per-phase wall time and counters of one experiment invocation."""

    experiment: str = ""
    scale: str = ""
    jobs: int = 1
    #: Beaconing shard count the run was configured with (``--shards``).
    shards: int = 1
    #: Kernel backend the run computed through (``--backend``).
    backend: str = "python"
    phases: List[PhaseRecord] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)
    #: Run-level aggregates folded in from the telemetry registry
    #: (``repro.obs``) when the run collected metrics.
    counters: Dict[str, float] = field(default_factory=dict)
    #: SLO compliance summary (``repro.obs.slo``), populated when the run
    #: evaluated objectives against its collected registry.
    slo: Dict = field(default_factory=dict)

    @contextmanager
    def phase(
        self, name: str, *, cached: bool = False
    ) -> Iterator[PhaseRecord]:
        """Time a block as one phase; the record is open for counters."""
        record = PhaseRecord(name=name, cached=cached)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - start
            self.phases.append(record)

    def add_phase(
        self,
        name: str,
        seconds: float,
        *,
        cached: bool = False,
        counters: Optional[Dict[str, float]] = None,
    ) -> PhaseRecord:
        record = PhaseRecord(
            name=name,
            seconds=seconds,
            cached=cached,
            counters=dict(counters or {}),
        )
        self.phases.append(record)
        return record

    # ------------------------------------------------------------- queries

    def find(self, name: str) -> Optional[PhaseRecord]:
        for record in self.phases:
            if record.name == name:
                return record
        return None

    def cached_phases(self) -> List[str]:
        return [record.name for record in self.phases if record.cached]

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.phases)

    def to_dict(self) -> Dict:
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "jobs": self.jobs,
            "shards": self.shards,
            "backend": self.backend,
            "started_at": datetime.fromtimestamp(
                self.started_at, tz=timezone.utc
            ).isoformat(),
            "total_seconds": round(self.total_seconds, 6),
            "counters": dict(self.counters),
            "slo": dict(self.slo),
            "phases": [record.to_dict() for record in self.phases],
        }

    def render(self) -> str:
        """Monospace timing table (delegates to the experiments renderer)."""
        from ..experiments.report import format_timing_report

        return format_timing_report(self)
