"""The experiment execution layer: process pool + cache + instrumentation.

:class:`ExperimentRuntime` is what the figure harnesses run their work
through. It owns three orthogonal concerns:

* **fan-out** — independent runs of any workload family (each
  storage-limit/algorithm combination of Figures 5-9, fault schedules,
  traffic workloads, churn horizons) go through :meth:`ExperimentRuntime.
  run`, the one ``ProcessPoolExecutor`` dispatch; ``jobs == 1`` executes
  the *same* task body in-process, which keeps tests deterministic and is
  the reference the parallel path must match byte-for-byte;
* **caching** — expensive shared prerequisites (topology construction,
  warm-up snapshots, converged BGP measurements) are memoized to disk via
  :class:`~repro.runtime.cache.ExperimentCache`; pass ``cache=None`` to
  disable;
* **observability** — every phase lands in a
  :class:`~repro.runtime.instrument.RunReport`, including the per-series
  worker-side timings, so cache hits and parallel speedup are visible in
  the CLI output and the benchmark JSON.

The beaconing workload is embarrassingly parallel across series (and, for
the figures, across origin ASes within the per-pair analysis), so the
wall-time win is roughly the worker count for the series-heavy figures.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs import Telemetry
from ..topology.model import Topology
from .cache import ExperimentCache, stable_key, topology_fingerprint
from .instrument import RunReport
from .worker import Outcome, Task, execute_task, remember_topology

__all__ = ["ExperimentRuntime", "WorkerPoolError", "default_jobs"]


class WorkerPoolError(RuntimeError):
    """A pool worker died before every task had produced its outcome."""


def default_jobs() -> int:
    """``$REPRO_JOBS``, else the machine's CPU count."""
    override = os.environ.get("REPRO_JOBS")
    if not override:
        return os.cpu_count() or 1
    try:
        return max(1, int(override))
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer worker count, got {override!r}"
        ) from None


class ExperimentRuntime:
    """Runs experiment work with fan-out, caching and timing.

    ``cache`` may be an :class:`ExperimentCache`, a directory path, or
    ``None`` (no caching, the default — unit tests and library callers get
    pure functions unless they opt in).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[ExperimentCache, os.PathLike, str, None] = None,
        report: Optional[RunReport] = None,
        telemetry: Optional[Telemetry] = None,
        backend: str = "python",
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        # Fail fast (and with the install hint) before any work is
        # dispatched when the backend is unknown or unavailable.
        from ..kernels import get_backend

        get_backend(backend)
        #: Kernel backend name every task computes through. Byte-identical
        #: results by contract (see ``repro.kernels``), so this changes
        #: wall time only — never results or cache keys.
        self.backend = backend
        self.jobs = jobs
        if cache is None or isinstance(cache, ExperimentCache):
            self.cache = cache
        else:
            self.cache = ExperimentCache(cache)
        self.report = report if report is not None else RunReport(jobs=jobs)
        self.report.jobs = jobs
        self.report.backend = backend
        #: When set (and enabled), workers collect per-task registries and
        #: trace streams that are merged back here — commutatively, in task
        #: order — so ``--jobs N`` snapshots match ``--jobs 1`` byte for
        #: byte.
        self.telemetry = telemetry
        #: Next trace index. Assigned sequentially at task-prepare
        #: time (deterministic submission order), so every task's trace id
        #: is a pure function of (seed, position) — independent of which
        #: worker runs it or when it completes.
        self._trace_index = 0
        #: Topologies already shipped: ``id(topology) -> (topology, key)``.
        self._shipped: Dict[int, Tuple[Topology, str]] = {}

    # --------------------------------------------------------- telemetry

    @property
    def _collecting(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def _merge_telemetry(self, outcome: Outcome) -> None:
        if not self._collecting:
            return
        extra = (
            {"experiment": self.report.experiment}
            if self.report.experiment
            else None
        )
        self.telemetry.merge_outcome(
            outcome.metrics, outcome.spans, extra_labels=extra
        )
        self.report.counters = self.telemetry.metrics.counter_totals()

    # ------------------------------------------------------- cached values

    def cached_value(
        self,
        kind: str,
        key_parts: Sequence[Any],
        build: Callable[[], Any],
        *,
        phase: Optional[str] = None,
    ) -> Any:
        """Build-or-load a deterministic prerequisite, timed as a phase."""
        phase_name = phase or kind
        if self.cache is None:
            with self.report.phase(phase_name):
                return build()
        key = stable_key(kind, list(key_parts))
        with self.report.phase(phase_name) as record:
            hit, value = self.cache.get_or_build(key, build)
            record.cached = hit
        return value

    # ----------------------------------------------------------- fan-out

    def run(self, tasks: Sequence[Tuple[Topology, Any]]) -> List[Outcome]:
        """Execute ``(topology, spec)`` runs of any workload family,
        possibly in parallel.

        Returns outcomes in task order regardless of completion order, so
        results are independent of scheduling; ``jobs == 1`` calls the
        same task body in-process, so ``--jobs 1`` and ``--jobs N`` are
        pickle-identical.
        """
        telemetry = self._collecting
        trace_seed = self.telemetry.causal.seed if telemetry else 0
        prepared = []
        for topology, spec in tasks:
            cache_dir, topology_key = self._ship_topology(topology)
            prepared.append(
                Task(
                    spec=spec,
                    topology=topology if cache_dir is None else None,
                    cache_dir=cache_dir,
                    topology_key=topology_key,
                    telemetry=telemetry,
                    backend=self.backend,
                    trace_index=self._trace_index,
                    trace_seed=trace_seed,
                )
            )
            self._trace_index += 1
        workers = min(self.jobs, len(prepared))
        if workers <= 1:
            outcomes = [execute_task(task) for task in prepared]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(execute_task, t) for t in prepared]
                try:
                    outcomes = [future.result() for future in futures]
                except BrokenProcessPool as exc:
                    # A dead worker fails every future still pending, so
                    # name what is missing instead of the pool internals.
                    lost = [
                        task.spec.name
                        for task, future in zip(prepared, futures)
                        if not future.done() or future.exception()
                    ]
                    raise WorkerPoolError(
                        f"a worker process died; {len(lost)} of "
                        f"{len(prepared)} tasks produced no outcome: "
                        + ", ".join(lost)
                    ) from exc
        for task, outcome in zip(prepared, outcomes):
            self.report.phases.extend(task.spec.phases(outcome))
            self._merge_telemetry(outcome)
        return outcomes

    def _ship_topology(
        self, topology: Topology
    ) -> Tuple[Optional[str], Optional[str]]:
        """Store the topology in the cache once; workers load it by key.
        Returns ``(None, None)`` in cache-less mode (inline shipping).

        Fingerprinted, verified and stored once per runtime and topology
        object: a topology handed to :meth:`run` is treated as immutable
        from then on (cache-less tasks already share it by reference).
        """
        if self.cache is None:
            return None, None
        cache_dir = str(self.cache.directory)
        shipped = self._shipped.get(id(topology))
        if shipped is None:
            fingerprint = topology_fingerprint(topology)
            topology_key = stable_key("topology", fingerprint)
            # load() rather than contains(): a corrupted entry must be
            # replaced here, not first discovered by a worker that can't
            # rebuild it.
            hit, _ = self.cache.load(topology_key)
            if not hit:
                self.cache.store(topology_key, topology)
            remember_topology(cache_dir, topology_key, topology, fingerprint)
            # Holding the topology keeps its id() from being reused.
            shipped = self._shipped[id(topology)] = (topology, topology_key)
        return cache_dir, shipped[1]
