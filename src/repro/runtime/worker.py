"""The task envelope and the one process-pool task body.

Every experiment run — a beaconing series, a fault schedule, a traffic
workload, a churn horizon — travels to :func:`execute_task` as one
picklable :class:`Task` and comes back as one :class:`Outcome`. The body
does what every run needs exactly once: seeding, obtaining the topology,
the result-cache lookup and store, the telemetry bundle with its root
span, and the telemetry export. What differs between workload
families lives on their *spec* classes, which the body reaches through
five members:

``kind`` / ``category``
    Class constants naming the root span (``f"{kind}:{name}"``)
    and the span category of the root and its legs.
``labels()``
    The metric labels and root-span attributes of a run (``series=name``
    is prepended by the body).
``result_key(topology_fp)``
    Cache key of the run's result, or ``None`` when the family has no
    result to cache (series snapshot a warm simulation mid-run instead).
``execute(ctx)``
    The run itself, given a :class:`TaskContext`; returns the result.
``phases(outcome)``
    The :class:`~repro.runtime.instrument.PhaseRecord` rows the run
    contributes to the :class:`~repro.runtime.instrument.RunReport`.

Serial (``--jobs 1``) and pooled execution call the same body, which is
what makes their outcomes byte-identical.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..control.network import ScionNetwork
from ..obs import Telemetry
from ..obs.context import NULL_SPAN
from ..topology.model import Topology
from .cache import ExperimentCache, topology_fingerprint
from .instrument import PhaseRecord

__all__ = [
    "Task",
    "Outcome",
    "TaskContext",
    "execute_task",
    "run_control_plane",
    "control_run_phases",
]

#: Per-process memo of shipped topologies and their fingerprints, keyed
#: by ``(cache_dir, topology_key)``. The runtime seeds it when it ships a
#: topology, so in-process tasks and forked pool workers neither unpickle
#: nor re-fingerprint it; a spawned worker does both once, on first use.
_TOPOLOGY_MEMO: Dict[Tuple[str, str], Tuple[Topology, str]] = {}


def remember_topology(
    cache_dir: str, topology_key: str, topology: Topology, fingerprint: str
) -> None:
    """Record a shipped topology and the fingerprint behind its key."""
    _TOPOLOGY_MEMO[cache_dir, topology_key] = (topology, fingerprint)


@dataclass(frozen=True)
class Task:
    """A spec plus how the worker obtains its inputs and observes the run.

    Everything but ``spec`` is deliberately *not* on the spec: specs feed
    cache keys, and observing a run may change neither what it computes
    nor where it is cached.
    """

    spec: Any
    #: Inline topology (cache-less mode) ...
    topology: Optional[Topology] = None
    #: ... or a cache directory + key to load it from (cached mode, which
    #: avoids re-pickling the topology into every task submission).
    cache_dir: Optional[str] = None
    topology_key: Optional[str] = None
    #: Collect metrics + the run's span tree into the outcome.
    telemetry: bool = False
    #: Trace identity of this task (read when ``telemetry`` is set): the
    #: runtime assigns sequential indices so every task's spans land in
    #: their own trace, with ids derived from (trace_seed, trace_index) —
    #: no randomness, no clock.
    trace_index: int = 0
    trace_seed: int = 0


@dataclass
class Outcome:
    """One run's report. ``result`` is deliberately separate from
    ``timings``: the former is deterministic and compared across jobs
    counts, the latter is wall-clock noise."""

    name: str
    result: Any
    #: The result (or, for a series, its simulation snapshot) came from
    #: the cache.
    cached: bool = False
    #: Wall time per worker-side phase.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Worker-side telemetry, shipped back for the parent to merge: a
    #: MetricsRegistry snapshot and the spans of this task's trace. A
    #: cached result re-ran nothing, so it carries none.
    metrics: Optional[Dict] = None
    spans: Optional[List] = None


@dataclass
class TaskContext:
    """What :func:`execute_task` hands a spec's ``execute``."""

    task: Task
    topology: Topology
    #: ``None`` in cache-less mode, where nothing is keyed by it.
    topology_fp: Optional[str]
    cache: Optional[ExperimentCache]
    timings: Dict[str, float]
    #: The run's telemetry bundle (``None`` when not collecting); pass it
    #: as ``obs=`` to whatever the run builds.
    tel: Optional[Telemetry] = None
    root: Any = NULL_SPAN
    #: Set by a family that resumed from cached state mid-run.
    cached: bool = False
    #: Attributes stamped on the root span when the body closes it.
    root_attrs: Dict[str, Any] = field(default_factory=dict)

    def span(self, name: str, **attrs):
        """One leg of the run, for a ``with`` block: what the body
        records nests under it."""
        if self.tel is None:
            return NULL_SPAN
        return self.tel.causal.span(self.task.spec.category, name, **attrs)


def _load_topology(task: Task) -> Tuple[Topology, Optional[str]]:
    if task.topology is not None:
        return task.topology, None
    assert task.cache_dir is not None and task.topology_key is not None
    memo_key = (task.cache_dir, task.topology_key)
    entry = _TOPOLOGY_MEMO.get(memo_key)
    if entry is None:
        hit, topology = ExperimentCache(task.cache_dir).load(task.topology_key)
        if not hit:
            raise RuntimeError(
                f"topology {task.topology_key!r} missing from cache "
                f"{task.cache_dir!r} (evicted mid-run?)"
            )
        entry = _TOPOLOGY_MEMO[memo_key] = (
            topology,
            topology_fingerprint(topology),
        )
    return entry


def execute_task(task: Task) -> Outcome:
    """Run one task; the process-pool task body."""
    spec = task.spec
    # Deterministic per-worker seeding: the engines are seed-driven, this
    # pins any library RNG use to a reproducible state.
    random.seed(spec.seed)
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    topology, topology_fp = _load_topology(task)
    cache = ExperimentCache(task.cache_dir) if task.cache_dir else None
    result_key = spec.result_key(topology_fp) if cache else None
    timings["setup"] = time.perf_counter() - start

    if result_key is not None:
        hit, result = cache.load(result_key)
        if hit:
            return Outcome(spec.name, result, cached=True, timings=timings)

    ctx = TaskContext(task, topology, topology_fp, cache, timings)
    if task.telemetry:
        labels = spec.labels()
        ctx.tel = Telemetry.collecting(
            labels={"series": spec.name, **labels}
        )
        # Root span of this task's trace. Ids derive from (trace_seed,
        # trace_index) and times from the tracer's logical tick counter,
        # so the spans are equal whether the task ran in-process or in a
        # pool worker (but for the worker lane and the wall seconds,
        # which comparisons ``scrub``). It is ambient before the run
        # builds anything, so every span the run records lands in this
        # tree.
        causal = ctx.tel.causal
        causal.configure(seed=task.trace_seed, worker=f"pid{os.getpid()}")
        ctx.root = causal.root(
            task.trace_index,
            spec.category,
            f"{spec.kind}:{spec.name}",
            **labels,
        )
        causal.current = ctx.root.ctx

    result = spec.execute(ctx)
    ctx.root.end(**ctx.root_attrs)

    if result_key is not None:
        cache.store(result_key, result)
    outcome = Outcome(spec.name, result, cached=ctx.cached, timings=timings)
    if ctx.tel is not None:
        outcome.metrics = ctx.tel.metrics.snapshot()
        outcome.spans = ctx.tel.causal.export()
    return outcome


def run_control_plane(ctx: TaskContext) -> ScionNetwork:
    """The ``control`` phase of data-plane families: beaconing, path
    servers and segment registration for the spec's control-plane fields.

    Always a fresh network, never a per-process memo: a
    :class:`~repro.control.network.ScionNetwork` carries warm lookup
    caches, so sharing one between tasks would make a task's cache-hit
    counts depend on which tasks ran in its process before it — breaking
    the jobs determinism contract.
    """
    spec = ctx.task.spec
    start = time.perf_counter()
    with ctx.span("control"):
        network = ScionNetwork(
            ctx.topology,
            algorithm=spec.algorithm,
            core_config=spec.core_config,
            intra_config=spec.intra_config,
            obs=ctx.tel,
        ).run()
    ctx.timings["control"] = time.perf_counter() - start
    return network


def control_run_phases(
    outcome: Outcome, counters: Dict[str, float]
) -> List[PhaseRecord]:
    """The ``RunReport`` rows of a family whose run is
    :func:`run_control_plane` plus one ``run`` leg carrying ``counters``."""
    timings = outcome.timings
    return [
        PhaseRecord(
            f"{outcome.name}:control",
            timings.get("control", 0.0),
            outcome.cached,
        ),
        PhaseRecord(
            f"{outcome.name}:run",
            timings.get("run", 0.0),
            outcome.cached,
            counters,
        ),
    ]
