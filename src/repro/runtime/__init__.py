"""Parallel experiment execution with warm-state caching.

The runtime layer fans independent runs out across a process pool,
memoizes expensive deterministic prerequisites (topologies, warm-up
snapshots, BGP measurements) to a content-addressed disk cache, and
instruments every run with a per-phase timing/counter report.

There is one dispatch path: :meth:`ExperimentRuntime.run` takes
``(topology, spec)`` pairs of any workload family, wraps each in a
:class:`Task`, runs :func:`execute_task` on it (in-process or in a pool
worker) and returns one :class:`~repro.runtime.worker.Outcome` per task,
in order. A workload family is a spec class — :class:`SeriesSpec` here,
:class:`~repro.faults.runner.FaultSpec`,
:class:`~repro.traffic.worker.TrafficSpec` and
:class:`~repro.multipath.worker.MultipathSpec` elsewhere — whose methods
say what is different about it; :mod:`repro.runtime.worker` documents
that contract and DESIGN §9 has the recipe for adding one.
"""

from .cache import (
    ExperimentCache,
    default_cache_dir,
    fingerprint,
    stable_key,
    topology_fingerprint,
)
from .instrument import PhaseRecord, RunReport
from .pool import ExperimentRuntime, WorkerPoolError, default_jobs
from .series import SeriesSpec
from .worker import Task, execute_task

__all__ = [
    "ExperimentCache",
    "ExperimentRuntime",
    "PhaseRecord",
    "RunReport",
    "SeriesSpec",
    "Task",
    "WorkerPoolError",
    "default_cache_dir",
    "default_jobs",
    "execute_task",
    "fingerprint",
    "stable_key",
    "topology_fingerprint",
]
