"""repro.multipath — per-flow multipath scheduling, path-churn horizons,
and an ML-ready path dataset exporter (ROADMAP item 5).

Three layers, bottom up:

* :mod:`~repro.multipath.scheduler` — pure per-flow strategies splitting
  a flow across up to ``k`` candidate paths (single, round-robin,
  weighted-ecmp, max-disjoint, and the traffic engine's k=1 policies
  shortest-latency, most-disjoint, least-utilized), resolved by name
  through :func:`get_strategy` and all satisfying the axioms in
  :mod:`~repro.multipath.axioms` (efficiency, loop-freedom, fairness);
* :mod:`~repro.multipath.churn` — a long-horizon driver layering beacon
  expiry, link-fault schedules and per-interval re-selection over a ran
  network, forwarding real hop-field packets through the kernel
  backends;
* :mod:`~repro.multipath.dataset` — a versioned, schema-validated,
  content-addressed exporter of the per-path time series churn runs
  produce.

Import order matters: ``scheduler`` and ``axioms`` are dependency-free
within the package, ``churn`` builds on ``scheduler``, and ``dataset`` /
``worker`` build on ``churn`` — keeping the traffic engine's lazy
imports of :func:`get_strategy` cycle-free.
"""

from .scheduler import (  # noqa: F401  (re-exports)
    POLICY_NAMES,
    STRATEGY_NAMES,
    MultipathScheduler,
    PathAssignment,
    PathSplit,
    SchedulerContext,
    get_strategy,
    largest_remainder,
    split_diversity,
)
from .axioms import (  # noqa: F401
    AxiomViolation,
    check_all_strategies,
    check_efficiency,
    check_fairness,
    check_loop_freedom,
    check_split,
    check_strategy,
    synthetic_universe,
)
from .churn import (  # noqa: F401
    ROW_FIELDS,
    ChurnConfig,
    ChurnDriver,
    ChurnResult,
)
from .dataset import (  # noqa: F401
    DATASET_FIELDS,
    SCHEMA_VERSION,
    DatasetError,
    validate_dataset,
    write_dataset,
)
from .worker import MultipathSpec  # noqa: F401

__all__ = [
    "STRATEGY_NAMES",
    "POLICY_NAMES",
    "MultipathScheduler",
    "PathAssignment",
    "PathSplit",
    "SchedulerContext",
    "get_strategy",
    "largest_remainder",
    "split_diversity",
    "AxiomViolation",
    "check_efficiency",
    "check_loop_freedom",
    "check_fairness",
    "check_split",
    "check_strategy",
    "check_all_strategies",
    "synthetic_universe",
    "ChurnConfig",
    "ChurnDriver",
    "ChurnResult",
    "ROW_FIELDS",
    "SCHEMA_VERSION",
    "DATASET_FIELDS",
    "DatasetError",
    "write_dataset",
    "validate_dataset",
    "MultipathSpec",
]
