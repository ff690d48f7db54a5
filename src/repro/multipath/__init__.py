"""repro.multipath — per-flow multipath scheduling, path-churn horizons,
and an ML-ready path dataset exporter.

Three layers, bottom up:

* :mod:`~repro.multipath.scheduler` — pure per-flow strategies splitting
  a flow across up to ``k`` candidate paths (single, round-robin,
  weighted-ecmp, max-disjoint, and the traffic engine's k=1 policies
  shortest-latency, most-disjoint, least-utilized), resolved by name
  through :func:`get_strategy` and all satisfying the axioms in
  :mod:`~repro.multipath.axioms` (efficiency, loop-freedom, fairness);
* :mod:`~repro.multipath.churn` — a long-horizon driver layering beacon
  expiry, link-fault schedules and per-interval re-selection over a ran
  network, forwarding real hop-field packets through a kernel
  backend;
* :mod:`~repro.multipath.dataset` — a versioned, schema-validated,
  content-addressed exporter of the per-path time series churn runs
  produce.

``scheduler`` and ``axioms`` depend on nothing else in the package,
``churn`` builds on ``scheduler``, and ``dataset`` / ``worker`` build on
``churn`` — keeping the traffic engine's lazy imports of
:func:`~repro.multipath.scheduler.get_strategy` cycle-free.
"""

from .churn import ChurnConfig  # noqa: F401
from .worker import MultipathSpec  # noqa: F401

__all__ = ["ChurnConfig", "MultipathSpec"]
