"""repro.obs — zero-dependency observability for the whole stack.

Three cooperating pieces, bundled by :class:`Telemetry`:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms with labels and quantiles, JSON snapshots,
  and an order-independent merge for process-pool fan-out;
* :class:`~repro.obs.context.CausalTracer` — the one span recorder:
  span trees with deterministic trace/span ids and a wall-seconds field
  per span (the one timer), parent links across process boundaries,
  commutative stitching, written as JSONL and read by
  ``tools/obs_report.py``;
* :class:`~repro.obs.flight.FlightRecorder` — bounded per-subsystem
  event rings dumped as a JSONL post-mortem on failure triggers.

SLO evaluation (:mod:`repro.obs.slo`) reads the registry; it carries no
state of its own and so is not part of the bundle.

Instrumented components default to :data:`NULL_TELEMETRY`, whose parts
are all disabled: the hot-path cost of unused telemetry is an attribute
load and a no-op call, never a format or an allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .context import (
    CausalTracer,
    TraceContext,
    causal_to_chrome,
    scrub,
    span_problems,
)
from .flight import FlightRecorder
from .log import configure as configure_logging
from .log import get_reporter
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .slo import (
    DEFAULT_SERVICE_SLOS,
    SLOSpec,
    evaluate_slos,
    slo_summary,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CausalTracer",
    "TraceContext",
    "FlightRecorder",
    "SLOSpec",
    "DEFAULT_SERVICE_SLOS",
    "evaluate_slos",
    "slo_summary",
    "Telemetry",
    "NULL_TELEMETRY",
    "configure_logging",
    "get_reporter",
    "causal_to_chrome",
    "scrub",
    "span_problems",
]


@dataclass
class Telemetry:
    """The observability bundle instrumented components accept."""

    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=False)
    )
    causal: CausalTracer = field(
        default_factory=lambda: CausalTracer(enabled=False)
    )
    flight: FlightRecorder = field(
        default_factory=lambda: FlightRecorder(enabled=False)
    )

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.causal.enabled

    @classmethod
    def collecting(
        cls, *, labels: Optional[Mapping[str, str]] = None
    ) -> "Telemetry":
        """A fully enabled bundle; ``labels`` tag every metric recorded."""
        return cls(
            metrics=MetricsRegistry(enabled=True, const_labels=labels),
            causal=CausalTracer(enabled=True),
            flight=FlightRecorder(enabled=True),
        )

    def merge_outcome(
        self,
        metrics_snapshot: Optional[Mapping],
        spans: Optional[list],
        *,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold one worker outcome (snapshot + spans) into this bundle."""
        if metrics_snapshot:
            self.metrics.merge_snapshot(
                metrics_snapshot, extra_labels=extra_labels
            )
        if spans:
            self.causal.extend(spans)


#: Shared disabled bundle; the default for every instrumented component.
NULL_TELEMETRY = Telemetry()
