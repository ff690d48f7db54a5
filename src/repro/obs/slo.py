"""Declarative service-level objectives with error-budget accounting.

An :class:`SLOSpec` names an objective over instruments already in the
:class:`~repro.obs.metrics.MetricsRegistry` — no extra hot-path
recording. Two kinds:

``latency``
    The fraction of observations at or under ``threshold`` seconds must
    reach ``objective``. Evaluated from histogram buckets, so thresholds
    should sit on a bucket bound (e.g. one of
    ``SERVICE_LATENCY_BUCKETS``) — there the good-count is *exact*, not
    interpolated, keeping evaluation deterministic across replays.

``error_rate``
    The fraction of counter increments whose ``BAD_LABEL`` is **not** in
    ``BAD_VALUES`` must reach ``objective``.

``match`` restricts evaluation to label sets carrying the given pairs
(e.g. only ``kind=lookup_paths`` latencies); instruments matching on a
superset of labels are merged, mirroring a PromQL ``sum by`` selection.

Error budgets follow the SRE convention: a run of ``total`` events at
objective ``o`` grants ``(1 - o) * total`` allowed failures; ``burn`` is
the fraction of that grant already spent (burn > 1 means the SLO is
blown). :func:`evaluate_slos` is pure; the service session evaluates it
once post-run for the report, and ``tools/obs_report.py slo`` renders the
summary and gates on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .metrics import MetricsRegistry

__all__ = [
    "SLOSpec",
    "SLOResult",
    "DEFAULT_SERVICE_SLOS",
    "evaluate_slos",
    "slo_summary",
]

#: Error-rate SLOs: the label that marks failures, and its bad values.
BAD_LABEL = "status"
BAD_VALUES = ("timeout", "failed")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over an existing metric."""

    name: str
    metric: str
    kind: str  # "latency" | "error_rate"
    objective: float
    #: Latency SLOs: the per-event deadline in seconds (ideally a bucket
    #: bound of the underlying histogram for exact evaluation).
    threshold: float = 0.0
    #: Only label sets carrying all these pairs participate.
    match: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective <= 1.0:
            raise ValueError("objective must be in (0, 1]")


@dataclass
class SLOResult:
    """The outcome of evaluating one spec against a registry."""

    spec: SLOSpec
    total: int = 0
    good: int = 0
    exact: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def bad(self) -> int:
        return self.total - self.good

    @property
    def attained(self) -> float:
        if self.total == 0:
            return 1.0
        return self.good / self.total

    @property
    def compliant(self) -> bool:
        # An objective whose metric was never exported has met nothing:
        # a service that stops publishing it must fail the gate.
        return "no_data" not in self.notes and (
            self.attained >= self.spec.objective
        )

    def budget(self) -> Dict[str, float]:
        allowed = (1.0 - self.spec.objective) * self.total
        spent = float(self.bad)
        burn = spent / allowed if allowed > 1e-12 else (
            0.0 if spent == 0 else float(self.total or 1)
        )
        return {
            "allowed": round(allowed, 9),
            "spent": spent,
            "remaining": round(max(0.0, allowed - spent), 9),
            "burn": round(burn, 9),
        }

    def to_dict(self) -> Dict:
        spec = self.spec
        entry = {
            "name": spec.name,
            "kind": spec.kind,
            "metric": spec.metric,
            "objective": spec.objective,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "attained": round(self.attained, 9),
            "compliant": self.compliant,
            "budget": self.budget(),
        }
        if spec.kind == "latency":
            entry["threshold"] = spec.threshold
        if spec.match:
            entry["match"] = dict(spec.match)
        if self.notes:
            entry["notes"] = list(self.notes)
        return entry


def _matches(labels: Mapping[str, str], match: Tuple[Tuple[str, str], ...]) -> bool:
    return all(labels.get(key) == value for key, value in match)


def _evaluate_latency(registry: MetricsRegistry, spec: SLOSpec) -> SLOResult:
    result = SLOResult(spec)
    matched = 0
    for labels, histogram in registry.histograms_named(spec.metric):
        if not _matches(labels, spec.match):
            continue
        matched += 1
        cumulative = 0
        aligned = False
        for bound, count in zip(histogram.bounds, histogram.counts):
            if bound > spec.threshold + 1e-12:
                break
            cumulative += count
            if abs(bound - spec.threshold) <= 1e-12:
                aligned = True
        result.total += histogram.count
        result.good += cumulative
        if not aligned:
            # The threshold sits between bounds: the cumulative count at
            # the last bound at-or-under it is a conservative good-count.
            result.exact = False
    if matched == 0:
        result.notes.append("no_data")
    elif not result.exact:
        result.notes.append("threshold_between_buckets")
    return result


def _evaluate_error_rate(registry: MetricsRegistry, spec: SLOSpec) -> SLOResult:
    result = SLOResult(spec)
    matched = 0
    for labels, counter in registry.counters_named(spec.metric):
        if not _matches(labels, spec.match):
            continue
        matched += 1
        count = int(round(counter.value))
        result.total += count
        if labels.get(BAD_LABEL) not in BAD_VALUES:
            result.good += count
    if matched == 0:
        result.notes.append("no_data")
    return result


def evaluate_slos(
    registry: MetricsRegistry, specs: Sequence[SLOSpec]
) -> List[SLOResult]:
    """Evaluate every spec against the registry's current state."""
    results = []
    for spec in specs:
        if spec.kind == "latency":
            results.append(_evaluate_latency(registry, spec))
        else:
            results.append(_evaluate_error_rate(registry, spec))
    return results


def slo_summary(results: Sequence[SLOResult]) -> Dict:
    """The report-facing compliance summary (deterministic primitives)."""
    return {
        "compliant": all(r.compliant for r in results),
        "objectives": [r.to_dict() for r in results],
    }


#: The measurement service's default objectives. Thresholds sit on
#: ``SERVICE_LATENCY_BUCKETS`` bounds so evaluation is exact.
DEFAULT_SERVICE_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec(
        name="lookup-latency",
        metric="service.latency_seconds",
        kind="latency",
        threshold=2.5,
        objective=0.97,
        match=(("kind", "lookup_paths"),),
    ),
    SLOSpec(
        name="queue-wait",
        metric="service.queue_wait_seconds",
        kind="latency",
        threshold=2.5,
        objective=0.90,
    ),
    SLOSpec(
        name="request-errors",
        metric="service.completed",
        kind="error_rate",
        objective=0.95,
    ),
)
