"""Process-local metrics registry: counters, gauges, histograms.

The registry is the numeric half of :mod:`repro.obs`. Instruments are
identified by ``(name, labels)``; values are plain Python numbers, so a
snapshot is a tree of primitives that pickles across process-pool
boundaries and serializes to deterministic JSON (``sort_keys`` plus a
stable entry ordering). Worker registries are merged back into the parent
with commutative operations only (counters and histograms add; gauges
combine by an explicit ``max``/``min``/``sum`` mode), which is what makes
``--jobs N`` snapshots byte-identical to ``--jobs 1``.

Disabled registries hand out a shared no-op instrument, so instrumented
hot paths pay one attribute load and a no-op method call — never a label
dict or a format call.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
]

LabelsKey = Tuple[Tuple[str, str], ...]

_GAUGE_MODES = ("max", "min", "sum")


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _NullInstrument:
    """Shared no-op stand-in for every instrument of a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value with a commutative cross-worker merge mode."""

    __slots__ = ("value", "mode")

    def __init__(self, mode: str = "max") -> None:
        if mode not in _GAUGE_MODES:
            raise ValueError(f"gauge mode must be one of {_GAUGE_MODES}")
        self.value = 0.0
        self.mode = mode

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def combine(self, other_value: float) -> None:
        if self.mode == "sum":
            self.value += other_value
        elif self.mode == "max":
            self.value = max(self.value, other_value)
        else:
            self.value = min(self.value, other_value)


class Histogram:
    """A fixed-bucket histogram (Prometheus-style bucket semantics).

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit +Inf bucket catches the rest. Bucket counts are stored
    non-cumulative; readers (quantiles, SLO evaluation) accumulate them.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(
            b >= c for b, c in zip(ordered, ordered[1:])
        ):
            raise ValueError("bucket bounds must be non-empty and increasing")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation within the
        owning bucket. Observations in the +Inf bucket clamp to the
        largest finite bound (the Prometheus ``histogram_quantile``
        convention); an empty histogram estimates 0."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count > 0 and cumulative + count >= rank:
                return lower + (bound - lower) * (
                    (rank - cumulative) / count
                )
            cumulative += count
            lower = bound
        return self.bounds[-1]

    def quantiles(self) -> Dict[str, float]:
        """The standard exposition set (p50/p95/p99), rounded so worker
        merges and replays serialize identically."""
        return {
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }


class MetricsRegistry:
    """Creates, stores, merges and serializes instruments.

    ``const_labels`` are merged into every instrument's labels at
    creation — a worker tags everything it records with its series and
    algorithm once instead of at each call site.
    """

    def __init__(
        self,
        enabled: bool = True,
        const_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.enabled = enabled
        self.const_labels = dict(const_labels or {})
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    # --------------------------------------------------------- instruments

    def _key(
        self, name: str, labels: Optional[Mapping[str, str]]
    ) -> Tuple[str, LabelsKey]:
        merged = dict(self.const_labels)
        if labels:
            merged.update(labels)
        return (name, _labels_key(merged))

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        *,
        mode: str = "max",
    ) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(mode)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Sequence[float],
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> Dict:
        """A deterministic tree of primitives (sorted by name, labels)."""

        def entries(table, render):
            out = []
            for (name, labels), instrument in sorted(table.items()):
                entry = {"name": name, "labels": dict(labels)}
                entry.update(render(instrument))
                out.append(entry)
            return out

        return {
            "counters": entries(
                self._counters, lambda c: {"value": c.value}
            ),
            "gauges": entries(
                self._gauges, lambda g: {"value": g.value, "mode": g.mode}
            ),
            "histograms": entries(
                self._histograms,
                lambda h: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "quantiles": h.quantiles(),
                },
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)

    def merge_snapshot(
        self,
        snapshot: Mapping,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold a worker snapshot into this registry.

        Counters and histogram buckets add; gauges combine by their
        recorded mode. Every operation is commutative, so the result is
        independent of worker completion order.
        """
        extra = dict(extra_labels or {})
        for entry in snapshot.get("counters", ()):
            labels = {**entry["labels"], **extra}
            self.counter(entry["name"], labels).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            labels = {**entry["labels"], **extra}
            self.gauge(
                entry["name"], labels, mode=entry.get("mode", "max")
            ).combine(entry["value"])
        for entry in snapshot.get("histograms", ()):
            labels = {**entry["labels"], **extra}
            histogram = self.histogram(
                entry["name"], entry["bounds"], labels
            )
            if list(histogram.bounds) != list(entry["bounds"]):
                raise ValueError(
                    f"bucket mismatch merging histogram {entry['name']!r}"
                )
            for index, count in enumerate(entry["counts"]):
                histogram.counts[index] += count
            histogram.sum += entry["sum"]
            histogram.count += entry["count"]

    def counter_totals(self, prefix: str = "") -> Dict[str, float]:
        """Counter values summed across label sets, keyed by name."""
        totals: Dict[str, float] = {}
        for (name, _), instrument in self._counters.items():
            if prefix and not name.startswith(prefix):
                continue
            totals[name] = totals.get(name, 0.0) + instrument.value
        return totals

    def histograms_named(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Histogram]]:
        """All label sets recorded under histogram ``name`` (for SLO
        evaluation), as ``(labels, instrument)`` pairs in sorted order."""
        return [
            (dict(labels), instrument)
            for (n, labels), instrument in sorted(self._histograms.items())
            if n == name
        ]

    def counters_named(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Counter]]:
        """All label sets recorded under counter ``name``, sorted."""
        return [
            (dict(labels), instrument)
            for (n, labels), instrument in sorted(self._counters.items())
            if n == name
        ]

