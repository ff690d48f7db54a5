"""In-memory spans and call aggregates for the traced run.

A :class:`Tracer` records one span per call into a layer (name, start,
end, parent id; every span of a run shares the run's trace id) and keeps
them in memory until the benchmark writes its result. Calls that happen
more than ~10^4 times per run are not given a span each: :meth:`wrap`
replaces a public attribute with a timing shim that accumulates a count,
the busy time and the number of truthy results under one name.

The untraced run executes the same workload code against
:data:`NULL_TRACER`, whose ``span`` is a shared no-op and whose ``wrap``
leaves the attribute alone.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: Optional[int], name: str) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Calls:
    """Aggregate of one wrapped callable."""

    __slots__ = ("count", "busy_s", "truthy")

    def __init__(self) -> None:
        self.count = 0
        self.busy_s = 0.0
        self.truthy = 0


class Tracer:
    enabled = True

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.calls: Dict[str, Calls] = {}
        self._stack: List[int] = []
        self._wrapped: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(
            len(self.spans), self._stack[-1] if self._stack else None, name
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under the aggregate ``name``
        until :meth:`unwrap_all`. ``owner`` is an instance or a module."""
        inner = getattr(owner, attr)
        calls = self.calls.setdefault(name, Calls())
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = inner(*args, **kwargs)
            calls.busy_s += clock() - start
            calls.count += 1
            if result:
                calls.truthy += 1
            return result

        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, timed)
        self._wrapped.append((owner, attr, own))

    def unwrap_all(self) -> None:
        for owner, attr, own in reversed(self._wrapped):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._wrapped.clear()

    # ------------------------------------------------------------ queries

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover.
        Children of one span never overlap (single thread, stack
        discipline), so their cover is the sum of their durations."""
        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def to_json(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "trace_id": self.trace_id,
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                }
                for s in self.spans
            ],
            "calls": {
                name: {
                    "count": c.count,
                    "busy_s": c.busy_s,
                    "truthy": c.truthy,
                }
                for name, c in sorted(self.calls.items())
            },
        }


class _NullTracer:
    enabled = False
    _SPAN = nullcontext()

    def span(self, name: str):
        return self._SPAN

    def wrap(self, owner, attr: str, name: str) -> None:
        pass

    def unwrap_all(self) -> None:
        pass


_MISSING = object()
NULL_TRACER = _NullTracer()
