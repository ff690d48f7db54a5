"""The span recorder: causal trees with deterministic, replayable ids.

One :class:`CausalTracer` records everything a run wants on a timeline —
request trees, task legs, per-interval spans, point events — as rows of
one shape::

    {"trace", "span", "parent", "cat", "name", "t0", "t1", "wall",
     "worker", "args"?}

A :class:`TraceContext` names one node of a span tree: the trace it
belongs to, its own span id, and its parent span. Identifiers are
*derived*, never drawn — a trace id is a hash of ``(seed, index)``
where ``index`` is a deterministic per-request counter (the service's
``request_id``, a runtime task's slot), and span ids hash the trace id
plus a per-trace mint counter. No ``random``, no wall clock:
two replays of the same seeded scenario mint byte-identical ids, which
is what lets stitched traces participate in the repo's byte-identical
``--jobs 1`` vs ``--jobs N`` contract.

``t0``/``t1`` come from a pluggable ``clock`` callable. The measurement
service passes its (virtual) clock, so span intervals are simulated
seconds (floats); a tracer without a clock counts logical ticks (ints)
that order and nest spans but measure nothing. ``wall`` is what does the
measuring there: the ``perf_counter`` seconds the span was open (``0.0``
for an instant or a retrospective :meth:`CausalTracer.record`). ``wall``
and the ``worker`` lane are the only process-dependent fields;
:func:`scrub` drops them and what is left is the determinism contract.

Parents are explicit (:meth:`CausalTracer.begin`, for spans that stay
open across an event loop's suspensions) or ambient
(:meth:`CausalTracer.span` / :meth:`CausalTracer.instant` record under
``tracer.current``; a span entered with ``with`` is ``current`` for its
body). With no ambient context a span roots a trace of its own — it is
never dropped.

Cross-process propagation: a pool task carries no context, only its
``trace_seed`` and ``trace_index``; the worker's tracer derives the same
root from them (:meth:`CausalTracer.derive_context`) and parents
everything it records there. The worker's span list ships back in the
outcome and is folded in with :meth:`CausalTracer.extend`;
:meth:`CausalTracer.stitched` canonically sorts the merged stream, so
stitching is commutative like the metrics merge. One tracer mints every
span id of a trace, so ids never collide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import blake2b
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "TraceContext",
    "CausalTracer",
    "NULL_SPAN",
    "scrub",
    "span_problems",
    "build_span_trees",
    "span_seconds",
    "slowest_traces",
    "trace_breakdown",
    "format_span_tree",
    "causal_to_chrome",
]


def _digest(text: str) -> str:
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """One position in a request's span tree."""

    trace_id: str
    span_id: str = ""
    parent_id: str = ""


class _NullSpan:
    """Shared no-op handle returned by a disabled tracer."""

    __slots__ = ()
    ctx: Optional[TraceContext] = None

    def set(self, **attrs) -> None:
        pass

    def end(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """An open span: holds its child context until :meth:`end` records it."""

    __slots__ = (
        "tracer", "ctx", "category", "name", "t0", "attrs", "worker",
        "opened", "outer",
    )

    def __init__(self, tracer, ctx, category, name, t0, attrs, worker):
        self.tracer = tracer
        self.ctx = ctx
        self.category = category
        self.name = name
        self.t0 = t0
        self.attrs = attrs
        self.worker = worker
        self.opened = perf_counter()

    def set(self, **attrs) -> None:
        """Attach attributes learned while the span is open."""
        self.attrs.update(attrs)

    def end(self, *, at: Optional[float] = None, **attrs) -> None:
        wall = perf_counter() - self.opened
        if attrs:
            self.attrs.update(attrs)
        tracer = self.tracer
        tracer._emit(
            self.ctx, self.category, self.name, self.t0,
            tracer._now() if at is None else at, wall, self.worker,
            self.attrs,
        )

    def __enter__(self) -> "_Span":
        self.outer = self.tracer.current
        self.tracer.current = self.ctx
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and not issubclass(exc_type, GeneratorExit):
            self.attrs["error"] = True
            self.attrs.setdefault("reason", exc_type.__name__)
        self.tracer.current = self.outer
        self.end()
        return False


class CausalTracer:
    """Mints deterministic spans and stitches worker streams back in."""

    def __init__(
        self,
        enabled: bool = True,
        *,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        worker: str = "",
    ) -> None:
        self.enabled = enabled
        self.seed = seed
        self.clock = clock
        self.worker = worker
        self.spans: List[Dict] = []
        #: The ambient context: what :meth:`span` / :meth:`instant` and
        #: worker fan-out parent to. A span entered with ``with`` is
        #: ``current`` for its body — a body that suspends on an event
        #: loop must parent explicitly (:meth:`begin`) instead.
        self.current: Optional[TraceContext] = None
        self._mint: Dict[str, int] = {}
        self._orphans = 0
        self._tick = 0

    def configure(
        self,
        *,
        seed: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        worker: Optional[str] = None,
    ) -> "CausalTracer":
        """Late binding of the deterministic inputs (seed, clock, lane)."""
        if seed is not None:
            self.seed = seed
        if clock is not None:
            self.clock = clock
        if worker is not None:
            self.worker = worker
        return self

    # ------------------------------------------------------------- identity

    def trace_id(self, index) -> str:
        """The trace id of deterministic request/task slot ``index``."""
        return _digest(f"{self.seed}:{index}")

    def derive_context(self, index) -> TraceContext:
        """The root slot of trace ``index`` (no span minted yet)."""
        return TraceContext(trace_id=self.trace_id(index))

    def _child(self, parent: TraceContext) -> TraceContext:
        trace_id = parent.trace_id
        n = self._mint.get(trace_id, 0)
        self._mint[trace_id] = n + 1
        # The ``::`` is part of the id format: changing the digest input
        # changes every span id a recorded trace holds.
        return TraceContext(
            trace_id, _digest(f"{trace_id}::{n}"), parent.span_id
        )

    def _ambient(self) -> TraceContext:
        """``current``, or the root slot of a fresh trace when nothing is
        ambient: such a span becomes a one-level trace, never a loss."""
        if self.current is not None:
            return self.current
        self._orphans += 1
        return self.derive_context(f"orphan{self._orphans}")

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock()
        self._tick += 1
        return self._tick

    def now(self) -> float:
        """The current clock reading, without advancing the logical tick
        (for stamping an event without opening a span)."""
        if self.clock is not None:
            return self.clock()
        return self._tick

    # ------------------------------------------------------------ recording

    def root(self, index: int, category: str, name: str, *,
             at: Optional[float] = None, **attrs):
        """Open the root span of trace slot ``index``."""
        if not self.enabled:
            return NULL_SPAN
        return self.begin(
            self.derive_context(index), category, name, at=at, **attrs
        )

    def begin(self, parent: Optional[TraceContext], category: str, name: str,
              *, at: Optional[float] = None, **attrs):
        """Open a span under ``parent`` (or a trace root when its span id
        is empty); close it with ``handle.end()`` or as a context manager
        (which makes it ambient for the body and tags ``error=True`` when
        the body raises)."""
        if not self.enabled or parent is None:
            return NULL_SPAN
        return _Span(
            self, self._child(parent), category, name,
            self._now() if at is None else at, attrs, self.worker,
        )

    def span(self, category: str, name: str, **attrs):
        """Context manager for one span under the ambient context."""
        if not self.enabled:
            return NULL_SPAN
        return self.begin(self._ambient(), category, name, **attrs)

    def instant(self, category: str, name: str, **attrs) -> None:
        """A point event: a zero-length span under the ambient context."""
        if self.enabled:
            at = self._now()
            self.record(self._ambient(), category, name, at, at, **attrs)

    def record(self, parent: Optional[TraceContext], category: str,
               name: str, t0: float, t1: float,
               **attrs) -> Optional[TraceContext]:
        """Record a retrospective span with explicit endpoints (e.g. a
        queue wait measured between submit and worker pickup). Nobody
        held it open, so its ``wall`` is zero."""
        if not self.enabled or parent is None:
            return None
        ctx = self._child(parent)
        self._emit(ctx, category, name, t0, t1, 0.0, self.worker, attrs)
        return ctx

    def _emit(self, ctx, category, name, t0, t1, wall, worker, attrs) -> None:
        record = {
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent": ctx.parent_id,
            "cat": category,
            "name": name,
            "t0": round(t0, 9),
            "t1": round(t1, 9),
            "wall": round(wall, 9),
            "worker": worker,
        }
        if attrs:
            record["args"] = attrs
        self.spans.append(record)

    # ------------------------------------------------------------- stitching

    def export(self) -> List[Dict]:
        """The recorded spans, for shipping across a process boundary."""
        return list(self.spans)

    def extend(self, spans: Iterable[Dict]) -> None:
        """Fold a worker's shipped span list into this tracer."""
        self.spans.extend(dict(span) for span in spans)

    def stitched(self) -> List[Dict]:
        """The merged stream in canonical order — independent of worker
        completion order, like the metrics merge."""
        return sorted(
            self.spans,
            key=lambda s: (
                s["trace"], s["t0"], s["t1"], s["name"], s["span"]
            ),
        )

    def write_jsonl(self, path) -> int:
        """The stitched stream, one JSON record per line (a bundle's
        ``trace.jsonl``); returns the number of records."""
        spans = self.stitched()
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True))
                handle.write("\n")
        return len(spans)


def scrub(spans: Iterable[Dict]) -> List[Dict]:
    """A stream without its process-dependent fields — the ``worker``
    lane and the ``wall`` seconds. What is left must be equal across
    ``--jobs`` counts and kernel backends."""
    return [
        {k: v for k, v in span.items() if k not in ("worker", "wall")}
        for span in spans
    ]


# ----------------------------------------------------------------- analysis


def span_problems(spans: Iterable[Dict]) -> List[str]:
    """Well-formedness violations of a stitched stream (empty = sound).

    Checks that every non-root span's parent exists, that parent links
    form no cycle, and that child intervals nest within their parents.
    """
    spans = list(spans)
    by_id = {span["span"]: span for span in spans}
    problems: List[str] = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids in stream")
    for span in spans:
        parent_id = span.get("parent", "")
        if not parent_id:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(
                f"span {span['span']} ({span['name']}) has missing "
                f"parent {parent_id}"
            )
            continue
        if parent["trace"] != span["trace"]:
            problems.append(
                f"span {span['span']} parents across traces"
            )
        if not (
            parent["t0"] <= span["t0"] and span["t1"] <= parent["t1"]
        ):
            problems.append(
                f"span {span['span']} ({span['name']}) "
                f"[{span['t0']}, {span['t1']}] escapes parent "
                f"{parent['name']} [{parent['t0']}, {parent['t1']}]"
            )
    # Cycle check: walk each span's parent chain with a visited set.
    for span in spans:
        seen = set()
        node = span
        while node is not None and node.get("parent", ""):
            if node["span"] in seen:
                problems.append(
                    f"cycle through span {span['span']} ({span['name']})"
                )
                break
            seen.add(node["span"])
            node = by_id.get(node["parent"])
    return problems


def build_span_trees(spans: Iterable[Dict]) -> Dict[str, List[Dict]]:
    """Group a stream into per-trace trees: ``{trace_id: [root nodes]}``
    where a node is ``{"span": record, "children": [nodes]}`` with
    children in interval order."""
    nodes = {
        span["span"]: {"span": span, "children": []} for span in spans
    }
    trees: Dict[str, List[Dict]] = {}
    for node in nodes.values():
        span = node["span"]
        parent = nodes.get(span.get("parent", ""))
        if parent is not None:
            parent["children"].append(node)
        else:
            trees.setdefault(span["trace"], []).append(node)
    for node in nodes.values():
        node["children"].sort(
            key=lambda n: (n["span"]["t0"], n["span"]["t1"], n["span"]["span"])
        )
    for roots in trees.values():
        roots.sort(key=lambda n: (n["span"]["t0"], n["span"]["span"]))
    return trees


def _on_ticks(span: Dict) -> bool:
    return isinstance(span["t0"], int) and isinstance(span["t1"], int)


def span_seconds(span: Dict) -> float:
    """What a span took: its clock interval — or, on the logical tick
    clock (integer endpoints), whose intervals order spans but measure
    nothing, its wall seconds."""
    if _on_ticks(span):
        return span.get("wall", 0.0)
    return span["t1"] - span["t0"]


def slowest_traces(spans: Iterable[Dict], top: int = 5) -> List[Dict]:
    """The ``top`` root nodes by duration, slowest first (ties by id)."""
    trees = build_span_trees(spans)
    roots = [node for nodes in trees.values() for node in nodes]
    roots.sort(
        key=lambda n: (
            -span_seconds(n["span"]),
            n["span"]["trace"],
            n["span"]["span"],
        )
    )
    return roots[:top]


def trace_breakdown(root: Dict) -> Dict[str, float]:
    """Critical-path legs of one tree: time per direct-child span name
    (descendants fold into their top-level leg) plus the root's own
    unattributed remainder under ``"(self)"``."""
    legs: Dict[str, float] = {}
    for child in root["children"]:
        c = child["span"]
        legs[c["name"]] = legs.get(c["name"], 0.0) + span_seconds(c)
    legs["(self)"] = max(
        0.0, span_seconds(root["span"]) - sum(legs.values())
    )
    return legs


def format_span_tree(root: Dict, indent: int = 0) -> List[str]:
    """Render one tree as indented ``cat/name [interval] attrs`` lines.
    Childless siblings of one kind (a run's intervals, a tick's cache
    events) fold into one ``xN`` line; a tick-clock interval is labelled
    as ticks beside the wall seconds that measure it."""
    span = root["span"]
    args = span.get("args", {})
    attrs = "".join(f" {k}={args[k]}" for k in sorted(args))
    t0, t1 = span["t0"], span["t1"]
    if _on_ticks(span):
        interval = f"ticks {t0}..{t1}, wall {span_seconds(span):.6f}s"
    else:
        interval = f"{t0:.6f}s +{t1 - t0:.6f}s"
    pad = "  " * indent
    lines = [f"{pad}{span['cat']}/{span['name']} [{interval}]{attrs}"]
    kinds: Dict[str, List[Dict]] = {}
    for child in root["children"]:
        c = child["span"]
        kinds.setdefault(f"{c['cat']}/{c['name']}", []).append(child)
    for kind, members in kinds.items():
        if len(members) > 1 and not any(m["children"] for m in members):
            total = sum(span_seconds(m["span"]) for m in members)
            lines.append(f"{pad}  {kind} x{len(members)} [{total:.6f}s]")
        else:
            for member in members:
                lines.extend(format_span_tree(member, indent + 1))
    return lines


def causal_to_chrome(spans: Iterable[Dict]) -> List[Dict]:
    """Convert spans to Chrome trace events on the ``t0``/``t1`` clock
    (a tick renders as a second; ``wall`` rides in ``args``), one pid
    lane per worker so stitched multi-worker traces render separately."""
    spans = list(spans)
    workers = sorted({span.get("worker", "") for span in spans})
    lane = {worker: index for index, worker in enumerate(workers)}
    events: List[Dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": index,
            "tid": 0,
            "args": {"name": f"worker:{worker or 'main'}"},
        }
        for worker, index in sorted(lane.items(), key=lambda kv: kv[1])
    ]
    for span in spans:
        event = {
            "ph": "X",
            "cat": span["cat"],
            "name": span["name"],
            "ts": round(span["t0"] * 1e6, 3),
            "dur": round((span["t1"] - span["t0"]) * 1e6, 3),
            "pid": lane[span.get("worker", "")],
            "tid": 0,
            "args": {
                "trace": span["trace"],
                "span": span["span"],
                "parent": span.get("parent", ""),
                "wall": span.get("wall", 0.0),
                **span.get("args", {}),
            },
        }
        events.append(event)
    return events
