#!/usr/bin/env python3
"""Post-mortem reporting over the observability artifacts of a run.

Subcommands, each reading the files a run wrote:

``tree``
    Per-category time table, span trees and critical-path breakdowns of
    the slowest traces in a span stream (the ``trace.jsonl`` of an
    ``--obs-dir`` bundle), plus a well-formedness check (every parent
    present, no cycles, child intervals nested) that fails the command.

``chrome``
    The same stream as a Chrome trace-event JSON document, loadable in
    ``chrome://tracing`` or https://ui.perfetto.dev.

``slo``
    The compliance table of an SLO summary (the bundle's ``slo.json``).

``diff``
    What changed between two metrics snapshots (the ``metrics.json`` of
    two bundles): counter deltas, gauge movements, histogram
    count/quantile shifts.

Examples::

    PYTHONPATH=src python tools/obs_report.py tree trace.jsonl --top 3
    PYTHONPATH=src python tools/obs_report.py chrome trace.jsonl chrome.json
    PYTHONPATH=src python tools/obs_report.py slo slo.json
    PYTHONPATH=src python tools/obs_report.py diff before.json after.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import configure_logging, get_reporter  # noqa: E402
from repro.obs.context import (  # noqa: E402
    build_span_trees,
    causal_to_chrome,
    format_span_tree,
    slowest_traces,
    span_problems,
    span_seconds,
    trace_breakdown,
)
from repro.obs.log import LEVELS  # noqa: E402

reporter = get_reporter("repro.tools.obs_report")

SPAN_KEYS = {"trace", "span", "cat", "name", "t0", "t1"}


def load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise SystemExit(f"{path}: not JSON ({exc})")
    except OSError as exc:
        raise SystemExit(f"{path}: {exc}")


def load_spans(path: str, trace_id=None) -> list:
    """The span records of a ``trace.jsonl`` stream."""
    spans = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise SystemExit(f"{path}:{lineno}: not JSON ({exc})")
            if not (isinstance(record, dict) and SPAN_KEYS <= set(record)):
                raise SystemExit(f"{path}:{lineno}: not a span record")
            if trace_id is None or record["trace"] == trace_id:
                spans.append(record)
    if not spans:
        raise SystemExit(f"{path}: no spans" + (
            f" with trace id {trace_id!r}" if trace_id else ""
        ))
    return spans


# ----------------------------------------------------------------- tree


def category_table(trees: dict) -> list:
    """Per-category record count and *self* seconds (a span's own time
    minus its children's), so the column sums to the roots' total."""
    totals: dict = {}
    stack = [node for roots in trees.values() for node in roots]
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        own = span_seconds(node["span"]) - sum(
            span_seconds(child["span"]) for child in node["children"]
        )
        bucket = totals.setdefault(node["span"]["cat"], [0, 0.0])
        bucket[0] += 1
        bucket[1] += max(0.0, own)
    lines = [f"  {'category':20s} {'records':>8s} {'self ms':>11s}"]
    for category in sorted(totals, key=lambda c: -totals[c][1]):
        count, seconds = totals[category]
        lines.append(f"  {category:20s} {count:8d} {seconds * 1e3:11.3f}")
    return lines


def cmd_tree(args) -> int:
    spans = load_spans(args.trace, args.trace_id)
    trees = build_span_trees(spans)
    reporter.info(f"{len(spans)} spans across {len(trees)} traces")
    problems = span_problems(spans)
    for problem in problems[:20]:
        reporter.warning(f"malformed: {problem}")
    if not problems:
        reporter.info("well-formed: parents present, acyclic, nested")
    for line in category_table(trees):
        reporter.info(line)
    reporter.info("")
    for root in slowest_traces(spans, top=args.top):
        span = root["span"]
        total = span_seconds(span)
        reporter.info(
            f"trace {span['trace']}  {span['cat']}/{span['name']}  "
            f"{total:.6f}s"
        )
        legs = trace_breakdown(root)
        for name in sorted(legs, key=lambda n: -legs[n]):
            share = legs[name] / total if total else 0.0
            reporter.info(
                f"    {name:24s} {legs[name]:12.6f}s  {share:6.1%}"
            )
        for line in format_span_tree(root, indent=1):
            reporter.info(line)
        reporter.info("")
    return 1 if problems else 0


# --------------------------------------------------------------- chrome


def cmd_chrome(args) -> int:
    events = causal_to_chrome(load_spans(args.trace, args.trace_id))
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(args.output).write_text(json.dumps(document, sort_keys=True) + "\n")
    reporter.info(f"chrome trace ({len(events)} events) -> {args.output}")
    return 0


# ------------------------------------------------------------------ slo


def _met(entry) -> bool:
    """An objective that saw no data has met nothing, whatever the entry
    (possibly written before ``SLOResult`` said so itself) claims."""
    return bool(entry.get("compliant")) and "no_data" not in entry.get(
        "notes", ()
    )


def cmd_slo(args) -> int:
    summary = load_json(args.summary)
    objectives = summary.get("objectives", [])
    if not objectives:
        raise SystemExit(f"{args.summary}: no objectives in summary")
    compliant = bool(summary.get("compliant")) and all(map(_met, objectives))
    verdict = "OK" if compliant else "VIOLATED"
    reporter.info(f"SLO compliance ({verdict}):")
    for entry in objectives:
        target = (
            f"<= {entry['threshold']}s"
            if entry["kind"] == "latency"
            else "errors ok"
        )
        burn = entry.get("budget", {}).get("burn", 0.0)
        state = "OK" if _met(entry) else "VIOLATED"
        notes = entry.get("notes")
        note = f" [{','.join(notes)}]" if notes else ""
        reporter.info(
            f"  {entry['name']:<24} {target:<12} attained "
            f"{entry['attained']:>8.4%} / objective "
            f"{entry['objective']:.2%}  budget burn {burn:.2f}  "
            f"{state}{note}"
        )
    return 0 if compliant else 1


# ----------------------------------------------------------------- diff


def _keyed(entries):
    return {
        (e["name"], tuple(sorted(e["labels"].items()))): e for e in entries
    }


def _label_str(key) -> str:
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def cmd_diff(args) -> int:
    old = load_json(args.old)
    new = load_json(args.new)
    changes = 0
    for section in ("counters", "gauges"):
        before = _keyed(old.get(section, ()))
        after = _keyed(new.get(section, ()))
        for key in sorted(set(before) | set(after)):
            v0 = before.get(key, {}).get("value", 0.0)
            v1 = after.get(key, {}).get("value", 0.0)
            if v0 == v1:
                continue
            changes += 1
            reporter.info(
                f"  {section[:-1]:<9} {_label_str(key):<56} "
                f"{v0:>14g} -> {v1:<14g} ({v1 - v0:+g})"
            )
    before = _keyed(old.get("histograms", ()))
    after = _keyed(new.get("histograms", ()))
    for key in sorted(set(before) | set(after)):
        h0 = before.get(key, {})
        h1 = after.get(key, {})
        if h0.get("count", 0) == h1.get("count", 0) and h0.get(
            "quantiles"
        ) == h1.get("quantiles"):
            continue
        changes += 1
        q0 = h0.get("quantiles", {})
        q1 = h1.get("quantiles", {})
        reporter.info(
            f"  histogram {_label_str(key):<56} count "
            f"{h0.get('count', 0)} -> {h1.get('count', 0)}  "
            f"p99 {q0.get('p99', 0.0):g} -> {q1.get('p99', 0.0):g}"
        )
    reporter.info(f"{changes} instrument(s) changed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log-level", default="info", choices=LEVELS)
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="span trees + critical paths")
    tree.add_argument("trace", help="trace.jsonl of an --obs-dir bundle")
    tree.add_argument(
        "--top", type=int, default=5,
        help="how many of the slowest traces to expand (default: 5)",
    )
    tree.set_defaults(func=cmd_tree)

    chrome = sub.add_parser("chrome", help="Chrome trace-event JSON")
    chrome.add_argument("trace", help="trace.jsonl of an --obs-dir bundle")
    chrome.add_argument("output", help="Chrome trace JSON to write")
    chrome.set_defaults(func=cmd_chrome)
    for command in (tree, chrome):
        command.add_argument(
            "--trace-id", default=None, help="restrict to one trace id"
        )

    slo = sub.add_parser("slo", help="SLO compliance table")
    slo.add_argument("summary", help="slo.json of an --obs-dir bundle")
    slo.set_defaults(func=cmd_slo)

    diff = sub.add_parser("diff", help="metrics snapshot diff")
    diff.add_argument("old", help="baseline metrics snapshot JSON")
    diff.add_argument("new", help="comparison metrics snapshot JSON")
    diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
