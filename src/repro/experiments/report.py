"""ASCII rendering for experiment results.

Every experiment module returns a structured result object plus a
``render()`` producing the rows/series the paper's tables and figures
report, printable in a terminal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..analysis.stats import EmpiricalCDF

__all__ = [
    "format_table",
    "format_cdf_series",
    "format_magnitude",
    "format_timing_report",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Monospace table with column auto-sizing."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_magnitude(ratio: float) -> str:
    """Human phrasing of an overhead ratio ('1.7 orders of magnitude')."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    orders = math.log10(ratio)
    return f"{ratio:.3g}x ({orders:+.2f} orders of magnitude)"


def format_timing_report(report) -> str:
    """Render a :class:`~repro.runtime.instrument.RunReport` as a table.

    One row per phase: wall time, whether the phase was served from the
    warm-state cache ("cached" — e.g. a skipped warm-up), and the domain
    counters the phase recorded (beaconing intervals, PCBs, bytes).
    """
    headers = ["phase", "seconds", "cache", "counters"]
    rows: List[List[str]] = []
    for record in report.phases:
        counters = " ".join(
            f"{name}={int(value) if float(value).is_integer() else value}"
            for name, value in sorted(record.counters.items())
        )
        rows.append(
            [
                record.name,
                f"{record.seconds:.3f}",
                "cached" if record.cached else "-",
                counters or "-",
            ]
        )
    title = "Timing report"
    qualifiers = []
    if report.experiment:
        qualifiers.append(report.experiment)
    if report.scale:
        qualifiers.append(f"scale={report.scale}")
    qualifiers.append(f"jobs={report.jobs}")
    title += f" ({', '.join(qualifiers)})"
    lines = [format_table(headers, rows, title=title)]
    lines.append(f"  total phase time: {report.total_seconds:.3f}s")
    cached = report.cached_phases()
    if cached:
        lines.append(f"  cache hits: {', '.join(cached)}")
    return "\n".join(lines)


def format_cdf_series(
    series: Dict[str, EmpiricalCDF],
    *,
    title: str,
    probes: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    value_format: str = "{:.3g}",
) -> str:
    """One row per series, quantiles as columns — the textual equivalent of
    the paper's CDF plots."""
    headers = ["series"] + [f"p{int(q * 100)}" for q in probes] + ["mean"]
    rows: List[List[str]] = []
    for name, cdf in series.items():
        row = [name]
        row.extend(value_format.format(cdf.quantile(q)) for q in probes)
        row.append(value_format.format(cdf.mean))
        rows.append(row)
    return format_table(headers, rows, title=title)
