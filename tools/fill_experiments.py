#!/usr/bin/env python3
"""Fill EXPERIMENTS.md placeholders from a bench_output.txt run.

Maintainer utility: after `PYTHONPATH=src python -m repro.experiments all
--scale bench > bench_output.txt` (the bench-scale figure regenerations
of the experiment registry), this script extracts the measured numbers
(Figure 5 medians, Figure 6 fractions, SCIONLab percentages) from the
renders and substitutes the FILL_* markers in EXPERIMENTS.md. Idempotent
only on a file that still has markers; keep the markers in version
control templates. Speed numbers do not come from here: they are rows of
`BENCH_<workload>.json` written by `tools/bench_record.py`.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import get_reporter  # noqa: E402

reporter = get_reporter("repro.tools.fill_experiments")


def extract(text: str) -> dict:
    values = {}

    def med(name):
        match = re.search(
            rf"median {re.escape(name)}: ([0-9.e+]+)x \(([+-][0-9.]+) orders",
            text,
        )
        return f"{match.group(1)}x ({match.group(2)} orders)" if match else None

    values["FILL_BGPSEC"] = med("bgpsec")
    values["FILL_BASE"] = med("scion-core-baseline")
    values["FILL_DIV"] = med("scion-core-diversity")
    values["FILL_INTRA"] = med("scion-intra-isd-baseline")
    gain = re.search(
        r"diversity vs baseline core beaconing: ([0-9.]+)x", text
    )
    values["FILL_GAIN"] = f"{gain.group(1)}x" if gain else None

    # Figure 6b capacity fractions live after the 6b heading; anchor there
    # so the Figure 6a "pairs with <= 15 failing links" block is skipped.
    start = text.find("Figure 6b (scale=")
    capacity_block = text[start : start + 1200] if start >= 0 else ""

    def fraction(series):
        match = re.search(
            rf"^    {re.escape(series)}\s+([0-9.]+)%",
            capacity_block,
            re.MULTILINE,
        )
        return f"{match.group(1)}%" if match else None

    values["FILL_6_BGP"] = fraction("bgp")
    values["FILL_6_BASE"] = fraction("baseline(60)")
    values["FILL_6_15"] = fraction("diversity(15)")
    values["FILL_6_30"] = fraction("diversity(30)")
    values["FILL_6_60"] = fraction("diversity(60)")
    values["FILL_6_INF"] = fraction("diversity(inf)")

    capped = re.findall(
        r"fraction of storage-capped optimum.*?diversity\(15\)\s+([0-9.]+)%"
        r".*?diversity\(30\)\s+([0-9.]+)%.*?diversity\(60\)\s+([0-9.]+)%",
        text,
        re.DOTALL,
    )
    if capped:
        values["FILL_CAPPED"] = "/".join(f"{v}%" for v in capped[0])

    improved = re.findall(
        r"diversity\((?:5|10|15|60)\)\s+([0-9.]+)%",
        text[text.find("pairs improved over measurement"):][:400],
    )
    if len(improved) >= 4:
        values["FILL_78"] = "/".join(f"{v}%" for v in improved[:4])

    median_bw = re.search(r"median ([0-9]+) Bps", text)
    if median_bw:
        values["FILL_9"] = median_bw.group(1)

    # Resilience factor baseline/BGP from the Figure 6a table's mean column.
    def table_mean(series):
        match = re.search(
            rf"^{re.escape(series)}\s*\|(?:[^|]*\|)*([0-9.]+)\s*$",
            text,
            re.MULTILINE,
        )
        return float(match.group(1)) if match else None

    bgp_mean = table_mean("bgp")
    base_mean = table_mean("baseline(60)")
    if bgp_mean and base_mean:
        values["FILL_DOUBLE"] = f"{base_mean / bgp_mean:.1f}x (mean resilience)"
    else:
        values.setdefault("FILL_DOUBLE", None)
    return values


def main() -> int:
    bench = (ROOT / "bench_output.txt").read_text()
    experiments = ROOT / "EXPERIMENTS.md"
    text = experiments.read_text()
    for marker, value in extract(bench).items():
        if value is None:
            reporter.warning(f"warning: no value extracted for {marker}")
            continue
        text = text.replace(marker, value)
    experiments.write_text(text)
    remaining = re.findall(r"FILL_[A-Z0-9_]+", text)
    if remaining:
        reporter.info(f"unfilled markers: {sorted(set(remaining))}")
    else:
        reporter.info("all markers filled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
