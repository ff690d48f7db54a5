#!/usr/bin/env python3
"""Rewrite EXPERIMENTS.md's paper tables from RESULTS_bench.json, and its
gain-vs-scale table from BENCH_scale.json.

Usage (from the repository root; no flags)::

    PYTHONPATH=src python -m repro.experiments all --scale bench --jobs 2 \
        --obs-dir obs
    cp obs/results.json RESULTS_bench.json
    python tools/fill_experiments.py

Each EXPERIMENTS.md block between ``<!-- results:<experiment> -->`` and
``<!-- /results -->`` becomes what :data:`RENDERERS` makes of that
experiment's ``data`` in the JSON (the ``results.json`` member of an
``--obs-dir`` bundle), and the ``scale`` block what it makes of the rows
``tools/scale_record.py`` appends to BENCH_scale.json; the text around
the blocks is left alone. The paper's side of each comparison is a
constant. ``tests/test_design_paths.py`` fails when the committed file is
not what the committed JSON renders.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.scoring import DiversityParams  # noqa: E402
from repro.experiments.table1 import PAPER_TABLE  # noqa: E402

#: Figure 5 series: (label, the paper's reading).
PAPER_FIGURE5 = {
    "bgpsec": ("BGPsec", "~1 order above BGP"),
    "scion-core-baseline": ("SCION core, baseline", "slightly above BGPsec"),
    "scion-core-diversity": ("SCION core, diversity", "~1 order *below* BGP"),
    "scion-intra-isd-baseline": (
        "SCION intra-ISD, baseline", "~2 orders below BGP",
    ),
}
#: Figure 6b series: (label, the paper's capacity reading; for diversity
#: the fraction of the storage-capped optimum).
PAPER_FIGURE6 = {
    "bgp": ("BGP (best path + parallel links)", "lowest"),
    "baseline(60)": ("SCION baseline (60)", "> BGP"),
    "diversity(15)": ("diversity (15)", "99 %"),
    "diversity(30)": ("diversity (30)", "97 %"),
    "diversity(60)": ("diversity (60)", "95 %"),
    "diversity(inf)": ("diversity (unlimited)", "82 %"),
}
#: Figure 7: pairs improved over the measurement, per storage limit.
PAPER_FIGURE7 = {5: "17 %", 10: "42 %", 15: "52 %", 60: "55 %"}


def table(headers, rows) -> list:
    return [
        "| " + " | ".join(map(str, row)) + " |"
        for row in [headers, ["---"] * len(headers), *rows]
    ]


def render_table1(data: dict) -> list:
    paper = {c.value: f"{s.value} / {f}" for c, (s, f) in PAPER_TABLE.items()}
    return table(
        ["Component", "Paper (scope / freq)", "Measured", "Messages", "Match"],
        [
            (row["component"], paper[row["component"]],
             f"{row['scope']} / {row['frequency']}", f"{row['messages']:,}",
             "yes" if row["matches_paper"] else "**no**")
            for row in data["rows"]
        ],
    )


def render_figure5(data: dict) -> list:
    medians = data["median_relative"]
    return table(
        ["Series", "Paper", "Measured (median, x BGP)"],
        [
            (label, paper, f"{medians[series]:.3g}x "
             f"({math.log10(medians[series]):+.2f} orders)")
            for series, (label, paper) in PAPER_FIGURE5.items()
        ],
    ) + [
        "",
        "Diversity against baseline core beaconing, median per monitor: "
        f"**{data['diversity_gain']:.3g}x** (paper: about two orders).",
    ]


def render_figure6(data: dict) -> list:
    capped, cdf = data["capped_fraction_of_optimum"], data["cdf"]
    base, bgp = cdf["baseline(60)"]["mean"], cdf["bgp"]["mean"]
    return table(
        ["Series", "Paper (capacity)", "Mean fraction of optimum",
         "Fraction of storage-capped optimum"],
        [
            (label, paper, f"{data['fraction_of_optimum'][series]:.1%}",
             f"{capped[series]:.1%}" if series in capped else "")
            for series, (label, paper) in PAPER_FIGURE6.items()
        ],
    ) + [
        "",
        f"Over {len(data['pairs'])} pairs the mean minimum cut is "
        f"{base:.1f} failing links for baseline(60) against {bgp:.1f} for "
        f"BGP ({base / bgp:.2f}x; the paper: baseline more than doubles "
        "BGP's resilience).",
        "",
        f"Window: {data['window']}.",
    ]


def render_scionlab(data: dict) -> list:
    improved = data["improved_over_measurement"]
    fraction = data["fraction_of_optimum"]
    names = ["measurement"] + [f"diversity({limit})" for limit in PAPER_FIGURE7]
    fractions = ", ".join(f"{name} {fraction[name]:.1%}" for name in names)
    return table(
        ["Storage limit", "Paper: pairs improved", "Measured"],
        [
            (limit, paper, f"{improved[f'diversity({limit})']:.1%}")
            for limit, paper in PAPER_FIGURE7.items()
        ],
    ) + [
        "",
        f"* Figure 8, mean fraction of the optimum over {data['pairs']} "
        f"ordered pairs: {fractions}.",
        "* Figure 9, core-beaconing bandwidth per interface: median "
        f"{data['bandwidth_median_bps']:.0f} B/s, p90 "
        f"{data['bandwidth_p90_bps']:.0f} B/s; {data['below_4kbps']:.1%} "
        "of interfaces below 4 KB/s (paper: ~80 %).",
        f"* Window, every series and Figure 9: {data['window']}.",
    ]


def render_gridsearch(data: dict) -> list:
    default = DiversityParams()
    return table(
        ["Parameter", "Shipped default (`DiversityParams`)",
         f"Grid-search pick (`bench`, {data['evaluations']} evaluations)"],
        [
            (key.replace("_", " "), f"{getattr(default, key):g}",
             f"{data[key]:g}")
            for key in ("alpha", "beta", "gamma", "score_threshold")
        ],
    ) + ["", f"The pick scores {data['score']:.3f} on the objective. Its "
             "quality and overhead terms read", f"{data['window']}."]


def render_scale(rows: list) -> list:
    """The rows ``tools/scale_record.py`` appended last (its last label)."""
    label = rows[-1]["label"]
    rows = [row for row in rows if row["label"] == label]

    def seconds(value):
        return "–" if value is None else f"{value:.3f}"

    return table(
        ["Cores", "Algorithm", "Tree", "s / interval (wave, quiet)",
         "PCBs / period", "Bytes / period", "Gain (PCBs, bytes)",
         "Bytes / interface (median, p95)", "Peak RSS"],
        [
            (row["cores"], row["algorithm"], f"{row['side']} `{row['commit']}`",
             f"{row['interval_s']:.3f} ({seconds(row['wave_interval_s'])}, "
             f"{seconds(row['quiet_interval_s'])})",
             f"{row['pcbs']:,}", f"{row['bytes']:,}",
             f"{row['gain_pcbs']:.1f}x, {row['gain_bytes']:.1f}x",
             f"{row['interface_bytes_median']:,}, "
             f"{row['interface_bytes_p95']:,}",
             f"{row['peak_rss_mb']:.1f} MiB")
            for row in sorted(rows, key=lambda r: (
                r["cores"], r["algorithm"], r["side"] != "parent"))
        ],
    ) + ["", f"`BENCH_scale.json`, label {label!r}: P = {rows[0]['period']}; "
             f"intervals {rows[0]['period']}..{rows[0]['intervals'] - 1} of "
             "a cold start are measured."]


#: Experiment name -> the lines of its block.
RENDERERS = {
    "table1": render_table1,
    "figure5": render_figure5,
    "figure6": render_figure6,
    "scionlab": render_scionlab,
    "gridsearch": render_gridsearch,
    "scale": render_scale,
}


def fill(text: str, results: dict) -> str:
    """``text`` with every results block re-rendered from ``results`` (a
    ``results.json`` mapping); a block whose experiment ``results`` lacks,
    or that is never closed, is a ``ValueError``."""
    out, rest = [], text
    while (start := rest.find("<!-- results:")) >= 0:
        end = rest.index("-->", start)
        name = rest[start + len("<!-- results:") : end].strip()
        close = rest.find("<!-- /results -->", end)
        if close < 0 or name not in results:
            raise ValueError(f"results block {name!r}: unclosed or no data")
        body = RENDERERS[name](results[name]["data"])
        out.append(rest[: end + 3] + "\n" + "\n".join(body) + "\n")
        rest = rest[close:]
    return "".join(out) + rest


def load_results() -> dict:
    """RESULTS_bench.json's experiments, and as ``scale`` the rows of
    BENCH_scale.json."""
    results = json.loads((ROOT / "RESULTS_bench.json").read_text())
    rows = json.loads((ROOT / "BENCH_scale.json").read_text())
    return {**results, "scale": {"data": rows}}


def main() -> int:
    experiments = ROOT / "EXPERIMENTS.md"
    experiments.write_text(fill(experiments.read_text(), load_results()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
