#!/usr/bin/env python3
"""Rewrite EXPERIMENTS.md's paper tables and its ledger of the paper's
claims from RESULTS_bench.json, and its gain-vs-scale table from
BENCH_scale.json.

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
the blocks is left alone. The ``claims`` block is :data:`CLAIMS`, the one
place the paper's side of a comparison is written, each row with the
repo's reading and a verdict computed from it. ``tests/test_design_paths.py``
fails when the committed file is not what the committed JSON renders.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.scoring import DiversityParams  # noqa: E402
from repro.experiments.table1 import PAPER_TABLE  # noqa: E402


def table(headers, rows) -> list:
    return [
        "| " + " | ".join(map(str, row)) + " |"
        for row in [headers, ["---"] * len(headers), *rows]
    ]


def times(factor: float) -> str:
    return f"{factor:.3g}x ({math.log10(factor):+.2f} orders)"


def limit(series: str) -> float:
    """The storage limit of a ``diversity(<n>)`` or ``diversity(inf)``
    series."""
    return float(series[len("diversity("):-1])


def last_label(rows: list) -> list:
    """The rows ``tools/scale_record.py`` appended last."""
    return [row for row in rows if row["label"] == rows[-1]["label"]]


# --------------------------------------------------------------------------
# The ledger. One tolerance rule, for every row: "≈ k orders" holds within
# ORDERS of k; "slightly above X" holds 0 to SLIGHTLY orders above X; "N %"
# holds within POINTS percentage points of N; "more than double" holds above
# DOUBLE; an ordering holds exactly.
# --------------------------------------------------------------------------

ORDERS = 0.5
SLIGHTLY = 0.5
POINTS = 5.0
DOUBLE = 2.0


def about_orders(k: float):
    return lambda orders: abs(orders - k) <= ORDERS


def slightly_above(orders: float) -> bool:
    return 0.0 <= orders <= SLIGHTLY


def about_percent(n: float):
    return lambda share: abs(100 * share - n) <= POINTS


def more_than_double(ratio: float) -> bool:
    return ratio > DOUBLE


def in_order(pairs) -> bool:
    """Every ``(a, relation, b)`` of ``pairs`` holds."""
    return all(RELATIONS[rel](a, b) for a, rel, b in pairs)


RELATIONS = {"<": operator.lt, "≤": operator.le}
#: Figure 6's series in the paper's order, and the relation between each
#: one and the next.
FIGURE6_ORDER = ("bgp", "baseline(60)", "diversity(15)", "diversity(30)",
                 "diversity(60)", "diversity(inf)", "optimum")
FIGURE6_RELATIONS = ("<", "<", "<", "≤", "≤", "≤")


def orders_over(series: str, reference):
    """A reader of Figure 5's median of ``series`` relative to BGP
    (``reference`` None) or to ``reference``'s median."""

    def read(data):
        medians = data["figure5"]["median_relative"]
        factor = medians[series] / (medians[reference] if reference else 1.0)
        return math.log10(factor), times(factor)

    return read


def share(experiment: str, *keys: str):
    """A reader of the share at ``data[experiment][key]...``."""

    def read(data):
        value = data[experiment]
        for key in keys:
            value = value[key]
        return value, f"{value:.1%}"

    return read


def read_table1(data):
    rows = data["table1"]["rows"]
    matches = sum(row["matches_paper"] for row in rows)
    return matches == len(rows), f"{matches}/{len(rows)} match"


def read_gain(data):
    gain = data["figure5"]["diversity_gain"]
    return math.log10(gain), times(gain)


def read_min_cut(data):
    cdf = data["figure6"]["cdf"]
    ratio = cdf["baseline(60)"]["mean"] / cdf["bgp"]["mean"]
    return ratio, f"{ratio:.2f}x"


def read_figure6_order(data):
    fraction = data["figure6"]["fraction_of_optimum"]
    values = [fraction[series] for series in FIGURE6_ORDER]
    pairs = list(zip(values, FIGURE6_RELATIONS, values[1:]))
    shown = " ".join(f"{a:.1%} {rel}" for a, rel, _ in pairs)
    return pairs, f"{shown} {values[-1]:.1%}"


def read_figure7(data):
    improved = data["scionlab"]["improved_over_measurement"]
    low, mid, high = (100 * improved[f"diversity({n})"] for n in (5, 15, 60))
    return [(high - mid, "≤", mid - low)], (
        f"{mid - low:+.1f} points (5 → 15), {high - mid:+.1f} points (15 → 60)"
    )


def read_figure8(data):
    fraction = data["scionlab"]["fraction_of_optimum"]
    value = min(fraction[series] for series in fraction
                if series.startswith("diversity(") and limit(series) >= 15)
    return value, f"{value:.1%}"


def read_scale_gain(data):
    gains = {row["cores"]: row["gain_pcbs"] for row in last_label(data["scale"])}
    cores = sorted(gains)
    return math.log10(gains[cores[-1]]), (
        " → ".join(f"{gains[n]:.1f}x" for n in cores)
        + f" ({' → '.join(map(str, cores))} cores)"
    )


#: (paper section, the paper's reading, reader of the repo's reading from
#: the results: ``data -> (value, shown)``, the *holds* test of the value,
#: the ROADMAP item that owns a deviation or "unexplained").
CLAIMS = [
    ("§4.1, Table 1", "Each component's scope and frequency as Table 1 "
     "classifies it", read_table1, bool, "unexplained"),
    ("§5.2, Fig. 5", "BGPsec ≈ 1 order above BGP", orders_over("bgpsec", None),
     about_orders(1), "20"),
    ("§5.2, Fig. 5", "SCION core baseline slightly above BGPsec",
     orders_over("scion-core-baseline", "bgpsec"), slightly_above, "20"),
    ("§5.2, Fig. 5", "SCION core diversity ≈ 1 order below BGP",
     orders_over("scion-core-diversity", None), about_orders(-1), "20"),
    ("§5.2, Fig. 5", "SCION intra-ISD baseline ≈ 2 orders below BGP",
     orders_over("scion-intra-isd-baseline", None), about_orders(-2), "20"),
    ("§5.2, Fig. 5", "Core beaconing: baseline ≈ 2 orders above diversity",
     read_gain, about_orders(2), "3"),
    ("§5.3, Fig. 6a", "Baseline(60)'s mean minimum cut more than double "
     "BGP's", read_min_cut, more_than_double, "20"),
    ("§5.3, Fig. 6", "Mean share of the optimum: " + " ".join(
        f"{series} {rel}" for series, rel in
        zip(FIGURE6_ORDER, FIGURE6_RELATIONS)) + f" {FIGURE6_ORDER[-1]}",
     read_figure6_order, in_order, "5"),
    ("§5.3, Fig. 6b", "Diversity(15) at 99 % of the storage-capped optimum",
     share("figure6", "capped_fraction_of_optimum", "diversity(15)"),
     about_percent(99), "16(b)"),
    ("§5.3, Fig. 6b", "Diversity(30) at 97 % of the storage-capped optimum",
     share("figure6", "capped_fraction_of_optimum", "diversity(30)"),
     about_percent(97), "16(b)"),
    ("§5.3, Fig. 6b", "Diversity(60) at 95 % of the storage-capped optimum",
     share("figure6", "capped_fraction_of_optimum", "diversity(60)"),
     about_percent(95), "16(b)"),
    ("§5.3, Fig. 6b", "Diversity(∞) at 82 % of the storage-capped optimum",
     share("figure6", "capped_fraction_of_optimum", "diversity(inf)"),
     about_percent(82), "16(b)"),
    ("App. B, Fig. 7", "Pairs improved over the measurement, 17/42/52/55 % "
     "at limits 5/10/15/60: diminishing returns above 15", read_figure7,
     in_order, "unexplained"),
    ("App. B, Fig. 8", "Diversity(≥ 15) ≈ the optimum (100 %)",
     read_figure8, about_percent(100), "16(b)"),
    ("App. B, Fig. 9", "~80 % of interfaces below 4 KB/s",
     share("scionlab", "below_4kbps"), about_percent(80), "unexplained"),
    ("§5.2, `BENCH_scale.json`", "Baseline ≈ 2 orders above diversity per "
     "period at 2 000 cores, read at the largest core count measured",
     read_scale_gain, about_orders(2), "3"),
]


def ledger(data: dict) -> list:
    """Each :data:`CLAIMS` row as (section, paper, shown, verdict) over
    ``data``: experiment name -> its data, ``scale`` the BENCH_scale.json
    rows."""
    rows = []
    for section, paper, read, holds, owner in CLAIMS:
        value, shown = read(data)
        verdict = "holds" if holds(value) else "**deviates** (" + (
            owner if owner == "unexplained" else f"ROADMAP item {owner}") + ")"
        rows.append((section, paper, shown, verdict))
    return rows


def render_claims(data: dict) -> list:
    return table(["Section", "Paper", "Repo", "Verdict"], ledger(data)) + [
        "",
        f"Tolerances: ≈ k orders within ±{ORDERS} orders; slightly above X, "
        f"0 to {SLIGHTLY} orders above X; N %, within {POINTS:g} points; more "
        f"than double, above {DOUBLE:g}x; orderings exactly.",
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
    return table(
        ["Series", "Measured (median, x BGP)"],
        [(series, times(median))
         for series, median in data["median_relative"].items()],
    ) + [
        "",
        "Diversity against baseline core beaconing, median per monitor: "
        f"**{data['diversity_gain']:.3g}x**.",
    ]


def render_figure6(data: dict) -> list:
    capped, cdf = data["capped_fraction_of_optimum"], data["cdf"]
    return table(
        ["Series", "Mean fraction of optimum",
         "Fraction of storage-capped optimum"],
        [
            (series, f"{data['fraction_of_optimum'][series]:.1%}",
             f"{capped[series]:.1%}" if series in capped else "")
            for series in FIGURE6_ORDER[:-1]
        ],
    ) + [
        "",
        f"Over {len(data['pairs'])} pairs the mean minimum cut is "
        f"{cdf['baseline(60)']['mean']:.1f} failing links for baseline(60) "
        f"against {cdf['bgp']['mean']:.1f} for BGP.",
        "",
        f"Window: {data['window']}.",
    ]


def render_scionlab(data: dict) -> list:
    improved = data["improved_over_measurement"]
    fraction = data["fraction_of_optimum"]
    names = ["measurement", *sorted(improved, key=limit)]
    fractions = ", ".join(f"{name} {fraction[name]:.1%}" for name in names)
    return table(
        ["Series", "Pairs improved over the measurement"],
        [(name, f"{improved[name]:.1%}") for name in names[1:]],
    ) + [
        "",
        f"* Figure 8, mean fraction of the optimum over {data['pairs']} "
        f"ordered pairs: {fractions}.",
        "* Figure 9, core-beaconing bandwidth per interface: median "
        f"{data['bandwidth_median_bps']:.0f} B/s, p90 "
        f"{data['bandwidth_p90_bps']:.0f} B/s; {data['below_4kbps']:.1%} "
        "of interfaces below 4 KB/s.",
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
    rows = last_label(rows)
    label = rows[0]["label"]

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
    "claims": render_claims,
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
    """RESULTS_bench.json's experiments, as ``scale`` the rows of
    BENCH_scale.json, and as ``claims`` every one's data by name."""
    results = json.loads((ROOT / "RESULTS_bench.json").read_text())
    results["scale"] = {"data": json.loads((ROOT / "BENCH_scale.json").read_text())}
    data = {name: entry["data"] for name, entry in results.items()}
    return {**results, "claims": {"data": data}}


def main() -> int:
    experiments = ROOT / "EXPERIMENTS.md"
    experiments.write_text(fill(experiments.read_text(), load_results()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
