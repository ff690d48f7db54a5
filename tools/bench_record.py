#!/usr/bin/env python3
"""Record one benchmark row per workload and gate it with bench/compare.py.

    python tools/bench_record.py [--workload NAME ...] [--seeds N]
                                 [--seconds S] [--label TEXT]

Runs ``bench/run.py --out`` at demand seeds 1..N, the workloads
interleaved so a slow minute on the host is shared between them, plus one
``--trace 1`` run per workload as per-layer evidence, and appends one
``repro-bench/1`` row to ``BENCH_<workload>.json``: commit, label, the
``host`` block ``run.py`` emits, a ``backfilled`` flag, a ``summary``
(median and quartiles of every untraced metric) and per run the trimmed
result (``seed``, ``size``, ``trace``, ``metrics``, ``counts``,
``failed_ratio``).

The gate is ``bench/compare.py`` itself: side A is the last measured row
from the same host (machine, ``nproc``, Python minor) at the same size,
side B the fresh runs; its exit status is this tool's. A workload with no
such row prints ``NO BASELINE: recorded only``; a ``backfilled`` row holds
no runs and is never side A. One absolute floor rides along: on the traced
``endpoint_stack`` run the numpy kernel must forward packet trains at
least ``NUMPY_FLOOR`` times as fast as the python reference.

The row is appended whatever the verdict (it is what was measured);
whether to commit a row that failed its gate is the author's call.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import catalogue  # noqa: E402
import compare  # noqa: E402

WORKLOADS = list(catalogue.WORKLOADS)
#: What a row keeps of each ``run.py --out`` result: every per-run key
#: ``bench/compare.py`` reads (``schema`` and ``workload`` sit on the row).
KEPT = ("seed", "size", "trace", "metrics", "counts", "failed_ratio")
#: ``kernels.numpy.packets_per_s_train`` over ``packets_per_s_train``.
NUMPY_FLOOR = 3.0


def trajectory(workload: str) -> Path:
    return ROOT / f"BENCH_{workload}.json"


def read_rows(path: Path) -> List[dict]:
    """The rows of a trajectory file; exits, naming the file, when it is
    not a JSON list of objects — it is never silently started over."""
    if not path.exists():
        return []
    try:
        rows = json.loads(path.read_text())
    except ValueError as error:
        raise SystemExit(f"{path}: not JSON ({error}); left untouched")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise SystemExit(f"{path}: not a list of benchmark rows; left untouched")
    return rows


def append_row(path: Path, row: dict) -> None:
    """The one row writer: temp file + ``os.replace``, so an interrupted
    run leaves the old file, and a file that does not parse is refused."""
    rows = read_rows(path) + [row]
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    os.replace(scratch, path)


def new_row(workload: str, label: str, host: dict) -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "bench"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.strip()
    return {
        "schema": catalogue.SCHEMA,
        "workload": workload,
        "commit": commit + ("+dirty" if dirty else ""),
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backfilled": False,
        "host": {k: v for k, v in host.items() if k != "samples"},
    }


def same_host(a: dict, b: dict) -> bool:
    def key(host):
        python = str(host.get("python", "")).split(".")[:2]
        return host.get("machine"), host.get("nproc"), python

    return key(a) == key(b)


def baseline(rows: List[dict], host: dict, size: float) -> Optional[dict]:
    """The last measured same-host row with untraced runs of ``size``."""
    for row in reversed(rows):
        if row.get("backfilled") or not same_host(row.get("host", {}), host):
            continue
        if any(r["size"] == size and not r["trace"] for r in row.get("runs", ())):
            return row
    return None


def summarise(runs: List[dict]) -> dict:
    """Median and quartiles of every metric over the untraced runs."""
    untraced = [r["metrics"] for r in runs if not r["trace"]]
    summary = {}
    for name, metric in untraced[0].items():
        q1, median, q3 = compare.quartiles(
            [m[name]["value"] for m in untraced if name in m]
        )
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "unit": metric["unit"],
        }
    return summary


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "result.json"
        subprocess.run(
            [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())


def gate(row_a: dict, row_b: dict) -> int:
    """``bench/compare.py`` over the runs of two rows; its exit status."""
    with tempfile.TemporaryDirectory() as scratch:

        def files(side: str, row: dict) -> List[str]:
            paths = []
            for index, run in enumerate(row["runs"]):
                path = Path(scratch) / f"{side}{index}.json"
                path.write_text(json.dumps(
                    {"schema": row["schema"], "workload": row["workload"], **run}
                ))
                paths.append(str(path))
            return paths

        return compare.main(files("A", row_a) + ["--"] + files("B", row_b))


def numpy_floor(runs: List[dict]) -> int:
    """1 when the traced run reads the numpy kernel under the floor."""
    for run in runs:
        metrics = run["metrics"]
        if "kernels.numpy.packets_per_s_train" not in metrics:
            continue
        python = metrics["packets_per_s_train"]["value"]
        numpy = metrics["kernels.numpy.packets_per_s_train"]["value"]
        ok = numpy >= NUMPY_FLOOR * python
        print(
            f"numpy/python train forwarding: {numpy:.6g} / {python:.6g} = "
            f"{numpy / python:.2f}x (floor {NUMPY_FLOOR:g}x): "
            f"{'ok' if ok else 'BELOW FLOOR'}"
        )
        return 0 if ok else 1
    print("numpy/python train forwarding: no traced numpy rate (numpy "
          "not installed?); floor not checked")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="record only this workload (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5, help="demand seeds 1..N per workload",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue.RUN_SECONDS),
        help="run.py's size; rows gate only against rows of the same size",
    )
    parser.add_argument("--label", default="", help="stored with the row")
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    # A trajectory that does not parse stops the tool before the minutes
    # of measurement, not after.
    history = {w: read_rows(trajectory(w)) for w in workloads}
    results = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            print(f"run {workload} --seed {seed}", flush=True)
            results[workload].append(run_once(workload, seed, args.seconds, 0))
    for workload in workloads:
        print(f"run {workload} --seed 1 --trace 1", flush=True)
        results[workload].append(run_once(workload, 1, args.seconds, 1))

    status = 0
    for workload in workloads:
        first = results[workload][0]
        row = new_row(workload, args.label, first["host"])
        row["seconds"] = args.seconds
        row["runs"] = [{k: r[k] for k in KEPT} for r in results[workload]]
        row["summary"] = summarise(row["runs"])
        side_a = baseline(history[workload], row["host"], first["size"])
        if side_a is None:
            print(f"\nNO BASELINE: recorded only — {workload} has no measured "
                  f"same-host row at size {first['size']:g}")
        else:
            print(f"\n{workload}: side A is {side_a['commit']} "
                  f"{side_a['label']!r} ({side_a['recorded_at']})", flush=True)
            status |= gate(side_a, row)
        if workload == "endpoint_stack":
            status |= numpy_floor(row["runs"])
        append_row(trajectory(workload), row)
        print(f"appended a {len(row['runs'])}-run row to "
              f"{trajectory(workload).name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
