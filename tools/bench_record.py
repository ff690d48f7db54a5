#!/usr/bin/env python3
"""Gate a benchmark row against its parent, run side by side, and record it.

    python tools/bench_record.py [--workload NAME ...] [--seeds N]
                                 [--seconds S] [--label TEXT]

The parent is ``HEAD`` when ``src/`` or ``bench/`` differ from it, else
``HEAD^``. Its ``git archive`` is unpacked into a temporary directory with
this tree's ``bench/`` in place of its own, so both sides run the same
benchmark. ``bench/run.py --check-surface`` must pass in both trees before
anything is timed; when it fails, or the parent does not resolve (a
shallow clone), the tool exits 2 naming the parent and the cause.

Both trees are then compiled (``compileall``, into their own
``__pycache__``): ``setup_s`` includes importing the package, which takes
about twice as long from source, and the parent is a fresh checkout while
this tree keeps whatever bytecode earlier runs left (none at all under
``PYTHONDONTWRITEBYTECODE``). Per demand seed 1..N and workload,
``bench/run.py --out`` runs in both trees back to back, the first side
alternating by seed; one ``--trace 1`` run per workload on this side adds
per-layer evidence. The gate is ``bench/compare.py`` with the parent's
runs as side A; its exit status is this tool's, plus one absolute floor:
on the traced ``endpoint_stack`` run numpy must forward packet trains
``NUMPY_FLOOR`` times as fast as python.

Whatever the verdict, a ``repro-bench/1`` row is appended to
``BENCH_<workload>.json``: commit, label, ``host``, ``backfilled``,
``seconds``, a ``summary`` (median and quartiles of every untraced
metric), ``parent`` (its ``commit``, ``summary`` and runs) and per run
the ``KEPT`` keys: a row's pairs can be gated again, ``--claim`` too. The newest measured row of the same host and size is
compared too, in a printed drift report that never gates.

Fewer than ``MIN_SEEDS`` seeds, or ``--seconds`` below the full run size
(``catalogue.RUN_SECONDS``), exits 2 before anything runs: such runs are
too few or too short to gate, and their row would be a smaller size than
the rows on file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NoReturn, Optional

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
#: The fewest demand seeds a row may be gated and recorded with: three
#: quarter-size pairs have read host noise as a ``REGRESSION``.
MIN_SEEDS = 5


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


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def dirty(root: Path) -> bool:
    """Whether ``src/`` or ``bench/`` differ from ``HEAD``."""
    return bool(git(root, "status", "--porcelain", "--", "src", "bench").stdout.strip())


def refuse(commit: str, cause: str) -> NoReturn:
    print(f"PARENT {commit}: {cause}; nothing measured", file=sys.stderr)
    raise SystemExit(2)


def parent_commit(root: Path) -> str:
    """The short commit to gate against: ``HEAD`` when the tree is dirty,
    else ``HEAD^``; exits 2 when it does not resolve."""
    ref = "HEAD" if dirty(root) else "HEAD^"
    found = git(root, "rev-parse", "--verify", "--quiet", "--short", ref)
    if found.returncode:
        refuse(ref, "does not resolve (a first commit, or a clone without "
                    "the parent: fetch at least two commits)")
    return found.stdout.strip()


def unpack(commit: str, into: Path) -> Path:
    """``commit``'s tree under ``into``, with this tree's ``bench/``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    shutil.rmtree(into / "bench", ignore_errors=True)
    shutil.copytree(
        ROOT / "bench", into / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    return into


def check_surface(tree: Path, side: str, commit: str) -> None:
    """Exit 2, naming ``commit``, when ``bench/`` does not resolve against
    ``tree``'s ``src/``."""
    check = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--check-surface"],
        cwd=tree, capture_output=True, text=True,
    )
    if check.returncode:
        cause = (check.stderr + check.stdout).strip().splitlines() or ["no output"]
        refuse(commit, f"bench/run.py --check-surface fails in the {side} "
                       f"tree: {cause[-1]}")


def new_row(workload: str, label: str, host: dict) -> dict:
    commit = git(ROOT, "rev-parse", "--short", "HEAD").stdout.strip()
    return {
        "schema": catalogue.SCHEMA, "workload": workload,
        "commit": commit + ("+dirty" if dirty(ROOT) else ""),
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
    return next((
        row for row in reversed(rows)
        if not row.get("backfilled") and same_host(row.get("host", {}), host)
        and any(r["size"] == size and not r["trace"] for r in row.get("runs", ()))
    ), None)


def report_drift(rows: List[dict], row: dict, size: float) -> None:
    """Print how ``row`` reads against its baseline; never a verdict."""
    side_a = baseline(rows, row["host"], size)
    if side_a is not None:
        print(f"\n{row['workload']}: drift against {side_a['commit']} "
              f"{side_a['label']!r}, a report, not gated", flush=True)
        gate(side_a, row)


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


def compile_tree(tree: Path) -> None:
    """Bytecode for every module of ``tree``'s ``src/`` and ``bench/``, so
    no timed run imports from source."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "bench"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "result.json"
        subprocess.run(
            [sys.executable, str(tree / "bench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace), "--out", str(out)],
            cwd=tree, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())


def gate(row_a: dict, row_b: dict) -> int:
    """``bench/compare.py`` over the runs of two rows; its exit status."""
    with tempfile.TemporaryDirectory() as scratch:

        def files(side: str, row: dict) -> List[str]:
            paths = [f"{scratch}/{side}{i}.json" for i in range(len(row["runs"]))]
            for path, run in zip(paths, row["runs"]):
                Path(path).write_text(json.dumps(
                    {"schema": row["schema"], "workload": row["workload"], **run}))
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
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="record only this workload (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="demand seeds 1..N per workload")
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS),
                        help="run.py's size (the size of the drift report's rows too)")
    parser.add_argument("--label", default="", help="stored with the row")
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS
    if args.seeds < MIN_SEEDS or args.seconds < catalogue.RUN_SECONDS:
        print(f"REFUSED: --seeds {args.seeds} --seconds {args.seconds:g} is "
              f"too small to gate or record: a row needs at least "
              f"{MIN_SEEDS} seeds at --seconds {catalogue.RUN_SECONDS} or "
              f"more, or host noise reads as a verdict; nothing measured",
              file=sys.stderr)
        return 2

    # A trajectory that does not parse, a parent that does not resolve or a
    # bench/ that does not run stop the tool before measuring, not after.
    history = {w: read_rows(trajectory(w)) for w in workloads}
    commit = parent_commit(ROOT)
    results = {(side, w): [] for side in ("parent", "change") for w in workloads}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": unpack(commit, Path(scratch)), "change": ROOT}
        for side, tree in trees.items():
            check_surface(tree, side, commit)
            compile_tree(tree)
        print(f"parent {commit}, run side by side", flush=True)
        for seed in range(1, args.seeds + 1):
            order = ["parent", "change"][:: 1 if seed % 2 else -1]
            for workload in workloads:
                for side in order:
                    print(f"run {side} {workload} --seed {seed}", flush=True)
                    results[side, workload].append(
                        run_once(trees[side], workload, seed, args.seconds, 0))
    for workload in workloads:
        print(f"run change {workload} --seed 1 --trace 1", flush=True)
        results["change", workload].append(run_once(ROOT, workload, 1, args.seconds, 1))

    status = 0
    for workload in workloads:
        parent_runs, runs = (
            [{k: r[k] for k in KEPT} for r in results[side, workload]]
            for side in ("parent", "change")
        )
        row = new_row(workload, args.label, results["change", workload][0]["host"])
        row.update(seconds=args.seconds, runs=runs, summary=summarise(runs),
                   parent={"commit": commit, "summary": summarise(parent_runs),
                           "runs": parent_runs})
        report_drift(history[workload], row, runs[0]["size"])
        print(f"\n{workload}: gated against parent {commit}", flush=True)
        status |= gate({**row, "runs": parent_runs}, row)
        if workload == "endpoint_stack":
            status |= numpy_floor(row["runs"])
        append_row(trajectory(workload), row)
        print(f"appended a {len(row['runs'])}-run row to "
              f"{trajectory(workload).name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
