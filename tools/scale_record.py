#!/usr/bin/env python3
"""Record the gain-vs-scale sweep, the parent tree beside this one.

Core beaconing at 16 and 32 cores, both algorithms, in each tree:

    python tools/scale_record.py [--cache-dir DIR] [--label TEXT]

A point is one algorithm on one core count in one tree, after ROADMAP
item 2's recipe: ``get_scale("bench").scaled(num_isds=c/4,
internet_ases=c*125/8)``, ``core_beaconing_config(60)``, the default
factory, a cold start; it runs 2P intervals, P being ``refresh_period`` at
the shipped ``DiversityParams``, and measures the second period. Each
run of a point is a process of its own, so its peak RSS is its own. A
point runs :data:`REPEATS` times in each tree, the two trees alternating
(parent, change, parent, ...), so a slow minute of the host lands on
both. A run records seconds per wave interval (one that sent more PCBs
than the period's mean) and per quiet interval, the period's PCBs and
bytes, the median and p95 bytes of the period over
``directed_interfaces()``, and peak RSS. A point's row keeps every run
under ``runs``; its top-level fields are the runs' medians, and it also
carries the gain of baseline over diversity at its core count and tree.

The parent is the one ``tools/bench_record.py`` gates against, unpacked
by its code. With ``--cache-dir`` each finished run is kept there under
a digest of its tree's ``src/`` and of this tool, the core count, the
algorithm and the repeat, so a rerun resumes where an interrupted one
stopped. The rows are appended to
``BENCH_scale.json`` (``repro-bench/1``, workload ``scale``);
``tools/fill_experiments.py`` renders the last recorded label's rows into
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

TRAJECTORY = ROOT / "BENCH_scale.json"
CORES = (16, 32)
ALGORITHMS = ("baseline", "diversity")
STORAGE_LIMIT = 60
#: Runs per point and tree: enough for ``bench/compare.py``'s quartiles
#: on a host whose speed swings about 2x within minutes.
REPEATS = 5


def measure(cores: int, algorithm: str) -> dict:
    """One point, in this process, with whichever ``repro`` it imports."""
    from repro.analysis.stats import nearest_rank
    from repro.core.scoring import DiversityParams, refresh_period
    from repro.experiments.common import build_core_topologies
    from repro.experiments.config import get_scale
    from repro.simulation.beaconing import (
        BeaconingSimulation,
        algorithm_factory,
    )

    scale = get_scale("bench").scaled(
        num_isds=cores // 4, internet_ases=cores * 125 // 8
    )
    topology = build_core_topologies(scale).scion_core
    config = scale.core_beaconing_config(STORAGE_LIMIT)
    period = refresh_period(
        DiversityParams(), config.pcb_lifetime, config.interval
    )
    sim = BeaconingSimulation(topology, algorithm_factory(algorithm), config)
    started = time.perf_counter()
    sim.run_intervals(period)
    metrics = sim.reset_metrics()
    seconds, sent = [], []
    for _ in range(period):
        tick = time.perf_counter()
        pcbs = len(sim.step())
        seconds.append(time.perf_counter() - tick)
        sent.append(pcbs)
    mean = sum(sent) / period
    wave = [s for s, n in zip(seconds, sent) if n > mean]
    quiet = [s for s, n in zip(seconds, sent) if n <= mean]
    per_interface = [
        metrics.interface_stats(link_id, sender).bytes
        for link_id, sender in sim.directed_interfaces()
    ]
    return {
        "cores": len(sim.servers),
        "links": topology.num_links,
        "algorithm": algorithm,
        "period": period,
        "intervals": 2 * period,
        "interval_s": sum(seconds) / period,
        "wave_intervals": len(wave),
        "wave_interval_s": sum(wave) / len(wave) if wave else None,
        "quiet_interval_s": sum(quiet) / len(quiet) if quiet else None,
        "pcbs": metrics.total_pcbs,
        "bytes": metrics.total_bytes,
        "interface_bytes_median": nearest_rank(per_interface, 0.5),
        "interface_bytes_p95": nearest_rank(per_interface, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "wall_s": time.perf_counter() - started,
    }


def host() -> dict:
    """What ``bench_record.same_host`` compares, and the load at start."""
    return {
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def tree_digest(tree: Path) -> str:
    """What a point depends on: every module of ``tree``'s ``src/``, and
    this tool, which measures it."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def point(tree: Path, cores: int, algorithm: str,
          cache_dir: Optional[Path] = None, repeat: int = 0) -> dict:
    """``measure`` in a fresh process on ``tree``'s ``src/``, or the run
    ``cache_dir`` kept from an earlier sweep of the same tree."""
    cached = None
    if cache_dir is not None:
        key = f"{tree_digest(tree)}-{cores}-{algorithm}-{repeat}"
        cached = Path(cache_dir) / f"scale-{key}.json"
        if cached.exists():
            return json.loads(cached.read_text())
    child = subprocess.run(
        [sys.executable, __file__, "--point", str(cores), algorithm],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    if cached is not None:
        cached.parent.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps(result))
    return result


def sweep(trees: Dict[str, Path],
          cache_dir: Optional[Path] = None) -> Dict[tuple, dict]:
    """Every point of every tree, each :data:`REPEATS` times with the trees
    alternating, keyed ``(side, cores, algorithm)``."""
    runs: Dict[tuple, List[dict]] = {}
    for cores in CORES:
        for algorithm in ALGORITHMS:
            for repeat in range(REPEATS):
                for side, tree in trees.items():
                    print(f"{side} {cores} cores {algorithm} "
                          f"run {repeat + 1}/{REPEATS}", flush=True)
                    runs.setdefault((side, cores, algorithm), []).append(
                        point(tree, cores, algorithm, cache_dir, repeat)
                    )
    return {key: medians(measured) for key, measured in runs.items()}


def medians(runs: List[dict]) -> dict:
    """A point's runs under ``runs``, each numeric field their median and
    every other field (a name, a wave no run had) the first run's."""
    point = dict(runs[0])
    for field, value in point.items():
        if isinstance(value, (int, float)):
            point[field] = statistics.median(run[field] for run in runs)
    return {**point, "runs": runs}


def rows(points: Dict[tuple, dict], commits: Dict[str, str], label: str,
         host: dict) -> List[dict]:
    """One ``repro-bench/1`` row per ``(side, cores, algorithm)`` point,
    with the baseline/diversity gain of its side and core count."""
    out = []
    for (side, cores, algorithm), measured in points.items():
        pair = [points.get((side, cores, name)) for name in ALGORITHMS]
        gain = {}
        if all(pair):
            baseline, diversity = pair
            gain = {
                "gain_pcbs": baseline["pcbs"] / diversity["pcbs"],
                "gain_bytes": baseline["bytes"] / diversity["bytes"],
            }
        row = bench_record.new_row("scale", label, host)
        row.update(commit=commits[side], side=side, **measured, **gain)
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", type=Path,
                        help="keep finished points here; a rerun reuses them")
    parser.add_argument("--label", default="", help="stored with the rows")
    parser.add_argument("--point", nargs=2, metavar=("CORES", "ALGORITHM"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        cores, algorithm = args.point
        print(json.dumps(measure(int(cores), algorithm)))
        return 0

    bench_record.read_rows(TRAJECTORY)  # refuses a file that does not parse
    started = host()
    parent = bench_record.parent_commit(ROOT)
    head = bench_record.git(ROOT, "rev-parse", "--short", "HEAD").stdout
    change = head.strip() + ("+dirty" if bench_record.dirty(ROOT) else "")
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": bench_record.unpack(parent, Path(scratch)),
                 "change": ROOT}
        points = sweep(trees, args.cache_dir)
    started["loadavg_1m_end"] = os.getloadavg()[0]
    commits = {"parent": parent, "change": change}
    for row in rows(points, commits, args.label, started):
        bench_record.append_row(TRAJECTORY, row)
        print(f"{row['side']:6} {row['cores']:3} {row['algorithm']:9} "
              f"{row['interval_s']:.3f} s/interval  {row['pcbs']} PCBs  "
              f"peak {row['peak_rss_mb']:.1f} MiB")
    print(f"appended {len(points)} rows to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
