#!/usr/bin/env python3
"""Run one benchmark workload in one process and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--topology-seed N]
                         [--seconds S] [--trace [0|1]] [--out FILE]
    python3 bench/run.py --check-surface

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). ``--out`` additionally writes the full
result (all metrics, exact counts, host context, spans) for
``bench/compare.py``.

Host time is what is measured; the simulator's own statistics are what
is checked. All loops are closed and single-process: ``jobs=1``,
``shards=1``, python kernel backend, telemetry off. ``--seconds`` sets
the *size*: each workload does a fixed amount of work that takes about
that long on the reference host (see ``bench/README.md``), so operation
counts repeat exactly for a given ``--seconds`` and pair of seeds. Times
are reported at the reference host's speed (:class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import catalogue  # noqa: E402
import surface  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

#: Both passes of a traced run are done at this share of the size, so a
#: traced run costs about what an untraced one does.
TRACE_SIZE = 0.5


class HostSpeed:
    """How fast this host runs pure Python right now, relative to the
    reference host when quiet.

    The hosts this runs on are small shared VMs whose speed sags by 25-40%
    for minutes at a time when a neighbour is busy; a fixed spin measured
    beside the work sags with it. A spin is a plain arithmetic loop of
    about 9 ms: a variant that also walked a large list in shuffled order
    fell to 0.27 of its speed when a neighbour thrashed the cache while the
    simulator itself lost only 30%, so it over-corrected. A sample is the
    best of three spins (the best, because short bursts only ever add
    time), taken between timed segments at most every
    ``MIN_GAP_S``; the run's speed is the upper quartile of the samples —
    under a bursty neighbour the samples are skewed towards slow (deciles
    0.47 to 0.99 in one minute), and over groups of 20 the upper quartile
    varied by 2.6% where the median varied by 9%, while a sustained sag
    lowers both. Every time-derived metric is reported at reference speed:
    seconds are multiplied by it, rates divided by it.
    """

    ITERATIONS = 300_000
    #: Best-of-three spin on the quiet reference host (Python 3.11).
    REFERENCE_S = 0.0086
    MIN_GAP_S = 0.25

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = 0.0

    @classmethod
    def _spin(cls) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(cls.ITERATIONS):
            total += i
        return time.perf_counter() - start

    def sample(self) -> None:
        if time.perf_counter() - self._last < self.MIN_GAP_S:
            return
        best = min(self._spin() for _ in range(3))
        self.samples.append(self.REFERENCE_S / best)
        self._last = time.perf_counter()

    def relative(self) -> float:
        if len(self.samples) < 2:
            return self.samples[0]
        return statistics.quantiles(self.samples, n=4)[2]


def at_reference_speed(value: float, unit: str, speed: float) -> float:
    if unit in ("s", "ms", "us"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


class Stage:
    """Accumulated wall and CPU time of one named stage of the work."""

    __slots__ = ("wall_s", "cpu_s", "last_s")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.last_s = 0.0


class Run:
    """What a workload sees: its inputs, and where its outputs go."""

    def __init__(
        self, S, seed: int, topology_seed: int, size: float, tracer, host
    ) -> None:
        self.S = S
        self.host = host
        #: Seeds the demand: which pairs, flows, requests, in which order.
        self.seed = seed
        #: Seeds the topologies (and everything the figures derive from
        #: their scale). Fixed by default: the cost of a run follows the
        #: topology far more than any change under test would move it.
        self.topology_seed = topology_seed
        self.size = size
        self.tracer = tracer
        self.stages: Dict[str, Stage] = {}
        self.values: Dict[str, float] = {}
        #: Exact, repeatable counts (same seed and size => same numbers).
        self.counts: Dict[str, int] = {}
        #: Per-call or per-interval samples a later measurement refers to.
        self.detail: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def child(self) -> "Run":
        """Same inputs, fresh outputs: for a measurement beside the work."""
        return Run(
            self.S, self.seed, self.topology_seed, self.size, self.tracer,
            self.host,
        )

    @property
    def full_size(self) -> bool:
        return self.size >= 1.0

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, round(count * self.size))

    @contextmanager
    def stage(self, name: str) -> Iterator[Stage]:
        """Time a block as (part of) stage ``name``; the sum over stages
        is ``work_s`` / ``cpu_s``. In the traced run it is also a span."""
        stage = self.stages.setdefault(name, Stage())
        with self.tracer.span(name):
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                yield stage
            finally:
                stage.last_s = time.perf_counter() - start
                stage.wall_s += stage.last_s
                stage.cpu_s += time.process_time() - cpu
        with self.tracer.span("host.sample"):
            self.host.sample()

    @property
    def work_s(self) -> float:
        return sum(stage.wall_s for stage in self.stages.values())

    @property
    def cpu_s(self) -> float:
        return sum(stage.cpu_s for stage in self.stages.values())

    def put(self, name: str, value: float) -> None:
        if name not in catalogue.METRICS:
            raise KeyError(f"metric {name!r} is not in bench/catalogue.py")
        self.values[name] = float(value)

    def check(self, ok: bool, what: str, operations: int = 1, bad: int = 0) -> None:
        """Count ``operations`` checked operations, ``bad`` of them (or
        all, when ``ok`` is false and ``bad`` is 0) failed."""
        self.attempted += operations
        if not ok or bad:
            self.failed += bad or operations
            if len(self.failures) < 20:
                self.failures.append(what)


def host_context() -> dict:
    """Enough about the host to recognise a disturbed run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_workload(args) -> dict:
    workload = workloads.get(args.workload)
    size = args.seconds / catalogue.RUN_SECONDS
    if args.trace:
        size *= TRACE_SIZE

    context = host_context()
    host = HostSpeed()
    host.sample()
    started = time.perf_counter()
    S = surface.load()
    import_s = time.perf_counter() - started

    run = Run(S, args.seed, args.topology_seed, size, NULL_TRACER, host)
    builds = []
    for _ in range(workload.SETUP_REPEATS):
        host.sample()
        started = time.perf_counter()
        state = workload.setup(run)
        builds.append(time.perf_counter() - started)
    host.sample()
    workload.work(run, state)
    del state
    run.put("setup_s", import_s + statistics.median(builds))
    run.put("work_s", run.work_s)
    run.put(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result = {
        "schema": catalogue.SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "topology_seed": args.topology_seed,
        "seconds": args.seconds,
        "size": size,
        "trace": bool(args.trace),
        # As the clock read them, before scaling to reference speed; wall
        # well above CPU means the run was preempted.
        "work_wall_s": run.work_s,
        "work_cpu_s": run.cpu_s,
    }
    runs = [run]

    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        traced = Run(S, args.seed, args.topology_seed, size, tracer, host)
        started = time.perf_counter()
        state = workload.setup(traced)
        workload.instrument(traced, state)
        try:
            workload.work(traced, state)
        finally:
            tracer.unwrap_all()
        traced_wall = time.perf_counter() - started
        self_sum = sum(tracer.self_times())
        workload.layers(traced, state, run)
        run.values.update(
            {k: v for k, v in traced.values.items() if k not in run.values}
        )
        run.put("trace.overhead_ratio", traced.work_s / run.work_s)
        run.put("trace.self_sum_ratio", self_sum / traced_wall)
        result["traced_wall_s"] = traced_wall
        result["spans"] = tracer.to_json()
        runs.append(traced)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if attempted < 1:
        raise RuntimeError(f"{args.workload}: no output check ran")
    speed = host.relative()
    result.update(
        ops_attempted=attempted,
        ops_failed=failed,
        failed_ratio=failed / attempted,
        failures=[f for r in runs for f in r.failures],
        counts={k: v for r in runs for k, v in sorted(r.counts.items())},
        metrics={
            name: {
                "value": at_reference_speed(
                    value, catalogue.METRICS[name]["unit"], speed
                ),
                "unit": catalogue.METRICS[name]["unit"],
                "kind": catalogue.METRICS[name]["kind"],
            }
            for name, value in run.values.items()
        },
        host={
            **context,
            "loadavg_1m_end": os.getloadavg()[0],
            "relative": speed,
            "samples": host.samples,
            # Loop iterations of the calibration spin per second.
            "calib_ops_per_s": (
                HostSpeed.ITERATIONS * speed / HostSpeed.REFERENCE_S
            ),
        },
    )
    return result


def last_line(result: dict) -> dict:
    """The driver's object: every end-to-end metric untraced, every
    per-layer metric traced (0 for layers the workload does not touch)."""
    declared = catalogue.PER_LAYER if result["trace"] else catalogue.END_TO_END
    measured = result["metrics"]
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            m["name"]: {
                "value": measured.get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"],
            }
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(catalogue.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=catalogue.GOLDEN_SEED,
        help="seeds the demand (pairs, flows, requests and their order)",
    )
    parser.add_argument(
        "--topology-seed", type=int, default=catalogue.GOLDEN_SEED,
        help=f"seeds the topologies; {catalogue.HELD_OUT_SEED} is the "
        "held-out value for claims",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue.RUN_SECONDS),
        help="size of the timed work, as its nominal duration",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also run the traced pass and report per-layer metrics",
    )
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument(
        "--check-surface", action="store_true",
        help="resolve every repro symbol the benchmark uses, then exit",
    )
    args = parser.parse_args(argv)

    if args.check_surface:
        print(f"bench surface: {surface.check()} symbols resolve")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(args)

    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'host speed (1 = quiet reference host)':45s} "
          f"{result['host']['relative']:.3f}")
    print(
        f"{'ops':45s} {result['ops_attempted']} attempted, "
        f"{result['ops_failed']} failed"
    )
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(last_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
