#!/usr/bin/env python3
"""CI smoke benchmark: every figure at TEST scale through the parallel runtime.

Runs table1, figure5, figure6 and the scionlab trio (Figures 7-9) at the
``test`` scale via :class:`repro.runtime.ExperimentRuntime`, then appends
one perf-trajectory entry to ``BENCH_smoke.json`` (a JSON list; one entry
per invocation) with wall time, per-phase timings, and cache hit/miss
counts per experiment. Intended as a fast CI gate that exercises the
process-pool fan-out and the warm-state cache end to end::

    PYTHONPATH=src python tools/bench_smoke.py [--jobs N] [--cache-dir DIR]
                                               [--output FILE] [--label TEXT]

With ``--cache-dir`` pointing at a persistent directory, the second CI run
demonstrates warm-start: the entry records which phases were served from
cache, so a trajectory regression (warm-up suddenly re-running) is visible
in the JSON diff.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import get_scale  # noqa: E402
from repro.experiments.figure5 import run_figure5  # noqa: E402
from repro.experiments.figure6 import run_figure6  # noqa: E402
from repro.experiments.scionlab import run_scionlab  # noqa: E402
from repro.experiments.table1 import run_table1  # noqa: E402
from repro.experiments.traffic import run_traffic  # noqa: E402
from repro.kernels import BACKEND_NAMES, available_backends  # noqa: E402
from repro.obs import Telemetry, configure_logging, get_reporter  # noqa: E402
from repro.runtime import ExperimentRuntime, default_jobs  # noqa: E402

reporter = get_reporter("repro.tools.bench_smoke")


def host_fingerprint() -> str:
    """Coarse hardware tag so trajectory entries from different machines
    (laptop vs CI runner) are never compared against each other."""
    return f"{platform.machine()}-cpu{os.cpu_count() or 0}"

EXPERIMENTS = {
    "table1": run_table1,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "scionlab": run_scionlab,  # Figures 7, 8 and 9 share this run.
    "traffic": run_traffic,  # End-to-end data-plane workload.
}


def forwarding_summary(result, report) -> dict:
    """Forwarding-throughput record for the traffic experiment: packets
    and MAC verifications performed, and — when the runs actually executed
    rather than being served from cache — packets per second."""
    packets = sum(r.packets_forwarded for r in result.results.values())
    macs = sum(r.macs_verified for r in result.results.values())
    run_seconds = sum(
        phase.seconds
        for phase in report.phases
        if phase.name.endswith(":run") and not phase.cached
    )
    summary = {"packets_forwarded": packets, "macs_verified": macs}
    if run_seconds > 0:
        summary["run_seconds"] = round(run_seconds, 3)
        summary["packets_per_second"] = round(packets / run_seconds, 1)
    return summary


def kernel_benchmarks(repeats: int = 3) -> dict:
    """Per-backend hot-loop throughput at TEST scale.

    For every installed kernel backend (``repro.kernels``) this times the
    two loops the backends own, in isolation from the surrounding engine
    (whose policy/SIG/metrics overhead is backend-independent and already
    covered by the traffic entry): ``deliver_flow`` over an engine-shaped
    forwarding workload — a few dozen unique paths revisited by many
    multi-packet flows, the access pattern that lets the batched backend
    amortize validation — and diversity beaconing through a full
    :class:`~repro.simulation.beaconing.BeaconingSimulation` (intervals
    per second). Each measurement is best-of-``repeats`` on a fresh
    kernel/simulation. The backends are byte-identical by contract; the
    delivered totals are asserted equal before the entry is recorded.
    """
    from repro.control.network import ScionNetwork
    from repro.dataplane import HostAddress, ScionPacket, build_forwarding_path
    from repro.experiments.common import build_full_stack_topology
    from repro.kernels import get_backend
    from repro.simulation.beaconing import (
        BeaconingSimulation,
        diversity_factory,
    )

    scale = get_scale("test")
    topology = build_full_stack_topology(scale, leaves_per_core=2)
    core_config = scale.core_beaconing_config(5)
    network = ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=core_config,
        intra_config=scale.intra_isd_config(5),
    ).run()

    endpoints = sorted(topology.non_core_asns())
    unique_packets = []
    for src in endpoints:
        for dst in endpoints:
            if src == dst or len(unique_packets) >= 40:
                continue
            paths = network.lookup_paths(src, dst)
            if not paths:
                continue
            path = paths[0]
            unique_packets.append(
                ScionPacket(
                    source=HostAddress(1, src),
                    destination=HostAddress(1, dst),
                    path=build_forwarding_path(
                        topology,
                        path.asns,
                        path.link_ids,
                        timestamp=network.now,
                        expiry=path.expires_at,
                    ),
                    payload_bytes=1200,
                )
            )
    flows = unique_packets * 5  # flows revisit paths, as real workloads do
    packets_per_flow = 16

    backends: dict = {}
    for backend in available_backends():
        forward_seconds = []
        delivered_total = 0
        for _ in range(repeats):
            kernel = get_backend(backend)
            delivered_total = 0
            start = time.perf_counter()
            for packet in flows:
                delivered, _ = kernel.deliver_flow(
                    network.router_table,
                    packet,
                    packets_per_flow,
                    now=network.now,
                )
                delivered_total += delivered
            forward_seconds.append(time.perf_counter() - start)

        beacon_seconds = []
        intervals = 0
        for _ in range(repeats):
            sim = BeaconingSimulation(
                topology, diversity_factory(kernel=backend), core_config
            )
            start = time.perf_counter()
            sim.run()
            beacon_seconds.append(time.perf_counter() - start)
            intervals = sim.intervals_run

        best_forward = min(forward_seconds)
        best_beacon = min(beacon_seconds)
        backends[backend] = {
            "packets_delivered": delivered_total,
            "forwarding_seconds": round(best_forward, 4),
            "forwarding_pps": round(delivered_total / best_forward, 1),
            "beaconing_intervals": intervals,
            "beaconing_seconds": round(best_beacon, 4),
            "beaconing_ips": round(intervals / best_beacon, 2),
        }
        reporter.info(
            f"  kernels[{backend}]: "
            f"{backends[backend]['forwarding_pps']:.0f} pkt/s, "
            f"{backends[backend]['beaconing_ips']:.1f} intervals/s"
        )

    # The byte-identical contract, smoke-checked on the bench workload.
    totals = {
        (b["packets_delivered"], b["beaconing_intervals"])
        for b in backends.values()
    }
    if len(totals) > 1:
        raise AssertionError(f"backend outputs diverged: {backends}")

    entry = {"backends": backends}
    if "python" in backends and "numpy" in backends:
        entry["forwarding_speedup"] = round(
            backends["numpy"]["forwarding_pps"]
            / backends["python"]["forwarding_pps"],
            2,
        )
        entry["beaconing_speedup"] = round(
            backends["numpy"]["beaconing_ips"]
            / backends["python"]["beaconing_ips"],
            2,
        )
    return entry


def scenario_compile_benchmark(repeats: int = 3) -> dict:
    """Compile-time record for the declarative scenario compiler.

    Lowers every built-in scenario family at TEST scale — the full
    spec → topology/deployment/overlay pipeline, no simulation runs —
    and records best-of-``repeats`` wall time. Compilation is the fixed
    cost every scenario experiment pays before its first cached phase,
    so a slowdown here lands on every ``scenarios`` invocation.
    """
    from repro.scenario import build_family, compile_scenario, family_names

    specs = [
        spec
        for family in family_names()
        for spec in build_family(family, "test")
    ]
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for spec in specs:
            compile_scenario(spec)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    entry = {
        "variants": len(specs),
        "compile_seconds": round(best, 4),
        "variants_per_second": round(len(specs) / best, 2),
    }
    reporter.info(
        f"  scenario compile: {entry['variants']} variants in "
        f"{entry['compile_seconds']:.2f}s "
        f"({entry['variants_per_second']:.1f}/s)"
    )
    return entry


def run_smoke(
    jobs: int,
    cache_dir: str | None,
    telemetry: Telemetry | None = None,
    backend: str = "python",
) -> dict:
    results = {}
    for name, runner in EXPERIMENTS.items():
        runtime = ExperimentRuntime(
            jobs=jobs, cache=cache_dir, telemetry=telemetry, backend=backend
        )
        start = time.perf_counter()
        result = runner(get_scale("test"), runtime=runtime)
        wall = time.perf_counter() - start
        # Render to prove the output path works; discard the text.
        rendered = result.render()
        assert rendered
        entry = {
            "wall_seconds": round(wall, 3),
            "report": runtime.report.to_dict(),
        }
        if name == "traffic":
            entry["forwarding"] = forwarding_summary(result, runtime.report)
        if runtime.cache is not None:
            entry["cache"] = {
                "hits": runtime.cache.hits,
                "misses": runtime.cache.misses,
            }
        results[name] = entry
        cached = runtime.report.cached_phases()
        served = f", cached: {', '.join(cached)}" if cached else ""
        reporter.info(f"  {name}: {wall:.2f}s{served}")
    return results


def append_trajectory(output: Path, entry: dict) -> None:
    history = []
    if output.exists():
        try:
            history = json.loads(output.read_text())
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(entry)
    output.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=default_jobs())
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="warm-state cache directory (default: no cache)",
    )
    parser.add_argument(
        "--output", default=str(ROOT / "BENCH_smoke.json"),
        help="trajectory file to append to",
    )
    parser.add_argument(
        "--label", default="", help="free-form tag stored with the entry"
    )
    parser.add_argument(
        "--backend",
        default="python",
        choices=BACKEND_NAMES,
        help="kernel backend for the experiment runs (repro.kernels)",
    )
    parser.add_argument(
        "--skip-kernels",
        action="store_true",
        help="skip the per-backend kernel microbenchmarks",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="also collect telemetry and write the metrics snapshot here",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="also collect telemetry and write the trace JSONL here",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the sampling profiler (implies telemetry)",
    )
    parser.add_argument("--log-level", default="info")
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    if args.backend not in available_backends():
        parser.error(
            f"--backend {args.backend} is not available in this install; "
            "the numpy backend needs the optional numpy extra "
            "(pip install 'repro[numpy]')"
        )

    collect = bool(args.metrics_out or args.trace_out or args.profile)
    telemetry = Telemetry.collecting(profile=args.profile) if collect else None
    reporter.info(
        f"smoke run: scale=test jobs={args.jobs} "
        f"backend={args.backend} cache={args.cache_dir or 'off'}"
        f"{' telemetry=on' if collect else ''}"
    )
    started = time.time()
    results = run_smoke(args.jobs, args.cache_dir, telemetry, args.backend)
    entry = {
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)
        ),
        "label": args.label,
        "scale": "test",
        "jobs": args.jobs,
        "backend": args.backend,
        "cache": bool(args.cache_dir),
        "telemetry": collect,
        "machine": host_fingerprint(),
        "python": platform.python_version(),
        "total_seconds": round(
            sum(e["wall_seconds"] for e in results.values()), 3
        ),
        "experiments": results,
    }
    if not args.skip_kernels:
        entry["kernels"] = kernel_benchmarks()
    entry["scenario_compile"] = scenario_compile_benchmark()
    append_trajectory(Path(args.output), entry)
    if telemetry is not None:
        if args.metrics_out:
            Path(args.metrics_out).write_text(
                telemetry.metrics.to_json() + "\n"
            )
            reporter.info(f"metrics snapshot -> {args.metrics_out}")
        if args.trace_out:
            count = telemetry.causal.write_jsonl(args.trace_out)
            reporter.info(f"{count} spans -> {args.trace_out}")
    reporter.info(
        f"total {entry['total_seconds']:.2f}s -> appended to {args.output}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
