"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments <experiment> [--scale test|bench|paper]
                                [--jobs N] [--shards N|auto]
                                [--backend python|numpy]
                                [--cache-dir DIR | --no-cache]
                                [--no-timing]

Experiments: table1, figure5, figure6 (6a+6b), figure7, figure8, figure9
(7-9 share one run), scionlab, gridsearch, faults (fault-injection
recovery study; see ``--fault-schedules``), traffic (end-to-end
data-plane workloads: goodput, latency, utilization, cache hit rates),
multipath (per-flow multipath scheduling over long churn horizons with
an ML-ready dataset export; see ``--strategy``/``--k-paths``/
``--churn-intervals``/``--dataset-out``), serve (a scripted session of the always-on measurement service: seeded
multi-client load against a persistent network under a virtual clock;
see ``--clients``/``--seed``/``--wall``; ``--scenario`` hosts a compiled
scenario network), scenarios (declarative deployment-diversity scenario
families compiled by ``repro.scenario``; see ``--family``/
``--scenario-file``/``--list-families``), all.

``--jobs N`` fans independent beaconing series out over N worker
processes; ``--jobs 1`` (the default) runs the same code path serially and
produces byte-identical results. Expensive prerequisites (topologies,
warm-up snapshots, BGP measurements) are cached under ``--cache-dir``
(default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so a second
invocation skips straight to the measurement window — the timing report
printed after each experiment shows which phases were served from cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..kernels import BACKEND_NAMES, available_backends
from ..multipath.scheduler import STRATEGY_NAMES
from ..obs import NULL_TELEMETRY, Telemetry, configure_logging, get_reporter
from ..obs.log import LEVELS
from ..obs.slo import DEFAULT_SERVICE_SLOS, evaluate_slos, slo_summary
from ..runtime import ExperimentRuntime, default_cache_dir, default_jobs
from .config import get_scale
from .faults import run_faults
from .figure5 import run_figure5
from .figure6 import run_figure6
from .gridsearch import run_gridsearch
from .scenarios import run_scenarios
from .scionlab import run_scionlab
from .multipath import run_multipath
from .table1 import run_table1
from .traffic import run_traffic


class _LazyHelp(str):
    """Help text built when argparse expands it (``--help``), not when
    the parser is constructed."""

    def __new__(cls, build):
        self = super().__new__(cls, "lazy")
        self._build = build
        return self

    def __mod__(self, params):
        return self._build() % params


def _jobs_help() -> str:
    try:
        hint = f"this machine would default to {default_jobs()}"
    except ValueError as exc:  # a malformed $REPRO_JOBS must not break --help
        hint = str(exc)
    return f"worker processes for independent runs (1 = serial; {hint})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "figure5", "figure6", "figure6a", "figure6b",
            "figure7", "figure8", "figure9", "scionlab", "gridsearch",
            "faults", "traffic", "multipath", "serve", "scenarios", "all",
        ],
    )
    parser.add_argument("--scale", default="bench")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=_LazyHelp(_jobs_help),
    )
    parser.add_argument(
        "--shards",
        default="1",
        help=(
            "beaconing shards per series (repro.shard kernel); results are "
            "byte-identical to --shards 1 for any count. 'auto' picks "
            "min(cpu count, ISD count of the scale)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="python",
        choices=BACKEND_NAMES,
        help=(
            "kernel backend for the forwarding/scoring hot loops "
            "(repro.kernels); results are byte-identical to --backend "
            "python for any choice. 'numpy' needs the optional numpy extra"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory for cached topologies/warm-up snapshots "
            f"(default: {default_cache_dir()})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk prerequisite cache",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="suppress the per-phase timing report",
    )
    parser.add_argument(
        "--fault-schedules",
        type=int,
        default=None,
        help=(
            "randomized fault schedules per algorithm for the 'faults' "
            "experiment (default: per-scale preset)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the merged metrics snapshot (JSON) to this path",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "write the stitched span stream (JSONL, one record shape) to "
            "this path; inspect with 'tools/obs_report.py tree' or convert "
            "with 'tools/obs_report.py chrome' for chrome://tracing"
        ),
    )
    parser.add_argument(
        "--slo-out",
        default=None,
        help=(
            "write the SLO compliance summary (JSON) to this path; for "
            "'serve' this is the session's live objectives, for "
            "experiment runs it evaluates the merged registry"
        ),
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        help=(
            "directory for flight-recorder post-mortem dumps (JSONL), "
            "written when a request times out, retries exhaust, a "
            "scenario deadlocks, or an invariant fails"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable the sampling profiler; hot phases are printed and "
            "folded into the metrics snapshot as wall-clock gauges"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=LEVELS,
        help="reporter verbosity (default: info, plain stdout lines)",
    )
    scenarios = parser.add_argument_group(
        "scenarios", "declarative deployment scenarios (experiment 'scenarios')"
    )
    scenarios.add_argument(
        "--family",
        default=None,
        help=(
            "built-in scenario family to run (see --list-families); "
            "mutually exclusive with --scenario-file"
        ),
    )
    scenarios.add_argument(
        "--scenario-file",
        default=None,
        help="run one scenario spec from a TOML/JSON file",
    )
    scenarios.add_argument(
        "--list-families",
        action="store_true",
        help="list the built-in scenario families and exit",
    )
    multipath = parser.add_argument_group(
        "multipath", "churn horizons + dataset export (experiment 'multipath')"
    )
    multipath.add_argument(
        "--strategy",
        default="weighted-ecmp",
        choices=STRATEGY_NAMES,
        help=(
            "multipath scheduling strategy to compare against the "
            "single-path baseline (default: weighted-ecmp)"
        ),
    )
    multipath.add_argument(
        "--k-paths", type=int, default=3,
        help="maximum paths per flow the strategy may select (default: 3)",
    )
    multipath.add_argument(
        "--churn-intervals", type=int, default=None,
        help=(
            "scheduling intervals in the churn horizon "
            "(default: per-scale preset; 'paper' uses 500)"
        ),
    )
    multipath.add_argument(
        "--dataset-out",
        default=None,
        help=(
            "export the per-path time-series dataset (JSONL/CSV + "
            "content-addressed manifest) to this directory"
        ),
    )
    serve = parser.add_argument_group(
        "serve", "scripted measurement-service sessions (experiment 'serve')"
    )
    serve.add_argument(
        "--scenario",
        default=None,
        help=(
            "serve a compiled scenario network (TOML/JSON spec file) "
            "instead of a built-in scale's network"
        ),
    )
    serve.add_argument(
        "--clients", type=int, default=1000,
        help="simulated clients in the scripted session (default: 1000)",
    )
    serve.add_argument(
        "--requests-per-client", type=int, default=3,
        help="requests each client submits (default: 3)",
    )
    serve.add_argument(
        "--seed", type=int, default=42,
        help="load-generator seed; same seed => byte-identical session",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="service worker tasks draining the request queue (default: 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded request-queue depth / admission control (default: 64)",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="per-client token-bucket rate in requests/s (default: 50)",
    )
    serve.add_argument(
        "--burst", type=float, default=20.0,
        help="per-client token-bucket burst (default: 20)",
    )
    serve.add_argument(
        "--wall", action="store_true",
        help="run against the wall clock instead of the virtual clock",
    )
    serve.add_argument(
        "--snapshot-out", default=None,
        help="write the session's canonical JSON report to this path",
    )
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    reporter = get_reporter("repro.experiments")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    telemetry = _collecting_telemetry(args)
    if args.experiment == "serve":
        return _run_serve(args, reporter, telemetry, parser)
    try:
        scale = get_scale(args.scale)
    except ValueError as exc:
        parser.error(f"--scale: {exc}")
    if args.experiment == "scenarios":
        if args.list_families:
            from .scenarios import render_family_list

            reporter.info(render_family_list(scale.name))
            return 0
        if bool(args.family) == bool(args.scenario_file):
            parser.error(
                "scenarios needs exactly one of --family or "
                "--scenario-file (or --list-families)"
            )
    shards = _resolve_shards(args.shards, scale, parser)
    if args.backend not in available_backends():
        parser.error(
            f"--backend {args.backend} is not available in this install; "
            "the numpy backend needs the optional numpy extra "
            "(pip install 'repro[numpy]')"
        )

    def make_runtime() -> ExperimentRuntime:
        cache = None
        if not args.no_cache:
            cache = args.cache_dir if args.cache_dir else default_cache_dir()
        return ExperimentRuntime(
            jobs=args.jobs,
            cache=cache,
            telemetry=telemetry,
            shards=shards,
            backend=args.backend,
        )

    runners = {
        "table1": lambda rt: run_table1(scale, runtime=rt).render(),
        "figure5": lambda rt: run_figure5(scale, runtime=rt).render(),
        "figure6": lambda rt: run_figure6(scale, runtime=rt).render(),
        "figure6a": lambda rt: run_figure6(scale, runtime=rt).render(),
        "figure6b": lambda rt: run_figure6(scale, runtime=rt).render(),
        "figure7": lambda rt: run_scionlab(scale, runtime=rt).render(),
        "figure8": lambda rt: run_scionlab(scale, runtime=rt).render(),
        "figure9": lambda rt: run_scionlab(scale, runtime=rt).render(),
        "scionlab": lambda rt: run_scionlab(scale, runtime=rt).render(),
        "gridsearch": lambda rt: _render_gridsearch(scale),
        "faults": lambda rt: run_faults(
            scale, num_schedules=args.fault_schedules, runtime=rt
        ).render(),
        "traffic": lambda rt: run_traffic(scale, runtime=rt).render(),
        "multipath": lambda rt: run_multipath(
            scale,
            runtime=rt,
            strategy=args.strategy,
            k_paths=args.k_paths,
            num_intervals=args.churn_intervals,
            dataset_out=args.dataset_out,
        ).render(),
        "scenarios": lambda rt: run_scenarios(
            scale,
            family=args.family,
            scenario_file=args.scenario_file,
            runtime=rt,
        ).render(),
    }
    names = [args.experiment]
    if args.experiment == "all":
        names = [
            "table1", "figure5", "figure6", "scionlab", "gridsearch",
            "faults", "traffic", "multipath",
        ]
    for name in names:
        runtime = make_runtime()
        start = time.time()
        with (telemetry or NULL_TELEMETRY).causal.span("experiments", name):
            output = runners[name](runtime)
        reporter.info(output)
        if telemetry is not None and args.slo_out:
            runtime.report.slo = slo_summary(
                evaluate_slos(telemetry.metrics, DEFAULT_SERVICE_SLOS)
            )
        if not args.no_timing and runtime.report.phases:
            reporter.info("")
            reporter.info(runtime.report.render())
        reporter.info(f"[{name} completed in {time.time() - start:.1f}s]\n")
    if telemetry is not None:
        _write_telemetry(telemetry, args, reporter)
    return 0


def _collecting_telemetry(args):
    """The run's collecting bundle when any telemetry output was asked
    for (``None`` otherwise)."""
    if not (
        args.metrics_out or args.trace_out or args.profile
        or args.slo_out or args.flight_dir
    ):
        return None
    telemetry = Telemetry.collecting(profile=args.profile)
    if args.flight_dir:
        telemetry.flight.configure(directory=args.flight_dir)
    return telemetry


def _run_serve(args, reporter, telemetry, parser) -> int:
    """The 'serve' experiment: one scripted measurement-service session."""
    from ..service import (
        LoadConfig,
        ServiceConfig,
        SessionConfig,
        run_session,
    )

    network = None
    endpoints = None
    scale_label = args.scale
    if args.scenario:
        # Host a compiled scenario network instead of a built-in scale's:
        # compile the spec, run its control plane once, and pin the load
        # generator to the scenario's endpoint ASes.
        from ..control.network import ScionNetwork
        from ..scenario import compile_scenario, load_spec

        spec = load_spec(args.scenario)
        compiled = compile_scenario(spec)
        network = ScionNetwork(compiled.topology, algorithm="diversity").run()
        endpoints = list(compiled.endpoints)
        scale_label = f"scenario:{spec.name}"
    else:
        from ..service.session import resolve_scale

        try:
            resolve_scale(args.scale)
        except ValueError as exc:
            parser.error(f"--scale: {exc}")
    config = SessionConfig(
        scale=scale_label,
        load=LoadConfig(
            num_clients=args.clients,
            requests_per_client=args.requests_per_client,
            seed=args.seed,
        ),
        service=ServiceConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            rate_per_client=args.rate,
            burst_per_client=args.burst,
        ),
        virtual=not args.wall,
    )
    start = time.time()
    report = run_session(
        config, obs=telemetry, network=network, endpoints=endpoints
    )
    reporter.info(report.render())
    if args.snapshot_out:
        with open(args.snapshot_out, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        reporter.info(f"[session snapshot written to {args.snapshot_out}]")
    if telemetry is not None:
        _write_telemetry(telemetry, args, reporter, slo=report.slo)
    reporter.info(f"[serve completed in {time.time() - start:.1f}s]\n")
    return 0


def _resolve_shards(value: str, scale, parser) -> int:
    """``--shards N|auto`` → a validated shard count.

    ``auto`` caps at the scale's ISD count: the partitioner is ISD-atomic,
    so more shards than ISDs would only force the degree-balanced
    fallback without adding parallelism headroom.
    """
    import os

    if value == "auto":
        return max(1, min(os.cpu_count() or 1, scale.num_isds))
    try:
        shards = int(value)
    except ValueError:
        parser.error(f"--shards must be an integer or 'auto', got {value!r}")
    if shards < 1:
        parser.error(f"--shards must be >= 1, got {shards}")
    return shards


def _write_telemetry(telemetry: Telemetry, args, reporter, *, slo=None) -> None:
    """Persist the merged telemetry per the CLI flags."""
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(telemetry.metrics.to_json())
            handle.write("\n")
        reporter.info(f"[metrics snapshot written to {args.metrics_out}]")
    if args.trace_out:
        count = telemetry.causal.write_jsonl(args.trace_out)
        reporter.info(f"[{count} spans written to {args.trace_out}]")
    if args.slo_out:
        if slo is None:
            slo = slo_summary(
                evaluate_slos(telemetry.metrics, DEFAULT_SERVICE_SLOS)
            )
        with open(args.slo_out, "w") as handle:
            json.dump(slo, handle, sort_keys=True, indent=2)
            handle.write("\n")
        reporter.info(f"[SLO summary written to {args.slo_out}]")
    if telemetry.flight.enabled and telemetry.flight.dumps:
        summary = telemetry.flight.summary()
        reporter.info(
            f"[flight recorder: {summary['dumps']} dump(s) "
            f"({', '.join(summary['triggers'])})"
            + (
                f" in {telemetry.flight.directory}"
                if telemetry.flight.directory is not None else ""
            )
            + "]"
        )
    if args.profile:
        totals = {}
        for entry in telemetry.metrics.snapshot()["gauges"]:
            if entry["name"] != "profile.seconds_estimate":
                continue
            phase = entry["labels"].get("phase", "?")
            totals[phase] = totals.get(phase, 0.0) + entry["value"]
        if totals:
            reporter.info("hot phases (extrapolated wall seconds):")
            for phase in sorted(totals, key=lambda p: -totals[p])[:10]:
                reporter.info(f"  {phase:40s} {totals[phase]:9.3f}s")


def _render_gridsearch(scale) -> str:
    result = run_gridsearch(scale, coarse_only=(scale.name == "test"))
    best = result.best_params
    return (
        "Grid search (quality - overhead objective, "
        f"{result.num_evaluations} evaluations):\n"
        f"  best: alpha={best.alpha:.2f} beta={best.beta:.2f} "
        f"gamma={best.gamma:.2f} threshold={best.score_threshold:.3f} "
        f"(score {result.best_score:.3f})"
    )


if __name__ == "__main__":
    sys.exit(main())
