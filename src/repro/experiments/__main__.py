"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments <experiment> [--scale mini|test|bench|paper]
                                [--obs-dir DIR] [--log-level L]
                                [that experiment's flags: <experiment> --help]

A generic driver over :data:`REGISTRY`. Every family's module exports one
:class:`~repro.experiments.config.Experiment` entry that owns its flags;
the sub-commands, their aliases, ``all`` and the catalogue below derive
from the entries, and a flag another experiment owns is an error.
Experiments under the runtime also take ``--jobs``, ``--shards``,
``--backend`` and the cache flags (the timing report printed after each
shows which phases the cache served); ``--obs-dir DIR`` collects
telemetry into one bundle (:mod:`repro.obs.bundle`).

Experiments:
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from ..kernels import BACKEND_NAMES
from ..obs import Telemetry, configure_logging, get_reporter
from ..obs.bundle import create_bundle, write_bundle
from ..obs.log import LEVELS
from ..runtime import ExperimentRuntime, default_cache_dir, default_jobs
from ..service.session import EXPERIMENT as SERVE
from . import ablations, faults, figure5, figure6, gridsearch, multipath
from . import scenarios, scionlab, table1, traffic
from .config import SCALES

#: Every sub-command, in catalogue (and ``all``) order.
REGISTRY = (
    table1.EXPERIMENT,
    figure5.EXPERIMENT,
    figure6.EXPERIMENT,
    scionlab.EXPERIMENT,
    gridsearch.EXPERIMENT,
    ablations.EXPERIMENT,
    faults.EXPERIMENT,
    traffic.EXPERIMENT,
    multipath.EXPERIMENT,
    SERVE,
    scenarios.EXPERIMENT,
)
#: What the ``all`` sub-command runs.
ALL = tuple(entry for entry in REGISTRY if entry.in_all)

__doc__ = (__doc__ or "") + "\n".join(
    f"  {entry.name}: {entry.help}" for entry in REGISTRY
) + "\n  all: " + ", ".join(entry.name for entry in ALL)


def _jobs_help() -> str:
    try:
        hint = f"this machine would default to {default_jobs()}"
    except ValueError as exc:  # a malformed $REPRO_JOBS must not break --help
        hint = str(exc).replace("%", "%%")
    return f"worker processes for independent runs (1 = serial; {hint})"


def _shards(text: str):
    return text if text == "auto" else int(text)


def build_parser() -> argparse.ArgumentParser:
    """One sub-command per registry entry (plus ``all``), each taking the
    shared flags, the runtime flags if it runs under the runtime, and the
    flags its entries declare."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="<experiment>"
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help=(
            "collect telemetry into one bundle in DIR (created before "
            "anything runs): metrics.json, trace.jsonl (read it with "
            "'tools/obs_report.py tree|chrome'), flight/ post-mortem "
            "dumps, slo.json when the run evaluated SLOs (serve), "
            "manifest.json with every run report"
        ),
    )
    shared.add_argument(
        "--log-level", default="info", choices=LEVELS,
        help="reporter verbosity (default: info, plain stdout lines)",
    )
    # What an experiment under ``ExperimentRuntime`` takes besides.
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument("--jobs", type=int, default=1, help=_jobs_help())
    runtime.add_argument(
        "--shards", type=_shards, default=1, metavar="N|auto",
        help=(
            "beaconing shards per series (repro.shard), byte-identical "
            "for any count; 'auto' = min(cpu count, ISDs of the scale)"
        ),
    )
    runtime.add_argument(
        "--backend", default="python", choices=BACKEND_NAMES,
        help=(
            "kernel backend of the forwarding hot loops (repro.kernels), "
            "byte-identical for any choice; 'numpy' needs the numpy extra"
        ),
    )
    runtime.add_argument(
        "--cache-dir", default=None,
        help=(
            "directory for cached topologies/warm-up snapshots "
            f"(default: {default_cache_dir()})"
        ),
    )
    runtime.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk prerequisite cache",
    )
    runtime.add_argument(
        "--no-timing", action="store_true",
        help="suppress the per-phase timing report",
    )

    def add(name, text, entries, aliases=()):
        uses_runtime = any(entry.uses_runtime for entry in entries)
        command = commands.add_parser(
            name,
            aliases=aliases,
            parents=[shared, runtime] if uses_runtime else [shared],
            help=text,
            description=text,
        )
        command.add_argument(
            "--scale", default="bench",
            choices=[s for s in SCALES if all(s in e.scales for e in entries)],
            help="size preset the family has sizing for (default: %(default)s)",
        )
        for entry in entries:
            entry.add_arguments(command)
        command.set_defaults(
            entries=entries, uses_runtime=uses_runtime, error=command.error
        )

    for entry in REGISTRY:
        add(entry.name, entry.help, (entry,), entry.aliases)
    add("all", "run " + ", ".join(entry.name for entry in ALL), ALL)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    reporter = get_reporter("repro.experiments")
    scale = SCALES[args.scale]
    options = {}
    if args.uses_runtime:
        shards = args.shards
        if shards == "auto":
            # Capped at the ISD count: the partitioner is ISD-atomic, so
            # more shards than ISDs only force the degree-balanced fallback.
            shards = max(1, min(os.cpu_count() or 1, scale.num_isds))
        cache = None if args.no_cache else args.cache_dir or default_cache_dir()
        options = dict(
            jobs=args.jobs, shards=shards, backend=args.backend, cache=cache
        )
    telemetry = None
    if args.obs_dir:
        telemetry = Telemetry.collecting()
        try:
            create_bundle(args.obs_dir, telemetry)
        except OSError as exc:
            args.error(f"--obs-dir: cannot create {args.obs_dir!r}: {exc}")

    reports = []
    for entry in args.entries:
        root_span = contextlib.nullcontext()
        if telemetry is not None and entry.uses_runtime:
            root_span = telemetry.causal.span("experiments", entry.name)
        start = time.time()
        try:
            runtime = ExperimentRuntime(telemetry=telemetry, **options)
        except ValueError as exc:  # --jobs/--shards/--backend it cannot run
            args.error(str(exc))
        runtime.report.experiment = entry.name
        with root_span:
            reporter.info(entry.run(args, scale, runtime).render())
        if runtime.report.phases and not args.no_timing:
            reporter.info("")
            reporter.info(runtime.report.render())
        reporter.info(f"[{entry.name} completed in {time.time() - start:.1f}s]\n")
        reports.append(runtime.report)
    if args.obs_dir:
        manifest = write_bundle(
            args.obs_dir, telemetry, [report.to_dict() for report in reports]
        )
        members = ", ".join(
            f"{name} ({info['records']})" for name, info in manifest["files"].items()
        )
        reporter.info(f"[obs bundle written to {args.obs_dir}: {members}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
