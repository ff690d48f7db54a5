"""Scripted measurement sessions: build network → serve load → snapshot.

One call — :func:`run_session` — assembles the whole always-on story for
a scale preset: generate the full-stack topology, run beaconing, start
the service, replay a seeded multi-client load, drain, check every
invariant, and return a :class:`SessionReport` whose JSON serialization
is byte-identical across runs of the same config (virtual clock).

This is what the ``serve`` subcommand of ``python -m repro.experiments``
and the CI load scenario execute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..control.network import ScionNetwork
from ..experiments.common import build_full_stack_topology
from ..experiments.config import MINI_SCALE, Experiment, Text, get_scale
from ..obs import NULL_TELEMETRY, Telemetry
from ..obs.slo import slo_summary
from .clients import LoadConfig, LoadGenerator
from .clock import VirtualClock, WallClock
from .harness import check_invariants, run_virtual
from .service import MeasurementService, ServiceConfig

__all__ = [
    "MINI_SCALE",
    "SessionConfig",
    "SessionReport",
    "run_session",
]


@dataclass(frozen=True)
class SessionConfig:
    """Everything a scripted session needs, picklable and hashable."""

    scale: str = "test"
    load: LoadConfig = field(default_factory=LoadConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Leaf ASes hung below every core AS of the scale's core network.
    leaves_per_core: int = 2
    #: Run under a virtual clock (deterministic) or real time.
    virtual: bool = True


@dataclass
class SessionReport:
    """The deterministic outcome of one scripted session."""

    config_scale: str
    clients: int
    planned_requests: int
    duration_virtual: float
    aggregate: Dict = field(default_factory=dict)
    invariants: Dict = field(default_factory=dict)
    #: SLO compliance summary (empty when telemetry was disabled).
    slo: Dict = field(default_factory=dict)
    #: Flight-recorder accounting (dumps taken/suppressed, events seen).
    flight: Dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical JSON — the byte-identical replay artifact."""
        return json.dumps(
            {
                "scale": self.config_scale,
                "clients": self.clients,
                "planned_requests": self.planned_requests,
                "duration_virtual": round(self.duration_virtual, 9),
                "aggregate": self.aggregate,
                "invariants": self.invariants,
                "slo": self.slo,
                "flight": self.flight,
            },
            sort_keys=True,
            indent=2,
        )

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        stats = self.aggregate.get("stats", {})
        latency = self.aggregate.get("latency", {})
        lines = [
            f"Measurement service session ({self.config_scale} scale, "
            f"{self.clients} clients, {self.planned_requests} requests):",
            f"  submitted {stats.get('submitted', 0)}  "
            f"accepted {stats.get('accepted', 0)}  "
            f"rejected(rate) {stats.get('rejected_rate_limited', 0)}  "
            f"rejected(queue) {stats.get('rejected_queue_full', 0)}",
            f"  completed ok {stats.get('completed_ok', 0)}  "
            f"timeout {stats.get('completed_timeout', 0)}  "
            f"failed {stats.get('completed_failed', 0)}  "
            f"retries {stats.get('retries', 0)}",
            f"  latency p50 {latency.get('p50', 0.0) * 1e3:.2f} ms  "
            f"p99 {latency.get('p99', 0.0) * 1e3:.2f} ms  "
            f"({latency.get('count', 0)} samples)",
            f"  peak queue depth {stats.get('peak_queue_depth', 0)}  "
            f"peak in-flight {stats.get('peak_in_flight', 0)}  "
            f"virtual duration {self.duration_virtual:.3f}s",
        ]
        if self.slo:
            verdict = "OK" if self.slo.get("compliant") else "VIOLATED"
            names = ", ".join(
                f"{o['name']}={o['attained']:.4f}"
                for o in self.slo.get("objectives", ())
            )
            lines.append(f"  SLOs {verdict}: {names}")
        if self.flight.get("dumps"):
            lines.append(
                f"  flight recorder: {self.flight['dumps']} dump(s) "
                f"({', '.join(self.flight.get('triggers', ()))})"
                + (
                    f", {self.flight['suppressed']} suppressed"
                    if self.flight.get("suppressed") else ""
                )
            )
        return "\n".join(lines)


def build_session_network(config: SessionConfig) -> ScionNetwork:
    """The persistent network a session serves (deterministic per scale)."""
    scale = get_scale(config.scale)
    topology = build_full_stack_topology(
        scale, leaves_per_core=config.leaves_per_core
    )
    return ScionNetwork(topology, algorithm="diversity").run()


def leaf_fault_links(network: ScionNetwork) -> List[int]:
    """Leaf-attachment links — safe fault targets: failing one degrades a
    single leaf without partitioning the core."""
    topology = network.topology
    return sorted(
        link.link_id
        for link in topology.links()
        if link.location == "leaf"
    )


def run_session(
    config: Optional[SessionConfig] = None,
    *,
    obs: Optional[Telemetry] = None,
    network: Optional[ScionNetwork] = None,
    endpoints: Optional[List[int]] = None,
) -> SessionReport:
    """Run one scripted session end to end and return its report.

    ``endpoints`` pins the client endpoint ASes; the default is every
    non-core AS. Compiled scenarios pass their endpoint set so auxiliary
    non-core ASes (e.g. exposed-IXP sites) never originate load.
    """
    config = config or SessionConfig()
    obs = obs if obs is not None else NULL_TELEMETRY
    network = network if network is not None else build_session_network(config)
    generator = LoadGenerator(
        sorted(
            endpoints
            if endpoints is not None
            else network.topology.non_core_asns()
        ),
        config.load,
        fault_links=leaf_fault_links(network),
    )
    clock = VirtualClock() if config.virtual else WallClock()
    # Causal trace ids derive from the load seed; span timestamps come
    # from the session clock, so replays stitch byte-identical traces.
    obs.causal.configure(seed=config.load.seed, clock=clock.now)
    obs.flight.configure(clock=clock.now)
    service = MeasurementService(
        network, config=config.service, clock=clock, obs=obs
    )

    async def scenario():
        await service.start()
        responses = await generator.run(service)
        await service.drain()
        return responses

    if config.virtual:
        responses = run_virtual(scenario, clock=clock, flight=obs.flight)
        duration = clock.now()
    else:
        import asyncio
        import time

        start = time.monotonic()
        responses = asyncio.run(scenario())
        duration = time.monotonic() - start

    invariants = check_invariants(service, responses)
    slo_results = service.slo_results()
    return SessionReport(
        config_scale=config.scale,
        clients=config.load.num_clients,
        planned_requests=len(responses),
        duration_virtual=duration,
        aggregate=service.aggregate_snapshot(),
        invariants=invariants,
        slo=slo_summary(slo_results) if slo_results else {},
        flight=obs.flight.summary() if obs.flight.enabled else {},
    )


def _add_arguments(parser) -> None:
    """The ``serve`` flags; each default is its config dataclass's."""
    parser.add_argument(
        "--scenario", default=None,
        help="serve this compiled scenario (TOML/JSON spec), not the --scale network",
    )
    for flag, kind, default, text in (
        ("--clients", int, LoadConfig.num_clients, "simulated clients"),
        ("--requests-per-client", int, LoadConfig.requests_per_client,
         "requests each client submits"),
        ("--seed", int, LoadConfig.seed,
         "load-generator seed; same seed => byte-identical session"),
        ("--workers", int, ServiceConfig.workers,
         "service worker tasks draining the request queue"),
        ("--queue-depth", int, ServiceConfig.queue_depth,
         "bounded request-queue depth / admission control"),
        ("--rate", float, ServiceConfig.rate_per_client,
         "per-client token-bucket rate in requests/s"),
        ("--burst", float, ServiceConfig.burst_per_client,
         "per-client token-bucket burst"),
    ):
        parser.add_argument(
            flag, type=kind, default=default,
            help=f"{text} (default: %(default)s)",
        )
    parser.add_argument(
        "--wall", action="store_true",
        help="run against the wall clock instead of the virtual clock",
    )
    parser.add_argument(
        "--snapshot-out", default=None,
        help="write the session's canonical JSON report to this path",
    )


def config_from_args(args, scale_label: Optional[str] = None) -> SessionConfig:
    """The session the parsed ``serve`` flags describe."""
    return SessionConfig(
        scale=scale_label or args.scale,
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


def _run_cli(args, scale, runtime) -> Text:
    network = endpoints = scale_label = None
    if args.scenario:
        # Compile the spec, run its control plane once, and pin the load
        # generator to the scenario's endpoint ASes.
        from ..scenario import compile_scenario, load_spec

        spec = load_spec(args.scenario)
        compiled = compile_scenario(spec)
        network = ScionNetwork(compiled.topology, algorithm="diversity").run()
        endpoints = list(compiled.endpoints)
        scale_label = f"scenario:{spec.name}"
    config = config_from_args(args, scale_label)
    report = run_session(
        config, obs=runtime.telemetry, network=network, endpoints=endpoints
    )
    runtime.report.scale, runtime.report.slo = config.scale, report.slo
    text = report.render()
    if args.snapshot_out:
        with open(args.snapshot_out, "w") as handle:
            handle.write(report.to_json() + "\n")
        text += f"\n[session snapshot written to {args.snapshot_out}]"
    return Text(text)


EXPERIMENT = Experiment(
    name="serve",
    help="a scripted session of the measurement service under seeded client load",
    run=_run_cli,
    in_all=False,
    uses_runtime=False,
    add_arguments=_add_arguments,
)
