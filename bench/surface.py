"""Every ``repro`` symbol the benchmark imports, calls or wraps.

Later changes may not edit ``bench/``, so this file is the API a
refactor of ``src/repro`` has to keep: if one of these names moves, the
benchmark stops with a :class:`SurfaceError` naming it, before anything
is measured. ``python bench/run.py --check-surface`` resolves the whole
list and nothing else.

A spec is ``"module:attr.path"``. The last step of a path may be a
dataclass field, which exists on instances only. Entries with an alias
are the ones workloads call through :func:`load`; the others are methods
and fields reached through objects those calls return.

Not resolvable from a class, because ``__init__`` assigns them, but read
from outside all the same (every workload run exercises them):
``BeaconingSimulation.servers`` and ``.metrics`` (``total_pcbs``,
``total_bytes``), ``BeaconStore.storage_limit``, ``ScionNetwork.now`` and
``.topology``, ``MeasurementService.stats`` and ``.latencies``,
``BGPSimulation.converged``.
"""

from __future__ import annotations

import dataclasses
import importlib
from types import SimpleNamespace
from typing import Any, List, Optional, Tuple


class SurfaceError(RuntimeError):
    """A symbol the benchmark depends on did not resolve."""


SURFACE: List[Tuple[Optional[str], str]] = [
    # experiments / runtime
    ("get_scale", "repro.experiments:get_scale"),
    (None, "repro.experiments.config:ExperimentScale.scaled"),
    (None, "repro.experiments.config:ExperimentScale.core_beaconing_config"),
    (None, "repro.experiments.config:ExperimentScale.intra_isd_config"),
    ("run_table1", "repro.experiments.table1:run_table1"),
    ("run_figure5", "repro.experiments.figure5:run_figure5"),
    ("run_figure6", "repro.experiments.figure6:run_figure6"),
    ("run_scionlab", "repro.experiments.scionlab:run_scionlab"),
    ("FIGURE5_SERIES", "repro.experiments.figure5:SERIES_ORDER"),
    (None, "repro.experiments.table1:Table1Result.matches_paper"),
    (None, "repro.experiments.table1:Table1Result.render"),
    (None, "repro.experiments.figure5:Figure5Result.median_relative"),
    (None, "repro.experiments.figure5:Figure5Result.render"),
    (None, "repro.experiments.figure5:Figure5Result.comparison"),
    (None, "repro.analysis.overhead:OverheadComparison.monthly_bytes"),
    (None, "repro.experiments.figure6:Figure6Result.orderings_hold"),
    (None, "repro.experiments.figure6:Figure6Result.series_names"),
    (None, "repro.experiments.figure6:Figure6Result.render"),
    (None, "repro.experiments.figure6:Figure6Result.values"),
    (None, "repro.experiments.figure6:Figure6Result.pairs"),
    (None, "repro.experiments.scionlab:ScionlabResult.mean_fraction_of_optimum"),
    (None, "repro.experiments.scionlab:ScionlabResult.render"),
    ("ExperimentRuntime", "repro.runtime:ExperimentRuntime"),
    (None, "repro.runtime.instrument:RunReport.phases"),
    (None, "repro.runtime.instrument:RunReport.cached_phases"),
    (None, "repro.runtime.instrument:PhaseRecord.name"),
    (None, "repro.runtime.instrument:PhaseRecord.seconds"),
    # topology / bgp
    ("build_internet", "repro.experiments.common:build_internet"),
    ("build_core_topologies", "repro.experiments.common:build_core_topologies"),
    ("build_full_stack_topology", "repro.experiments.common:build_full_stack_topology"),
    (None, "repro.experiments.common:CoreTopologies.scion_core"),
    (None, "repro.topology.model:Topology.non_core_asns"),
    (None, "repro.topology.model:Topology.as_node"),
    ("BGPSimulation", "repro.bgp.simulator:BGPSimulation"),
    (None, "repro.bgp.simulator:BGPSimulation.run"),
    (None, "repro.bgp.simulator:BGPSimulation.total_updates"),
    # core / simulation
    ("BeaconingSimulation", "repro.simulation.beaconing:BeaconingSimulation"),
    (None, "repro.simulation.beaconing:BeaconingSimulation.step"),
    (None, "repro.simulation.beaconing:BeaconingSimulation.run_intervals"),
    (None, "repro.simulation.beaconing:BeaconingSimulation.reset_metrics"),
    (None, "repro.simulation.beaconing:BeaconingSimulation.attach_telemetry"),
    ("diversity_factory", "repro.simulation.beaconing:diversity_factory"),
    ("baseline_factory", "repro.simulation.beaconing:baseline_factory"),
    (None, "repro.simulation.beaconing:BeaconServerSim.algorithm"),
    (None, "repro.simulation.beaconing:BeaconServerSim.store"),
    (None, "repro.core.policy:PathConstructionAlgorithm.select"),
    (None, "repro.core.diversity:DiversityAlgorithm.select"),
    (None, "repro.core.baseline:BaselineAlgorithm.select"),
    (None, "repro.core.beacon_store:BeaconStore.insert"),
    (None, "repro.core.beacon_store:BeaconStore.count"),
    (None, "repro.core.beacon_store:BeaconStore.origins"),
    ("LinkHistoryTable", "repro.core.link_history:LinkHistoryTable"),
    (None, "repro.core.link_history:LinkHistoryTable.increment"),
    # kernels / shard / obs
    ("get_backend", "repro.kernels:get_backend"),
    (None, "repro.kernels:KernelBackend.deliver_flow"),
    (None, "repro.kernels:KernelBackend.batch_diversity"),
    ("ShardedBeaconing", "repro.shard:ShardedBeaconing"),
    (None, "repro.shard:ShardedBeaconing.step"),
    (None, "repro.shard:ShardedBeaconing.run_intervals"),
    (None, "repro.shard:ShardedBeaconing.reset_metrics"),
    (None, "repro.shard:ShardedBeaconing.metrics"),
    (None, "repro.shard:ShardedBeaconing.close"),
    ("MessagePlane", "repro.shard.plane:MessagePlane"),
    (None, "repro.shard.plane:MessagePlane.route"),
    ("Telemetry", "repro.obs:Telemetry"),
    (None, "repro.obs:Telemetry.collecting"),
    # control / dataplane
    ("ScionNetwork", "repro.control.network:ScionNetwork"),
    (None, "repro.control.network:ScionNetwork.run"),
    (None, "repro.control.network:ScionNetwork.lookup_paths"),
    (None, "repro.control.network:ScionNetwork.cache_counters"),
    (None, "repro.control.network:ScionNetwork.router_table"),
    ("combinator", "repro.dataplane.combinator"),
    (None, "repro.dataplane.combinator:combine_segments"),
    (None, "repro.dataplane.combinator:EndToEndPath.is_loop_free"),
    ("HostAddress", "repro.dataplane:HostAddress"),
    ("ScionPacket", "repro.dataplane:ScionPacket"),
    ("build_forwarding_path", "repro.dataplane:build_forwarding_path"),
    ("deliver", "repro.dataplane.router:deliver"),
    # traffic / multipath / service
    ("TrafficEngine", "repro.traffic:TrafficEngine"),
    (None, "repro.traffic:TrafficEngine.run"),
    ("TrafficConfig", "repro.traffic:TrafficConfig"),
    ("FlowConfig", "repro.traffic:FlowConfig"),
    ("FlowGenerator", "repro.traffic:FlowGenerator"),
    (None, "repro.traffic:FlowGenerator.flows_for_tick"),
    (None, "repro.traffic:TrafficRunResult.flows_started"),
    (None, "repro.traffic:TrafficRunResult.flows_failed"),
    (None, "repro.traffic:TrafficRunResult.packets_forwarded"),
    (None, "repro.traffic:TrafficRunResult.cache_hits"),
    (None, "repro.traffic:TrafficRunResult.cache_misses"),
    ("ChurnConfig", "repro.multipath.churn:ChurnConfig"),
    ("ChurnDriver", "repro.multipath.churn:ChurnDriver"),
    (None, "repro.multipath.churn:ChurnDriver.run"),
    (None, "repro.multipath.churn:ChurnResult.reconciles"),
    (None, "repro.multipath.churn:ChurnResult.packets_delivered"),
    ("write_dataset", "repro.multipath.dataset:write_dataset"),
    ("validate_dataset", "repro.multipath.dataset:validate_dataset"),
    ("get_strategy", "repro.multipath.scheduler:get_strategy"),
    ("synthetic_universe", "repro.multipath.axioms:synthetic_universe"),
    ("MeasurementService", "repro.service:MeasurementService"),
    (None, "repro.service:MeasurementService.start"),
    (None, "repro.service:MeasurementService.submit"),
    (None, "repro.service:MeasurementService.drain"),
    ("ServiceConfig", "repro.service:ServiceConfig"),
    ("SessionConfig", "repro.service:SessionConfig"),
    ("Request", "repro.service:Request"),
    ("RequestKind", "repro.service:RequestKind"),
    ("REJECTED_STATUSES", "repro.service:REJECTED_STATUSES"),
    ("check_invariants", "repro.service:check_invariants"),
    ("build_session_network", "repro.service.session:build_session_network"),
]

#: Attributes the traced run replaces with a timing shim on *instances*
#: (``sim.servers[asn].algorithm.select = shim``), so these classes must
#: keep a per-instance ``__dict__`` (no ``__slots__``-only layout).
WRAPPED_ON_INSTANCES = [
    "repro.core.diversity:DiversityAlgorithm",
    "repro.core.baseline:BaselineAlgorithm",
    "repro.core.beacon_store:BeaconStore",
]

def resolve(spec: str) -> Any:
    """The object a spec names; :class:`SurfaceError` naming it if not."""
    module_name, _, path = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
    except Exception as exc:  # any import-time failure is the named cause
        raise SurfaceError(
            f"bench surface: cannot import {module_name!r} (needed for "
            f"{spec!r}): {type(exc).__name__}: {exc}"
        ) from exc
    for step in filter(None, path.split(".")):
        if hasattr(target, step):
            target = getattr(target, step)
            continue
        fields = (
            {f.name: f for f in dataclasses.fields(target)}
            if dataclasses.is_dataclass(target)
            else {}
        )
        if step not in fields:
            raise SurfaceError(
                f"bench surface: {spec!r} does not resolve: "
                f"{getattr(target, '__name__', target)!r} has no {step!r}"
            )
        target = fields[step]
    return target


def check() -> int:
    """Resolve every entry; returns how many were checked."""
    for _, spec in SURFACE:
        resolve(spec)
    for spec in WRAPPED_ON_INSTANCES:
        cls = resolve(spec)
        if not getattr(cls, "__dictoffset__", 0):
            raise SurfaceError(
                f"bench surface: instances of {spec!r} have no __dict__, so "
                f"the traced run cannot wrap their methods"
            )
    return len(SURFACE) + len(WRAPPED_ON_INSTANCES)


def load() -> SimpleNamespace:
    """Check the whole surface, then hand out the aliased symbols."""
    check()
    return SimpleNamespace(
        **{alias: resolve(spec) for alias, spec in SURFACE if alias}
    )
