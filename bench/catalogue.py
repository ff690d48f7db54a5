"""The benchmark's catalogue: workloads, metrics, bounds, interactions.

``BENCHMARK.json`` at the repository root is the projection of this file
onto the driver's fixed schema (``bench/tests`` checks that the two
agree). What the driver's schema has no room for lives only here: which
workloads measure a metric, the bound of a stage metric, and which
end-to-end or stage metric a per-layer metric is expected to move.

Three kinds of metric:

* ``end_to_end`` — measured on *every* workload with tracing off; the
  driver applies ``bound`` to each (metric, workload) row;
* ``stage`` — a rate or latency of one timed stage of one workload, also
  measured with tracing off; ``bench/compare.py`` applies ``bound``;
* ``layer`` — evidence from the traced pass and the per-layer
  micro-measurements; no bound.

A workload's traced run reports every stage and layer name; the ones it
does not exercise read 0.
"""

from __future__ import annotations

#: Version of the result-JSON layout ``run.py --out`` writes and
#: ``compare.py`` reads. Bump when a key changes meaning.
SCHEMA = "repro-bench/1"

#: Nominal length of the timed region at size 1.0 on the reference host;
#: ``--seconds S`` runs every workload at size ``S / RUN_SECONDS``.
RUN_SECONDS = 16

#: Default seed (the golden-fixture seed) and the held-out seed later
#: performance claims must also hold on.
GOLDEN_SEED = 7
HELD_OUT_SEED = 11

WORKLOADS = {
    "figures_test": (
        "Table 1, Figures 5, 6 and 7-9 at test scale through ExperimentRuntime: "
        "the paper's artefacts, where every beaconing, BGP and analysis layer "
        "shows in proportion"
    ),
    "core_beaconing": (
        "Algorithm 1 and its baseline bypass stepped side by side on a 16-AS, "
        "145-link core: a selection gain moves one rate, a store or PCB change both"
    ),
    "endpoint_stack": (
        "cold and warm path lookups and 1- and 16-packet flows over 5112 leaf "
        "pairs: control and data plane do all the work, beaconing is only set-up"
    ),
    "upper_stack": (
        "single-path and 3-path traffic, a churn horizon with dataset export and "
        "a 64-client service loop: the layers the hierarchy refactor collapses"
    ),
}

ALL = tuple(WORKLOADS)


def _m(name, unit, better, kind, workloads, bound=None, moves=""):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "kind": kind,
        "workloads": tuple(workloads),
        "bound": bound,
        "moves": moves,
    }


#: Time bounds sit at the driver's maximum: on the reference host (a
#: shared 2-vCPU VM) the interquartile range of a 15 s timed window over
#: ten runs of identical work is 3% of the median in quiet periods and
#: 11% in noisy ones, so nothing tighter can be told from noise at the
#: run counts the driver uses. Resident memory repeats to 0.5%.
TIME_BOUND = 0.25

END_TO_END = [
    _m("setup_s", "s", "lower", "end_to_end", ALL, TIME_BOUND),
    _m("work_s", "s", "lower", "end_to_end", ALL, TIME_BOUND),
    _m("peak_rss_mb", "MiB", "lower", "end_to_end", ALL, 0.10),
]

F, C, E, U = ALL


def _s(name, unit, better, workload):
    return _m(name, unit, better, "stage", [workload], TIME_BOUND, "work_s")


STAGE = [
    _s("suite_s", "s", "lower", F),
    _s("diversity_intervals_per_s", "1/s", "higher", C),
    _s("baseline_intervals_per_s", "1/s", "higher", C),
    _s("lookups_per_s", "1/s", "higher", E),
    _s("lookup_p50_us", "us", "lower", E),
    _s("lookup_p99_us", "us", "lower", E),
    _s("packets_per_s_single", "1/s", "higher", E),
    _s("packets_per_s_train", "1/s", "higher", E),
    _s("flows_per_s_single_path", "1/s", "higher", U),
    _s("flows_per_s_multipath", "1/s", "higher", U),
    _s("churn_intervals_per_s", "1/s", "higher", U),
    _s("requests_per_s", "1/s", "higher", U),
]

_BOTH_RATES = "diversity_intervals_per_s, baseline_intervals_per_s"
_DIV_ONLY = "diversity_intervals_per_s and suite_s, never baseline_intervals_per_s"
_LOOKUPS = "lookups_per_s, lookup_p50_us, lookup_p99_us"
_PACKETS = "packets_per_s_single, packets_per_s_train"
_FLOWS = "flows_per_s_single_path, flows_per_s_multipath"
_NONE = "none (evidence only)"


def _l(name, unit, better, workloads, moves):
    return _m(name, unit, better, "layer", workloads, None, moves)


LAYER = [
    # topology
    _l("topology.generate_internet.s", "s", "lower", [F, C], "setup_s; <1% of suite_s"),
    _l("topology.core_build.s", "s", "lower", [F, C], "setup_s on core_beaconing"),
    _l("topology.full_stack_build.s", "s", "lower", [E, U], "setup_s"),
    # bgp
    _l("bgp.convergence.s", "s", "lower", [F], "suite_s (about 5%)"),
    _l("bgp.updates_per_s", "1/s", "higher", [F], "suite_s (about 5%)"),
    # core
    _l("core.diversity.select.calls", "count", "lower", [C], _DIV_ONLY),
    _l("core.diversity.select.busy_s", "s", "lower", [C], _DIV_ONLY),
    _l("core.diversity.pcbs_sent", "count", "lower", [C], _DIV_ONLY),
    _l("core.diversity.sent_per_stored", "ratio", "lower", [C], _DIV_ONLY),
    _l("core.baseline.select.calls", "count", "lower", [C], "baseline_intervals_per_s"),
    _l("core.baseline.select.busy_s", "s", "lower", [C], "baseline_intervals_per_s"),
    _l("core.baseline.pcbs_sent", "count", "lower", [C], "baseline_intervals_per_s"),
    _l("core.beacon_store.insert.calls", "count", "lower", [C], _BOTH_RATES + ", setup_s on endpoint_stack/upper_stack"),
    _l("core.beacon_store.insert.busy_s", "s", "lower", [C], _BOTH_RATES + ", setup_s on endpoint_stack/upper_stack"),
    _l("core.beacon_store.accept_ratio", "ratio", "higher", [C], _BOTH_RATES),
    # simulation
    _l("simulation.step.self_s", "s", "lower", [C], _BOTH_RATES),
    _l("simulation.interval_p50_ms.diversity", "ms", "lower", [C], "diversity_intervals_per_s"),
    _l("simulation.interval_p50_ms.baseline", "ms", "lower", [C], "baseline_intervals_per_s"),
    _l("simulation.bytes_sent.diversity", "count", "lower", [C], _NONE + "; exact, must not move under a speed-up"),
    _l("simulation.bytes_sent.baseline", "count", "lower", [C], _NONE + "; exact, must not move under a speed-up"),
    # kernels
    _l("kernels.numpy.diversity_intervals_per_s", "1/s", "higher", [C], _NONE),
    _l("kernels.python.batch_diversity.rows_per_s", "1/s", "higher", [C], _NONE),
    _l("kernels.numpy.batch_diversity.rows_per_s", "1/s", "higher", [C], _NONE),
    _l("kernels.numpy.packets_per_s_single", "1/s", "higher", [E], _NONE),
    _l("kernels.numpy.packets_per_s_train", "1/s", "higher", [E], _NONE),
    _l("kernels.backends_agree", "bool", "higher", [C, E], _NONE),
    # shard
    _l("shard.serial2.intervals_per_s", "1/s", "higher", [C], _NONE + " at shards=1"),
    _l("shard.serial2.overhead_ratio", "ratio", "lower", [C], _NONE + " at shards=1"),
    _l("shard.plane.msgs", "count", "lower", [C], _NONE + " at shards=1"),
    # obs
    _l("obs.telemetry_on.intervals_ratio", "ratio", "higher", [C], _NONE + "; the telemetry-cost row"),
    # analysis
    _l("analysis.optimum_max_flow.s", "s", "lower", [F], "suite_s"),
    _l("analysis.evaluate_pairs.s", "s", "lower", [F], "suite_s"),
    # experiments / runtime
    _l("experiments.table1.s", "s", "lower", [F], "suite_s"),
    _l("experiments.figure5.s", "s", "lower", [F], "suite_s"),
    _l("experiments.figure6.s", "s", "lower", [F], "suite_s"),
    _l("experiments.scionlab.s", "s", "lower", [F], "suite_s"),
    _l("runtime.overhead_s", "s", "lower", [F], "suite_s"),
    _l("runtime.warm_cache.suite_s", "s", "lower", [F], _NONE + " (cache=None end to end)"),
    _l("runtime.warm_cache.hit_ratio", "ratio", "higher", [F], _NONE + " (cache=None end to end)"),
    # control
    _l("control.network_run.s", "s", "lower", [E, U], "setup_s"),
    _l("control.lookup_cold_per_s", "1/s", "higher", [E], _LOOKUPS),
    _l("control.lookup_warm_per_s", "1/s", "higher", [E], _LOOKUPS),
    _l("control.segment_cache.hit_ratio", "ratio", "higher", [E], _LOOKUPS),
    _l("control.paths_per_lookup", "ratio", "higher", [E], _LOOKUPS + "; first-lookup cost in flows_per_s_* and requests_per_s"),
    # dataplane
    _l("dataplane.combine.calls", "count", "lower", [E], "lookups_per_s"),
    _l("dataplane.combine.busy_s", "s", "lower", [E], "lookups_per_s"),
    _l("dataplane.build_forwarding_path.per_s", "1/s", "higher", [E], "setup_s; churn_intervals_per_s second"),
    _l("dataplane.deliver.packets_per_s", "1/s", "higher", [E], _PACKETS),
    _l("dataplane.macs_per_packet", "ratio", "lower", [E], _PACKETS),
    # traffic
    _l("traffic.flowgen.flows_per_s", "1/s", "higher", [U], _FLOWS),
    _l("traffic.engine.cache_hit_ratio", "ratio", "higher", [U], _FLOWS),
    _l("traffic.engine.flows_failed_ratio", "ratio", "lower", [U], _FLOWS),
    _l("traffic.engine.packets_forwarded", "count", "higher", [U], _NONE + "; exact"),
    # multipath
    _l("multipath.scheduler.splits_per_s", "1/s", "higher", [U], "flows_per_s_multipath, churn_intervals_per_s; not flows_per_s_single_path"),
    _l("multipath.churn.packets_delivered", "count", "higher", [U], _NONE + "; exact"),
    _l("multipath.dataset.rows_per_s", "1/s", "higher", [U], "churn_intervals_per_s"),
    # service
    _l("service.request_p50_ms", "ms", "lower", [U], "requests_per_s"),
    _l("service.request_p99_ms", "ms", "lower", [U], "requests_per_s"),
    _l("service.rejected_ratio", "ratio", "lower", [U], "requests_per_s"),
    # the instrument itself
    _l("trace.overhead_ratio", "ratio", "lower", ALL, _NONE + "; traced wall / untraced wall"),
    _l("trace.self_sum_ratio", "ratio", "higher", ALL, _NONE + "; sum of span self times / traced wall"),
]

PER_LAYER = STAGE + LAYER
METRICS = {m["name"]: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The driver-facing projection (the content of ``BENCHMARK.json``)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
        ],
    }
