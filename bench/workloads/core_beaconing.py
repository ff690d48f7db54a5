"""core_beaconing: Algorithm 1 and its bypass, stepped side by side.

The ``bench``-scale core (250-AS Internet pruned to 16 core ASes, 145
links; storage limit 60) is a larger core than the figures use. A fresh
``BeaconingSimulation`` per algorithm is warmed up (untimed, part of
``setup_s``) and then timed one ``step()`` at a time. The diversity
algorithm is the mechanism, the baseline its bypass: an Algorithm 1
optimisation must move ``diversity_intervals_per_s`` and leave
``baseline_intervals_per_s`` alone, while a ``BeaconStore`` or ``PCB``
change moves both (the baseline pushes about 8x the PCBs).

Checks, per timed interval: no beacon store holds more than its limit for
any origin; per window: each algorithm sent PCBs, and diversity sent
fewer bytes than baseline (the paper's claim).
"""

from __future__ import annotations

import pickle
import random
import statistics
import time

SETUP_REPEATS = 1  # two warm-ups are seconds of beaconing; once is enough

WARMUP_INTERVALS = 6
TIMED_INTERVALS = 10
STORAGE_LIMIT = 60
ALGORITHMS = ("diversity", "baseline")


def _warm(sim, intervals):
    sim.run_intervals(intervals)
    sim.reset_metrics()
    return sim


def setup(run):
    S = run.S
    scale = S.get_scale("bench").scaled(seed=run.topology_seed)
    if run.tracer.enabled:
        with run.tracer.span("topology.generate_internet") as span:
            S.build_internet(scale)
        run.put("topology.generate_internet.s", span.seconds)
    with run.tracer.span("topology.core_build") as span:
        topology = S.build_core_topologies(scale).scion_core
    if run.tracer.enabled:
        run.put("topology.core_build.s", span.seconds)
    config = scale.core_beaconing_config(STORAGE_LIMIT)
    warmup = run.scaled(WARMUP_INTERVALS)
    factories = {
        "diversity": S.diversity_factory(),
        "baseline": S.baseline_factory(),
    }
    state = {"topology": topology, "config": config, "warmup": warmup}
    sims = {}
    for name in ALGORITHMS:
        with run.tracer.span(f"warmup:{name}"):
            sims[name] = _warm(
                S.BeaconingSimulation(topology, factories[name], config),
                warmup,
            )
        if run.tracer.enabled and name == "diversity":
            # The telemetry-on measurement restarts from this exact state.
            state["warm_diversity"] = pickle.dumps(sims[name])
    state["sims"] = sims
    return state


def _stored(sim) -> int:
    return sum(server.store.count() for server in sim.servers.values())


def _over_limit(sim) -> int:
    return sum(
        1
        for server in sim.servers.values()
        for origin in server.store.origins()
        if server.store.count(origin) > server.store.storage_limit
    )


def work(run, state):
    intervals = run.scaled(TIMED_INTERVALS)
    for name in ALGORITHMS:
        sim = state["sims"][name]
        seconds, cumulative_bytes, offered = [], [], 0
        for _ in range(intervals):
            offered += _stored(sim)
            with run.stage(name) as stage:
                sim.step()
            seconds.append(stage.last_s)
            cumulative_bytes.append(sim.metrics.total_bytes)
            run.check(
                not _over_limit(sim), f"{name}: a store exceeds its limit"
            )
        # Not per interval: once every path it knows has a live sent
        # record, Algorithm 1 rightly sends nothing for a few intervals.
        run.check(sim.metrics.total_pcbs > 0, f"{name}: no PCB sent")
        run.detail[name] = {
            "seconds": seconds,
            "cumulative_bytes": cumulative_bytes,
            "offered": offered,
        }
        run.put(f"{name}_intervals_per_s", intervals / sum(seconds))
        run.put(
            f"simulation.interval_p50_ms.{name}",
            statistics.median(seconds) * 1e3,
        )
        run.put(f"simulation.bytes_sent.{name}", sim.metrics.total_bytes)
        run.put(f"core.{name}.pcbs_sent", sim.metrics.total_pcbs)
        run.counts[f"{name}.pcbs_sent"] = sim.metrics.total_pcbs
        run.counts[f"{name}.bytes_sent"] = sim.metrics.total_bytes
    run.check(
        run.detail["diversity"]["cumulative_bytes"][-1]
        < run.detail["baseline"]["cumulative_bytes"][-1],
        "diversity sent no fewer bytes than baseline",
    )


def instrument(run, state):
    for name in ALGORITHMS:
        for server in state["sims"][name].servers.values():
            run.tracer.wrap(server.algorithm, "select", f"core.{name}.select")
            run.tracer.wrap(server.store, "insert", "core.beacon_store.insert")


def layers(run, state, untraced):
    S = run.S
    calls = run.tracer.calls
    insert = calls["core.beacon_store.insert"]
    busy = insert.busy_s
    for name in ALGORITHMS:
        select = calls[f"core.{name}.select"]
        run.put(f"core.{name}.select.calls", select.count)
        run.put(f"core.{name}.select.busy_s", select.busy_s)
        busy += select.busy_s
    run.put(
        "core.diversity.sent_per_stored",
        run.values["core.diversity.pcbs_sent"]
        / run.detail["diversity"]["offered"],
    )
    run.put("core.beacon_store.insert.calls", insert.count)
    run.put("core.beacon_store.insert.busy_s", insert.busy_s)
    run.put("core.beacon_store.accept_ratio", insert.truthy / insert.count)
    run.put("simulation.step.self_s", run.work_s - busy)

    # The variants below rerun the first few diversity intervals and are
    # compared with the same intervals of the untraced reference above.
    reference = untraced.detail["diversity"]
    intervals = max(1, len(reference["seconds"]) // 3)
    reference_s = sum(reference["seconds"][:intervals])
    reference_bytes = reference["cumulative_bytes"][intervals - 1]
    topology, config = state["topology"], state["config"]

    def timed(sim, span_name):
        with run.tracer.span(span_name) as span:
            for _ in range(intervals):
                sim.step()
        return span.seconds

    with run.tracer.span("layer:kernels.numpy.warmup"):
        sim = _warm(
            S.BeaconingSimulation(
                topology, S.diversity_factory(kernel="numpy"), config
            ),
            state["warmup"],
        )
    seconds = timed(sim, "layer:kernels.numpy.diversity")
    run.put("kernels.numpy.diversity_intervals_per_s", intervals / seconds)
    agree = sim.metrics.total_bytes == reference_bytes

    routed = [0]
    route = S.MessagePlane.route

    def counting_route(plane, messages):
        routed[0] += len(messages)
        return route(plane, messages)

    with run.tracer.span("layer:shard.serial2.warmup"):
        sharded = _warm(
            S.ShardedBeaconing(
                topology, S.diversity_factory(), config,
                shards=2, processes=False,
            ),
            state["warmup"],
        )
    S.MessagePlane.route = counting_route
    try:
        seconds = timed(sharded, "layer:shard.serial2")
        shard_bytes = sharded.metrics.total_bytes
    finally:
        S.MessagePlane.route = route
        sharded.close()
    run.put("shard.serial2.intervals_per_s", intervals / seconds)
    run.put("shard.serial2.overhead_ratio", seconds / reference_s)
    run.put("shard.plane.msgs", routed[0])
    run.check(
        shard_bytes == reference_bytes,
        "shard: 2-shard bytes differ from the single-process run",
    )

    sim = pickle.loads(state["warm_diversity"])
    sim.attach_telemetry(S.Telemetry.collecting())
    seconds = timed(sim, "layer:obs.telemetry_on")
    run.put("obs.telemetry_on.intervals_ratio", reference_s / seconds)
    run.check(
        sim.metrics.total_bytes == reference_bytes,
        "obs: telemetry changed the bytes sent",
    )

    agree &= _batch_diversity(run, S)
    run.put("kernels.backends_agree", float(agree))
    run.check(agree, "kernels: numpy and python backends disagree")


def _batch_diversity(run, S) -> bool:
    """Rows/s of candidate scoring per backend on one seeded Link History
    Table; returns whether the backends agree bit for bit."""
    rng = random.Random(run.seed)
    links = list(range(1, 146))
    table = S.LinkHistoryTable()
    for _ in range(400):
        table.increment(rng.sample(links, rng.randint(1, 6)))
    rows = [
        tuple(rng.sample(links, rng.randint(2, 8)))
        for _ in range(run.scaled(20000))
    ]
    outputs = {}
    for backend in ("python", "numpy"):
        kernel = S.get_backend(backend)
        with run.tracer.span(f"layer:kernels.{backend}.batch_diversity"):
            started = time.perf_counter()
            # Scored in the batches of ~125 candidates a selection sees.
            outputs[backend] = [
                score
                for at in range(0, len(rows), 125)
                for score in kernel.batch_diversity(table, rows[at:at + 125])
            ]
            seconds = time.perf_counter() - started
        run.put(f"kernels.{backend}.batch_diversity.rows_per_s", len(rows) / seconds)
    return outputs["python"] == outputs["numpy"]
