"""upper_stack: traffic engine, multipath churn and the request service.

On one test-scale network (beaconing is set-up only, so the prediction
for an Algorithm 1 change is "no change"): ``TrafficEngine.run()`` over
Zipf flows with the single-path ``shortest-latency`` policy and again
split over 3 paths with ``weighted-ecmp`` — the two path-selection
contracts side by side; a ``ChurnDriver`` horizon followed by the dataset
export and its validation; and a closed loop of 64 client coroutines on
one event loop pushing request batches through ``MeasurementService`` on
the wall clock with zero configured service costs. These are the layers
ROADMAP item 3 collapses.

Checks: no flow fails; the churn result reconciles and the exported
dataset validates; every request completes ``ok`` and the service
invariants hold.
"""

from __future__ import annotations

import asyncio
import random
import statistics

from workloads import build_network, percentile, scratch_dir

SETUP_REPEATS = 3

LEAVES_PER_CORE = 3
FLOWS = 12000
FLOW_TICKS = 10
CHURN_INTERVALS = 1200
CHURN_PAIRS = 4
CLIENTS = 64
WARMUP_REQUESTS = 2000
BATCH_REQUESTS = 6000
BATCHES = 3
SPLITS = 20000


def setup(run):
    S = run.S
    network = build_network(run, LEAVES_PER_CORE)
    with run.tracer.span("service.build_session_network"):
        service_network = S.build_session_network(S.SessionConfig(scale="mini"))
    batch = run.scaled(BATCH_REQUESTS, minimum=CLIENTS)
    plans = [
        _plan_requests(run, service_network, count, salt)
        for salt, count in enumerate(
            [run.scaled(WARMUP_REQUESTS, minimum=CLIENTS)] + [batch] * BATCHES
        )
    ]
    return {
        "network": network,
        "service_network": service_network,
        "plans": plans,
    }


def _plan_requests(run, network, total, salt):
    """Per-client request lists: 70% lookups, 20% traffic, 10% result
    pages, between endpoint pairs drawn from the seed."""
    S = run.S
    rng = random.Random(run.seed * 1000003 + salt)
    endpoints = sorted(network.topology.non_core_asns())
    plans = [[] for _ in range(CLIENTS)]
    for index in range(total):
        client = f"bench-{index % CLIENTS:04d}"
        src, dst = rng.sample(endpoints, 2)
        slot = index % 10
        if slot < 7:
            request = S.Request(
                kind=S.RequestKind.LOOKUP_PATHS, client_id=client,
                src=src, dst=dst,
            )
        elif slot < 9:
            request = S.Request(
                kind=S.RequestKind.SUBMIT_TRAFFIC, client_id=client,
                src=src, dst=dst, num_packets=4,
            )
        else:
            request = S.Request(
                kind=S.RequestKind.GET_RESULTS, client_id=client, limit=20,
            )
        plans[index % CLIENTS].append(request)
    return plans


def _traffic(run, state, stage, **policy):
    S = run.S
    network = state["network"]
    flows = run.scaled(FLOWS, minimum=FLOW_TICKS)
    generator = S.FlowGenerator(
        sorted(network.topology.non_core_asns()),
        S.FlowConfig(
            flows_per_tick=flows // FLOW_TICKS,
            num_ticks=FLOW_TICKS,
            seed=run.seed,
        ),
    )
    state["generator"] = generator
    engine = S.TrafficEngine(
        network, generator, S.TrafficConfig(policy="shortest-latency", **policy)
    )
    with run.stage(stage) as timed:
        result = engine.run()
    run.check(True, f"{stage}: flows failed", result.flows_started,
              result.flows_failed)
    run.counts[f"{stage}.packets_forwarded"] = result.packets_forwarded
    return result, result.flows_started / timed.last_s


def work(run, state):
    S = run.S
    result, rate = _traffic(run, state, "flows_single_path")
    run.put("flows_per_s_single_path", rate)
    lookups = result.cache_hits + result.cache_misses
    run.put("traffic.engine.cache_hit_ratio", result.cache_hits / lookups)
    run.put(
        "traffic.engine.flows_failed_ratio",
        result.flows_failed / result.flows_started,
    )
    run.put("traffic.engine.packets_forwarded", result.packets_forwarded)
    _, rate = _traffic(
        run, state, "flows_multipath", strategy="weighted-ecmp", k_paths=3
    )
    run.put("flows_per_s_multipath", rate)

    intervals = run.scaled(CHURN_INTERVALS)
    driver = S.ChurnDriver(
        state["network"],
        S.ChurnConfig(
            num_intervals=intervals, num_pairs=CHURN_PAIRS, seed=run.seed
        ),
        name="bench",
        backend="python",
    )
    with run.stage("churn") as timed:
        churn = driver.run()
    run.put("churn_intervals_per_s", intervals / timed.last_s)
    run.put("multipath.churn.packets_delivered", churn.packets_delivered)
    run.counts["churn.packets_delivered"] = churn.packets_delivered
    run.check(churn.reconciles(), "churn: accounting does not reconcile")

    with scratch_dir() as directory:
        with run.stage("dataset_write") as timed:
            manifest = S.write_dataset(churn, directory)
        rows = manifest["files"]["series.jsonl"]["rows"]
        run.put("multipath.dataset.rows_per_s", rows / timed.last_s)
        run.counts["dataset.rows"] = rows
        with run.stage("dataset_validate"):
            try:
                S.validate_dataset(directory)
                valid = True
            except Exception as exc:  # DatasetError and anything it wraps
                valid = False
                run.failures.append(f"dataset: {exc}")
        run.check(valid, "dataset: export does not validate")

    asyncio.run(_serve(run, state))


async def _serve(run, state):
    """Closed loop: each of the 64 clients sends its next request when the
    previous one has completed."""
    S = run.S
    service = S.MeasurementService(
        state["service_network"],
        config=S.ServiceConfig(
            workers=8,
            queue_depth=max(256, CLIENTS * 2),
            rate_per_client=1e9,
            burst_per_client=1e9,
            request_timeout=0.0,
            lookup_cost=0.0,
            traffic_cost=0.0,
            fault_cost=0.0,
            results_cost=0.0,
            maintenance_interval=0.0,
            journal=False,
        ),
    )

    async def client(requests):
        return [await service.submit(request) for request in requests]

    responses, rates = [], []
    await service.start()
    try:
        for index, plans in enumerate(state["plans"]):
            total = sum(len(plan) for plan in plans)
            if index == 0:  # warm-up: caches fill, lazy set-up finishes
                with run.tracer.span("service.warmup"):
                    batches = await asyncio.gather(*(client(p) for p in plans))
                warmed = len(service.latencies)
            else:
                with run.stage("service") as timed:
                    batches = await asyncio.gather(*(client(p) for p in plans))
                rates.append(total / timed.last_s)
            responses.extend(r for batch in batches for r in batch)
    finally:
        await service.drain()
    run.put("requests_per_s", statistics.median(rates))
    latencies = sorted(service.latencies[warmed:])
    run.put("service.request_p50_ms", percentile(latencies, 0.50) * 1e3)
    run.put("service.request_p99_ms", percentile(latencies, 0.99) * 1e3)
    submitted = service.stats["submitted"]
    rejected = sum(service.stats[s.value] for s in S.REJECTED_STATUSES)
    run.put("service.rejected_ratio", rejected / submitted)
    run.counts["service.submitted"] = submitted
    run.check(True, "service: a request did not complete ok", submitted,
              submitted - service.stats["completed_ok"])
    with run.tracer.span("check"):
        try:
            S.check_invariants(service, responses)
            held = True
        except AssertionError as exc:
            held = False
            run.failures.append(f"service invariants: {exc}")
    run.check(held, "service: invariants violated")


def instrument(run, state):
    """Every call into a layer here is long enough for a span of its own;
    the stages above are those spans."""


def layers(run, state, untraced):
    S = run.S
    generator = state["generator"]
    with run.tracer.span("layer:traffic.flowgen") as span:
        flows = sum(
            len(generator.flows_for_tick(tick)) for tick in range(FLOW_TICKS)
        )
    run.put("traffic.flowgen.flows_per_s", flows / span.seconds)

    # The per-flow hot path the engine pays when multipath is on.
    universes = [S.synthetic_universe(run.seed * 8 + n) for n in range(8)]
    strategy = S.get_strategy("weighted-ecmp")
    splits = run.scaled(SPLITS)
    packets = 0
    with run.tracer.span("layer:multipath.scheduler") as span:
        for flow_key in range(splits):
            candidates, context = universes[flow_key % len(universes)]
            split = strategy.split(flow_key, 12, candidates, 3, context)
            packets += sum(a.packets for a in split.assignments)
    run.put("multipath.scheduler.splits_per_s", splits / span.seconds)
    run.check(packets == splits * 12, "scheduler: packets not conserved")
