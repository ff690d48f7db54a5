"""endpoint_stack: path lookups and hop-field forwarding between leaves.

Set-up builds an 84-AS full-stack topology (72 leaves) and runs its
control plane; Algorithm 1 does no work after that. The timed work is
what an endpoint pays: ``lookup_paths`` over every ordered leaf pair — a
cold pass on the freshly built segment caches, then warm passes, each
call timed — and ``deliver_flow`` of the python kernel over the two
shortest paths of every pair at the smallest packet (``payload_bytes=0``,
where per-packet cost dominates): rounds of 1 packet per flow, then a
round of 16-packet trains. Cold and warm lookups, and single packets and
trains, use the same layers differently, so a cache or batching gain that
taxes the other use shows.

Checks: every lookup returns at least one path and every first-pass path
is loop-free; warm passes return as many paths as the cold one; every
flow delivers exactly the packets it sent.
"""

from __future__ import annotations

import random
import statistics
import time

from workloads import build_network, percentile

SETUP_REPEATS = 3

LEAVES_PER_CORE = 6
WARM_PASSES = 9
SINGLE_ROUNDS = 10
TRAIN_PACKETS = 16
TRAIN_CHUNK = 2500  # flows per timed segment of the train round
PATHS_PER_PAIR = 2
REFERENCE_PACKETS = 2000


def setup(run):
    network = build_network(run, LEAVES_PER_CORE)
    leaves = sorted(network.topology.non_core_asns())
    pairs = [(a, b) for a in leaves for b in leaves if a != b]
    random.Random(run.seed).shuffle(pairs)
    return {"network": network, "pairs": pairs[: run.scaled(len(pairs))]}


def _packets(run, network, pairs, found):
    S = run.S
    topology = network.topology
    packets = []
    for (src, dst), paths in zip(pairs, found):
        for path in paths[:PATHS_PER_PAIR]:
            packets.append(
                S.ScionPacket(
                    source=S.HostAddress(topology.as_node(src).isd, src),
                    destination=S.HostAddress(topology.as_node(dst).isd, dst),
                    path=S.build_forwarding_path(
                        topology,
                        path.asns,
                        path.link_ids,
                        timestamp=network.now,
                        expiry=path.expires_at,
                    ),
                    payload_bytes=0,
                )
            )
    return packets


def _forward(kernel, network, packets, count):
    """One round: every flow sends ``count`` packets. Returns (seconds,
    delivered, short flows, hops summed over flows)."""
    routers, now = network.router_table, network.now
    delivered = short = hops = 0
    started = time.perf_counter()
    for packet in packets:
        got, hop_count = kernel.deliver_flow(routers, packet, count, now=now)
        delivered += got
        hops += hop_count
        if got != count:
            short += 1
    return time.perf_counter() - started, delivered, short, hops


def work(run, state):
    S = run.S
    network, pairs = state["network"], state["pairs"]
    lookup, clock = network.lookup_paths, time.perf_counter

    passes = 1 + run.scaled(WARM_PASSES)
    latencies, pass_seconds, path_counts, empty = [], [], [], 0
    found = []
    counters = network.cache_counters()
    for index in range(passes):
        paths_seen = 0
        with run.stage("lookups") as stage:
            for src, dst in pairs:
                started = clock()
                paths = lookup(src, dst)
                latencies.append(clock() - started)
                paths_seen += len(paths)
                if not paths:
                    empty += 1
                if index == 0:
                    found.append(paths)
        pass_seconds.append(stage.last_s)
        path_counts.append(paths_seen)
    after = network.cache_counters()
    calls = passes * len(pairs)
    with run.tracer.span("check"):
        looped = sum(
            1 for paths in found if not all(p.is_loop_free() for p in paths)
        )
        run.check(True, "lookup: empty or looping result", calls, empty + looped)
        run.check(
            len(set(path_counts)) == 1,
            f"lookup: passes disagree on path count {path_counts}",
        )
    latencies.sort()
    run.put("lookups_per_s", calls / sum(pass_seconds))
    run.put("lookup_p50_us", percentile(latencies, 0.50) * 1e6)
    run.put("lookup_p99_us", percentile(latencies, 0.99) * 1e6)
    run.put("control.lookup_cold_per_s", len(pairs) / pass_seconds[0])
    run.put(
        "control.lookup_warm_per_s",
        (calls - len(pairs)) / sum(pass_seconds[1:]),
    )
    hits = after["hit"] - counters["hit"]
    misses = after["miss"] - counters["miss"]
    run.put("control.segment_cache.hit_ratio", hits / (hits + misses))
    run.put("control.paths_per_lookup", path_counts[0] / len(pairs))
    run.counts["lookup.paths_cold_pass"] = path_counts[0]
    run.counts["lookup.cache_misses"] = misses

    with run.tracer.span("dataplane.build_forwarding_path"):
        started = clock()
        packets = _packets(run, network, pairs, found)
        seconds = clock() - started
    run.put("dataplane.build_forwarding_path.per_s", len(packets) / seconds)
    state["packets"] = packets
    run.counts["forward.flows"] = len(packets)

    kernel = S.get_backend("python")
    rates, short, hops = [], 0, 0
    for _ in range(run.scaled(SINGLE_ROUNDS)):
        with run.stage("forward_single"):
            seconds, delivered, bad, hops = _forward(kernel, network, packets, 1)
        rates.append(delivered / seconds)
        short += bad
    run.check(True, "forward: a single-packet flow was dropped",
              len(rates) * len(packets), short)
    run.put("packets_per_s_single", statistics.median(rates))
    run.put("dataplane.macs_per_packet", hops / len(packets))

    train = packets[: run.scaled(len(packets))]
    seconds = delivered = short = 0
    for at in range(0, len(train), TRAIN_CHUNK):
        with run.stage("forward_train"):
            spent, got, bad, _ = _forward(
                kernel, network, train[at:at + TRAIN_CHUNK], TRAIN_PACKETS
            )
        seconds += spent
        delivered += got
        short += bad
    run.check(True, "forward: a packet train was cut short", len(train), short)
    run.put("packets_per_s_train", delivered / seconds)
    run.detail["forward"] = {"train_delivered": delivered}


def instrument(run, state):
    run.tracer.wrap(run.S.combinator, "combine_segments", "dataplane.combine")


def layers(run, state, untraced):
    S = run.S
    network, packets = state["network"], state["packets"]
    combine = run.tracer.calls["dataplane.combine"]
    run.put("dataplane.combine.calls", combine.count)
    run.put("dataplane.combine.busy_s", combine.busy_s)

    # The reference per-packet path every kernel has to match.
    sample = packets[: run.scaled(REFERENCE_PACKETS)]
    routers, now = network.router_table, network.now
    with run.tracer.span("layer:dataplane.deliver") as span:
        for packet in sample:
            S.deliver(network.topology, packet, now=now, routers=routers)
    run.put("dataplane.deliver.packets_per_s", len(sample) / span.seconds)

    kernel = S.get_backend("numpy")
    train = packets[: run.scaled(len(packets))]
    with run.tracer.span("layer:kernels.numpy.forward"):
        seconds, single, bad_single, _ = _forward(kernel, network, packets, 1)
        run.put("kernels.numpy.packets_per_s_single", single / seconds)
        seconds, trains, bad_train, _ = _forward(
            kernel, network, train, TRAIN_PACKETS
        )
        run.put("kernels.numpy.packets_per_s_train", trains / seconds)
    agree = (
        single == len(packets)
        and trains == untraced.detail["forward"]["train_delivered"]
        and not bad_single
        and not bad_train
    )
    run.put("kernels.backends_agree", float(agree))
    run.check(agree, "kernels: numpy and python deliver_flow disagree")
