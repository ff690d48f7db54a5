#!/usr/bin/env python3
"""Latency-optimized path construction (the §4.2 extension).

The paper leaves multi-criteria path construction as future work but
sketches the requirement: latency optimization needs information beyond
interface numbers. This example wires that information channel (a
LatencyModel over the inter-domain links) into the latency-aware path
construction algorithm and compares the latency of the disseminated path
sets against the AS-path-length baseline.

Run:  python examples/latency_optimization.py
"""

from repro.analysis import EmpiricalCDF
from repro.core import LatencyAwareAlgorithm
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
)
from repro.topology import LatencyModel, generate_core_mesh
from repro.topology.latency import MAX_LATENCY, MIN_LATENCY


def best_latencies(sim, model):
    values = []
    for receiver in sim.participant_asns():
        for origin in sim.originator_asns():
            if origin == receiver:
                continue
            paths = sim.paths_at(receiver, origin)
            if paths:
                values.append(
                    min(model.path_latency(p.link_ids()) for p in paths)
                )
    return EmpiricalCDF.from_values(values)


def main() -> None:
    topo = generate_core_mesh(14, mean_degree=5.0, seed=21)
    model = LatencyModel(topo, seed=21)
    config = BeaconingConfig(storage_limit=15)
    print(f"core network: {topo.num_ases} ASes, {topo.num_links} links; "
          f"link latencies {MIN_LATENCY * 1e3:.0f}-{MAX_LATENCY * 1e3:.0f} ms\n")

    def latency_factory(asn, topology):
        return LatencyAwareAlgorithm(asn, topology, model)

    runs = {
        "baseline (AS-path length)": baseline_factory(),
        "latency-aware (extension)": latency_factory,
    }
    results = {}
    for label, factory in runs.items():
        sim = BeaconingSimulation(topo, factory, config).run()
        cdf = best_latencies(sim, model)
        results[label] = cdf
        print(f"== {label} ==")
        print(f"  best-path latency: median {cdf.median * 1e3:.1f} ms, "
              f"p90 {cdf.quantile(0.9) * 1e3:.1f} ms")
        print(f"  beaconing traffic: {sim.metrics.total_bytes:,} B\n")

    base = results["baseline (AS-path length)"]
    optimized = results["latency-aware (extension)"]
    tail_gain = (base.quantile(0.9) - optimized.quantile(0.9)) / base.quantile(0.9)
    print("takeaway: with the latency channel, beacon selection matches or"
          " beats the baseline's path latency (tail p90 improves by "
          f"{tail_gain:.0%} here) at a fraction of the beaconing traffic —\n"
          "the hop-count baseline floods every shortest path every "
          "interval, the extension maintains the low-latency ones.")


if __name__ == "__main__":
    main()
