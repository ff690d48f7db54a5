#!/usr/bin/env python3
"""Mini Figure 5 + 6: baseline vs path-diversity-based beaconing.

Runs both path construction algorithms on one core network (paper timing:
10-minute intervals, 6-hour PCB lifetime, dissemination limit 5) and
reports what the paper's evaluation reports: communication overhead and
the quality (failure resilience / capacity) of the disseminated paths.

Run:  python examples/beaconing_comparison.py [num_core_ases]
"""

import sys

from repro.analysis import (
    EmpiricalCDF,
    flow_graph_from_topology,
    max_flow,
    path_set_resilience,
)
from repro.experiments import sample_pairs
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology import generate_core_mesh


def quality_summary(sim, topo, pairs):
    graph = flow_graph_from_topology(topo)
    fractions = []
    for origin, receiver in pairs:
        paths = [p.link_ids() for p in sim.paths_at(receiver, origin)]
        achieved = path_set_resilience(topo, origin, receiver, paths)
        optimum = max_flow(graph, origin, receiver)
        fractions.append(achieved / optimum if optimum else 1.0)
    return EmpiricalCDF.from_values(fractions)


def main() -> None:
    num_ases = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    topo = generate_core_mesh(num_ases, mean_degree=5.0, seed=7)
    config = BeaconingConfig(storage_limit=30)
    pairs = sample_pairs(topo.asns(), 40, seed=7)
    print(f"core network: {topo.num_ases} ASes, {topo.num_links} links "
          f"(parallel links included)")
    print(f"beaconing: {config.num_intervals} intervals x "
          f"{config.interval:.0f}s, storage limit {config.storage_limit}\n")

    results = {}
    for label, factory in [
        ("baseline", baseline_factory()),
        ("diversity", diversity_factory()),
    ]:
        sim = BeaconingSimulation(topo, factory, config).run()
        quality = quality_summary(sim, topo, pairs)
        results[label] = (sim.metrics, quality)
        print(f"== {label} ==")
        print(f"  PCBs sent:        {sim.metrics.total_pcbs:,}")
        print(f"  bytes on wire:    {sim.metrics.total_bytes:,}")
        print(f"  mean PCB size:    {sim.metrics.mean_pcb_size():.0f} B")
        print(f"  resilience (fraction of optimal min-cut): "
              f"median {quality.median:.0%}, mean {quality.mean:.0%}\n")

    base_bytes = results["baseline"][0].total_bytes
    div_bytes = results["diversity"][0].total_bytes
    print(f"diversity sends {base_bytes / div_bytes:.1f}x fewer bytes "
          f"than the baseline while finding more resilient path sets")
    print("(steady-state suppression grows the gap further; see "
          "python -m repro.experiments figure5)")


if __name__ == "__main__":
    main()
