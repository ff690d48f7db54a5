#!/usr/bin/env python3
"""Cyclic-collector cost of core_beaconing's window and of BGP convergence.

    python tools/gc_window.py

Collections and seconds per generation over ``core_beaconing``'s window
(bench core, topology seed 7, limit 60; both simulations warmed 6
intervals, then 10 ``step()``s each) and one test-scale BGP convergence.
Expected (DESIGN §5): no gen-1 or gen-2 in the window, one gen-0 a step.
"""

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bgp.simulator import BGPSimulation  # noqa: E402
from repro.experiments import get_scale  # noqa: E402
from repro.experiments.common import build_core_topologies, build_internet  # noqa: E402
from repro.simulation import BeaconingSimulation  # noqa: E402
from repro.simulation import baseline_factory, diversity_factory  # noqa: E402


def measured(label: str, unit) -> None:
    """Run ``unit()``; print its collections and seconds per generation."""
    counts, seconds, started = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def watch(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            counts[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started[0]

    gc.callbacks.append(watch)
    try:
        unit()
    finally:
        gc.callbacks.remove(watch)
    cells = (f"gen{g} {counts[g]:5d} in {seconds[g]:.3f} s" for g in range(3))
    print(f"{label:<26}" + "   ".join(cells), flush=True)


def main() -> None:
    scale = get_scale("bench")  # topology seed 7, like the benchmark's default
    topology = build_core_topologies(scale).scion_core
    config = scale.core_beaconing_config(60)
    factories = {"diversity": diversity_factory(), "baseline": baseline_factory()}
    sims = {n: BeaconingSimulation(topology, f, config) for n, f in factories.items()}
    for sim in sims.values():
        sim.run_intervals(6).reset_metrics()
    for name, sim in sims.items():
        measured(f"core_beaconing {name}", lambda: sim.run_intervals(10))
    measured("bgp convergence", BGPSimulation(build_internet(get_scale("test"))).run)


if __name__ == "__main__":
    main()
