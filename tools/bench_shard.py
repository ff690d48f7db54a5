#!/usr/bin/env python3
"""Process-shard scaling of one beaconing run, determinism-checked.

    PYTHONPATH=src python tools/bench_shard.py [--ases N] [--label TEXT]

The one quantity ``bench/`` does not measure (its loops are
single-process): wall time of a core-beaconing run through
:class:`~repro.simulation.beaconing.BeaconingSimulation` and through
process-per-shard :class:`~repro.shard.ShardedBeaconing` at 2 and 4
shards. Every sharded run must reproduce the 1-shard interface
statistics exactly, and the speed-up at the largest shard count the host
has cores for must reach its floor — a host with one core records only.
One row is appended to ``BENCH_shard.json`` through
``tools/bench_record.py``'s row writer.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from bench_record import append_row, new_row, trajectory  # noqa: E402
from run import host_context  # noqa: E402

from repro.shard import ShardedBeaconing, partition_topology  # noqa: E402
from repro.simulation.beaconing import (  # noqa: E402
    BeaconingConfig,
    BeaconingSimulation,
    diversity_factory,
)
from repro.topology import assign_isds, generate_core_mesh  # noqa: E402

INTERVALS = 24
#: Speed-up over the 1-shard run that process shards must reach to earn
#: their keep. 2 shards on 2 cores measured 1.01-1.62x at 48 ASes
#: (EXPERIMENTS.md, *Sharded beaconing*); 1.8x at 4 shards is the floor
#: the earlier CI gate held on hosts with four cores.
FLOORS = {2: 1.1, 4: 1.8}


def timed_run(topology, config: BeaconingConfig, shards: int):
    """Wall seconds, interface statistics and PCB total of one run."""
    factory = diversity_factory(5)
    start = time.perf_counter()
    if shards == 1:
        sim = BeaconingSimulation(topology, factory, config)
        sim.run()
        wall = time.perf_counter() - start
    else:
        sim = ShardedBeaconing(
            topology, factory, config,
            plan=partition_topology(topology, shards), processes=True,
        )
        try:
            sim.run()
            wall = time.perf_counter() - start
        finally:
            sim.close()
    return wall, sim.metrics.interfaces(), sim.metrics.total_pcbs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ases", type=int, default=48,
        help="core ASes of the 4-ISD mesh (mean degree 4, seed 7)",
    )
    parser.add_argument("--label", default="", help="stored with the row")
    args = parser.parse_args(argv)

    host = host_context()
    topology = generate_core_mesh(args.ases, mean_degree=4.0, seed=7)
    assign_isds(topology, 4)
    config = BeaconingConfig(
        interval=600.0,
        duration=INTERVALS * 600.0,
        pcb_lifetime=INTERVALS * 600.0,
        storage_limit=40,
    )
    counts = [1, *FLOORS]
    walls = {}
    for shards in counts:
        walls[shards], digest, pcbs = timed_run(topology, config, shards)
        print(f"shards={shards}: {walls[shards]:.2f} s, {pcbs} PCBs", flush=True)
        if shards == 1:
            reference = digest, pcbs
        elif (digest, pcbs) != reference:
            raise SystemExit(
                f"determinism contract violated at {shards} shards: "
                "interface statistics differ from the 1-shard run"
            )

    row = new_row("shard", args.label, host)
    row.update(
        ases=topology.num_ases,
        links=topology.num_links,
        intervals=INTERVALS,
        total_pcbs=reference[1],
        wall_s={str(n): round(walls[n], 3) for n in counts},
        speedup={str(n): round(walls[1] / walls[n], 3) for n in counts[1:]},
    )
    append_row(trajectory("shard"), row)
    print(f"appended a row to {trajectory('shard').name}")

    gated = [n for n in FLOORS if n <= (host["nproc"] or 1)]
    if not gated:
        print("NO FLOOR: one core, recorded only")
        return 0
    top = gated[-1]
    speedup = walls[1] / walls[top]
    ok = speedup >= FLOORS[top]
    print(
        f"speed-up at {top} shards on {host['nproc']} cores: {speedup:.2f}x "
        f"(floor {FLOORS[top]:g}x): {'ok' if ok else 'BELOW FLOOR'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
