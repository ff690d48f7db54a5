#!/usr/bin/env python
"""Regenerate the golden-regression fixtures under ``tests/fixtures/``.

Usage (from the repository root)::

    PYTHONPATH=src python tools/regen_fixtures.py

The fixtures pin the *numeric outputs* of the figure 5/6, traffic and
multipath pipelines at the deterministic ``test`` scale; figures 5 and 6
are their result's ``data()``. Run this only when an intentional behavior
change shifts the numbers; commit the regenerated files together with the
change that explains them. The diff test
(``tests/test_golden_regression.py``) prints this command when it fails.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.common import build_full_stack_topology  # noqa: E402
from repro.experiments.config import TEST_SCALE  # noqa: E402
from repro.experiments.figure5 import run_figure5  # noqa: E402
from repro.experiments.figure6 import run_figure6  # noqa: E402
from repro.experiments.multipath import run_multipath  # noqa: E402
from repro.experiments.traffic import WORKLOADS, run_traffic  # noqa: E402
from repro.obs import get_reporter  # noqa: E402
from repro.runtime import ExperimentRuntime  # noqa: E402
from repro.traffic import FlowConfig, TrafficConfig  # noqa: E402
from repro.traffic import TrafficFaultPlan, TrafficSpec  # noqa: E402

reporter = get_reporter("repro.tools.regen_fixtures")

FIXTURES = REPO_ROOT / "tests" / "fixtures"

#: The traffic workload the fixture (and its diff test) pins: every
#: k=1 ranking under both algorithms, faulted runs included ...
TRAFFIC_POLICIES = ("shortest-latency", "most-disjoint", "least-utilized")
#: ... plus the engine's k=3 splits (strategy, k_paths), each with and
#: without the fault plan, over the diversity control plane.
TRAFFIC_SPLITS = (("weighted-ecmp", 3), ("max-disjoint", 3))
#: The ``TrafficRunResult`` fields the traffic fixture pins as they are.
TRAFFIC_FIELDS = (
    "delivered_bytes", "lost_bytes", "flows_completed", "flows_failed",
    "packets_forwarded", "packets_lost", "macs_verified", "cache_hits",
    "cache_misses", "scmp_events", "sig_encapsulated", "sig_decapsulated",
    "subflows", "multipath_splits", "failed_links",
)
#: The ``ChurnResult`` fields the multipath fixture pins as they are.
CHURN_FIELDS = (
    "packets_offered", "packets_delivered", "packets_lost", "macs_verified",
    "beacon_expiries", "switch_events", "scmp_events", "faults_injected",
    "pairs", "path_lifetimes",
)


def traffic_split_runs() -> dict:
    """The :data:`TRAFFIC_SPLITS` engine series, on ``run_traffic``'s
    test-scale workload shape."""
    scale = TEST_SCALE
    flows_per_tick, ticks, capacity, legacy_fraction, leaves = WORKLOADS["test"]
    topology = build_full_stack_topology(scale, leaves_per_core=leaves)
    core, intra = scale.core_beaconing_config(5), scale.intra_isd_config(5)
    plans = {
        "": None,
        "/faulted": TrafficFaultPlan(
            fail_tick=max(1, ticks // 3), recover_tick=(2 * ticks) // 3
        ),
    }
    tasks = [
        (
            topology,
            TrafficSpec(
                name=f"diversity/{strategy}-k{k_paths}{suffix}",
                algorithm="diversity",
                flow_config=FlowConfig(
                    flows_per_tick=flows_per_tick, num_ticks=ticks,
                    seed=scale.seed,
                ),
                traffic_config=TrafficConfig(
                    link_capacity_bps=capacity, strategy=strategy,
                    k_paths=k_paths,
                ),
                core_config=replace(core, eviction_policy="diverse"),
                intra_config=replace(intra, eviction_policy="diverse"),
                legacy_fraction=legacy_fraction,
                fault_plan=plan,
                seed=scale.seed,
            ),
        )
        for strategy, k_paths in TRAFFIC_SPLITS
        for suffix, plan in plans.items()
    ]
    runs = ExperimentRuntime().run(tasks)
    return {outcome.name: outcome.result for outcome in runs}


def traffic_fixture() -> dict:
    result = run_traffic(TEST_SCALE, policies=TRAFFIC_POLICIES)
    runs = {**result.results, **traffic_split_runs()}
    series = {
        name: {field: getattr(run, field) for field in TRAFFIC_FIELDS}
        | {
            "total_link_bytes": sum(run.link_bytes.values()),
            # Float pipeline: summed, compared at rel=1e-9 in the test.
            "latency_sum": sum(run.flow_latencies),
        }
        for name, run in sorted(runs.items())
    }
    return {"scale": result.scale_name, "series": series}


def multipath_fixture() -> dict:
    """Churn horizons of every strategy at the test scale.

    Pins the aggregates plus the dataset id — the content address of the
    full per-path time series — so any drift in scheduling, churn
    modeling or export encoding shows up as a one-line diff."""
    import tempfile

    from repro.multipath.dataset import write_dataset
    from repro.multipath.scheduler import STRATEGY_NAMES

    result = run_multipath(TEST_SCALE, strategies=STRATEGY_NAMES, k_paths=3)
    ordered = [result.results[name] for name in STRATEGY_NAMES]
    series = {
        name: {field: getattr(run, field) for field in CHURN_FIELDS}
        | {
            "num_rows": len(run.rows),
            "num_paths": len(run.paths),
            # Float pipeline: compared at rel=1e-9 in the test.
            "latency_sum": sum(row[9] for row in run.rows),
        }
        for name, run in zip(STRATEGY_NAMES, ordered)
    }
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ordered, tmp)
    return {"scale": result.scale_name, "series": series} | {
        key: manifest[key] for key in ("dataset_id", "schema_version")
    }


def write(name: str, payload: dict) -> None:
    path = FIXTURES / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    reporter.info(f"wrote {path}")


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write("figure5_test.json", run_figure5(TEST_SCALE).data())
    write("figure6_test.json", run_figure6(TEST_SCALE).data())
    write("traffic_test.json", traffic_fixture())
    write("multipath_test.json", multipath_fixture())
    return 0


if __name__ == "__main__":
    sys.exit(main())
