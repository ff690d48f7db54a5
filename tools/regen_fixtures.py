#!/usr/bin/env python
"""Regenerate the golden-regression fixtures under ``tests/fixtures/``.

Usage (from the repository root)::

    PYTHONPATH=src python tools/regen_fixtures.py

The fixtures pin the *numeric outputs* of the figure 5 and figure 6
pipelines at the deterministic ``test`` scale. Run this only when an
intentional behavior change shifts the numbers; commit the regenerated
files together with the change that explains them. The diff test
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
from repro.scenario import (  # noqa: E402
    build_family,
    compile_scenario,
    family_names,
)
from repro.traffic import (  # noqa: E402
    FlowConfig,
    TrafficConfig,
    TrafficFaultPlan,
    TrafficSpec,
)

reporter = get_reporter("repro.tools.regen_fixtures")

FIXTURES = REPO_ROOT / "tests" / "fixtures"

#: The traffic workload the fixture (and its diff test) pins: every
#: k=1 ranking under both algorithms, faulted runs included ...
TRAFFIC_POLICIES = ("shortest-latency", "most-disjoint", "least-utilized")
#: ... plus the engine's k=3 splits (strategy, k_paths), each with and
#: without the fault plan, over the diversity control plane.
TRAFFIC_SPLITS = (("weighted-ecmp", 3), ("max-disjoint", 3))


def figure5_fixture() -> dict:
    result = run_figure5(TEST_SCALE)
    return {
        "scale": result.scale_name,
        # JSON keys are strings; the diff test normalizes the same way.
        "monthly_bytes": {
            series: {str(asn): value for asn, value in sorted(per.items())}
            for series, per in sorted(result.comparison.monthly_bytes.items())
        },
    }


def figure6_fixture() -> dict:
    result = run_figure6(TEST_SCALE)
    return {
        "scale": result.scale_name,
        "pairs": [list(pair) for pair in result.pairs],
        "values": {
            series: list(values)
            for series, values in sorted(result.values.items())
        },
    }


def traffic_split_runs() -> dict:
    """The :data:`TRAFFIC_SPLITS` engine series, on ``run_traffic``'s
    test-scale workload shape."""
    scale = TEST_SCALE
    flows_per_tick, ticks, capacity, legacy_fraction, leaves = WORKLOADS[
        scale.name
    ]
    topology = build_full_stack_topology(scale, leaves_per_core=leaves)
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
                    flows_per_tick=flows_per_tick,
                    num_ticks=ticks,
                    seed=scale.seed,
                ),
                traffic_config=TrafficConfig(
                    link_capacity_bps=capacity,
                    strategy=strategy,
                    k_paths=k_paths,
                ),
                core_config=replace(
                    scale.core_beaconing_config(5), eviction_policy="diverse"
                ),
                intra_config=replace(
                    scale.intra_isd_config(5), eviction_policy="diverse"
                ),
                legacy_fraction=legacy_fraction,
                fault_plan=plan,
                seed=scale.seed,
            ),
        )
        for strategy, k_paths in TRAFFIC_SPLITS
        for suffix, plan in plans.items()
    ]
    return {
        outcome.name: outcome.result
        for outcome in ExperimentRuntime().run(tasks)
    }


def traffic_fixture() -> dict:
    result = run_traffic(TEST_SCALE, policies=TRAFFIC_POLICIES)
    runs = {**result.results, **traffic_split_runs()}
    series = {}
    for name, run in sorted(runs.items()):
        series[name] = {
            "delivered_bytes": list(run.delivered_bytes),
            "lost_bytes": list(run.lost_bytes),
            "flows_completed": run.flows_completed,
            "flows_failed": run.flows_failed,
            "packets_forwarded": run.packets_forwarded,
            "packets_lost": run.packets_lost,
            "macs_verified": run.macs_verified,
            "cache_hits": run.cache_hits,
            "cache_misses": run.cache_misses,
            "scmp_events": run.scmp_events,
            "sig_encapsulated": run.sig_encapsulated,
            "sig_decapsulated": run.sig_decapsulated,
            "subflows": run.subflows,
            "multipath_splits": run.multipath_splits,
            "failed_links": list(run.failed_links),
            "total_link_bytes": sum(run.link_bytes.values()),
            # Float pipeline: summed, compared with approx in the test.
            "latency_sum": sum(run.flow_latencies),
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

    result = run_multipath(
        TEST_SCALE, strategies=STRATEGY_NAMES, k_paths=3
    )
    series = {}
    ordered = []
    for name in STRATEGY_NAMES:
        run = result.results[name]
        ordered.append(run)
        series[name] = {
            "packets_offered": run.packets_offered,
            "packets_delivered": run.packets_delivered,
            "packets_lost": run.packets_lost,
            "macs_verified": run.macs_verified,
            "beacon_expiries": run.beacon_expiries,
            "switch_events": run.switch_events,
            "scmp_events": run.scmp_events,
            "faults_injected": run.faults_injected,
            "num_rows": len(run.rows),
            "num_paths": len(run.paths),
            "pairs": [list(pair) for pair in run.pairs],
            "path_lifetimes": list(run.path_lifetimes),
            # Float pipeline: compared with approx in the test.
            "latency_sum": sum(row[9] for row in run.rows),
        }
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ordered, tmp)
    return {
        "scale": result.scale_name,
        "series": series,
        "dataset_id": manifest["dataset_id"],
        "schema_version": manifest["schema_version"],
    }


def scenarios_fixture() -> dict:
    """Compile manifests of every built-in family at the test scale.

    The manifest is the canonical primitive projection of a compiled
    scenario (topology fingerprint, deployment partition, IXP/leased
    links, hijack roles, schedule hashes, run plan) — pinning it catches
    any drift in the compiler's deterministic lowering without paying for
    full scenario runs.
    """
    families = {}
    for family in family_names():
        families[family] = {
            spec.name: compile_scenario(spec).manifest()
            for spec in build_family(family, "test")
        }
    return {"scale": "test", "families": families}


def write(name: str, payload: dict) -> None:
    path = FIXTURES / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    reporter.info(f"wrote {path}")


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write("figure5_test.json", figure5_fixture())
    write("figure6_test.json", figure6_fixture())
    write("traffic_test.json", traffic_fixture())
    write("multipath_test.json", multipath_fixture())
    write("scenarios_test.json", scenarios_fixture())
    return 0


if __name__ == "__main__":
    sys.exit(main())
