"""Tests for the single dispatch path: one Task/Outcome envelope, one task
body (``execute_task``), one ``ExperimentRuntime.run``.

Behaviour is pinned from outside: a mixed batch of every workload family
is pickle-identical across jobs counts with telemetry on and off; cache
keys and ``RunReport`` rows are literals captured before the four
per-family hierarchies were collapsed; a workload family defined entirely
in this file runs cached and traced without touching ``src/``.
"""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from typing import ClassVar

import pytest

import repro.runtime.pool as pool_module
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.faults import FaultPlanConfig, FaultSpec, random_schedule
from repro.multipath import ChurnConfig, MultipathSpec
from repro.obs import Telemetry, scrub, span_problems
from repro.runtime import (
    ExperimentCache,
    ExperimentRuntime,
    PhaseRecord,
    SeriesSpec,
    WorkerPoolError,
    default_jobs,
    stable_key,
    topology_fingerprint,
)
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import generate_core_mesh
from repro.traffic import FlowConfig, TrafficConfig, TrafficSpec

BEACON = BeaconingConfig(
    interval=10.0, duration=40.0, pcb_lifetime=100.0,
    storage_limit=10, mode=BeaconingMode.CORE,
)
FAULT_BEACON = BeaconingConfig(
    interval=600.0, duration=16 * 600.0, pcb_lifetime=6 * 3600.0,
    storage_limit=10,
)


def _mesh():
    return generate_core_mesh(8, mean_degree=3.0, seed=5)


def _tasks():
    """One ``(topology, spec)`` per workload family (two series shapes).
    Series and fault runs ride the core mesh; traffic and multipath need
    leaf endpoints, so they ride the smallest full-stack topology."""
    topo = _mesh()
    full = build_full_stack_topology(TEST_SCALE, leaves_per_core=2)
    asns = sorted(topo.asns())
    pair = (asns[0], asns[-1])
    core = TEST_SCALE.core_beaconing_config(5)
    intra = TEST_SCALE.intra_isd_config(5)
    return {
        "series-run": (topo, SeriesSpec(
            name="run", algorithm="baseline", config=BEACON, seed=1,
            collect_received=(asns[0],), collect_pairs=(pair,),
        )),
        "series-warm": (topo, SeriesSpec(
            name="warm", algorithm="diversity", config=BEACON,
            warmup_intervals=3, seed=1,
        )),
        "fault": (topo, FaultSpec(
            name="fault", algorithm="baseline", config=FAULT_BEACON,
            schedule=random_schedule(topo, FaultPlanConfig(
                seed=0, horizon=20, first_fault=8, num_link_failures=2,
            )),
            pairs=(pair,),
        )),
        "traffic": (full, TrafficSpec(
            name="traffic", algorithm="diversity",
            flow_config=FlowConfig(flows_per_tick=20, num_ticks=4, seed=7),
            traffic_config=TrafficConfig(),
            core_config=core, intra_config=intra, seed=7,
        )),
        "multipath": (full, MultipathSpec(
            name="multipath",
            churn=ChurnConfig(num_intervals=20, num_pairs=3, seed=7),
            core_config=core, intra_config=intra, seed=7,
        )),
    }


# --------------------------------------------------------------------------
# (a) a mixed batch: jobs and telemetry are invisible in the results
# --------------------------------------------------------------------------


class TestMixedBatch:
    def _run(self, jobs, telemetry):
        tel = Telemetry.collecting() if telemetry else None
        rt = ExperimentRuntime(jobs=jobs, telemetry=tel)
        outcomes = rt.run(list(_tasks().values()))
        results = pickle.dumps([(o.name, o.result, o.cached) for o in outcomes])
        observed = None
        if tel is not None:
            spans = tel.causal.stitched()
            assert span_problems(spans) == []
            # JSON, like the telemetry byte-identity tests: pickle bytes
            # also encode which equal strings happen to be one object.
            observed = json.dumps(
                [tel.metrics.snapshot(), scrub(spans), rt.report.counters],
                sort_keys=True,
            )
        rows = [(p.name, p.cached, list(p.counters)) for p in rt.report.phases]
        return results, observed, rows

    def test_jobs_and_telemetry_do_not_change_results(self):
        plain1, _, rows1 = self._run(1, False)
        plain2, _, rows2 = self._run(2, False)
        seen1, tel1, rows3 = self._run(1, True)
        seen2, tel2, rows4 = self._run(2, True)
        assert plain1 == plain2 == seen1 == seen2
        assert tel1 == tel2
        assert rows1 == rows2 == rows3 == rows4
        assert [name for name, _, _ in rows1] == [
            "run:run", "run:analyze", "warm:warmup", "warm:measure",
            "fault:run", "traffic:control", "traffic:run",
            "multipath:control", "multipath:run",
        ]

    def test_every_family_gets_its_root_and_legs(self):
        tel = Telemetry.collecting()
        ExperimentRuntime(jobs=1, telemetry=tel).run(list(_tasks().values()))
        spans = tel.causal.stitched()
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)
        shapes = {}
        for trace in by_trace.values():
            (root,) = [s for s in trace if not s["parent"]]
            legs = [s["name"] for s in trace if s["parent"] == root["span"]]
            shapes[root["name"]] = (root["cat"], sorted(legs))
        assert shapes == {
            "series:run": ("runtime", ["analyze", "measure", "setup"]),
            "series:warm": (
                "runtime", ["analyze", "measure", "setup", "warmup"]
            ),
            "fault:fault": ("faults", ["run"]),
            "traffic:traffic": ("traffic", ["control", "run"]),
            "multipath:multipath": ("multipath", ["control", "run"]),
        }


# --------------------------------------------------------------------------
# (b) a workload family that exists only in this file
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ToySpec:
    """Counts the topology's links, times a factor."""

    kind: ClassVar[str] = "toy"
    category: ClassVar[str] = "toys"

    name: str
    factor: int = 2
    seed: int = 0

    def labels(self):
        return {"factor": str(self.factor)}

    def result_key(self, topology_fp):
        return stable_key("toy-run", topology_fp, self)

    def execute(self, ctx):
        with ctx.span("count"):
            value = ctx.topology.num_links * self.factor
        if ctx.tel is not None:
            ctx.tel.metrics.counter("toy.links").inc(value)
        ctx.root_attrs["value"] = value
        return value

    def phases(self, outcome):
        return [
            PhaseRecord(
                f"{outcome.name}:count", 0.0, outcome.cached,
                {"value": outcome.result},
            )
        ]


@dataclass(frozen=True)
class CrashSpec(ToySpec):
    def execute(self, ctx):
        os._exit(1)


class TestToyFamily:
    def test_runs_cached_and_traced_without_touching_src(self, tmp_path):
        topo = _mesh()
        tasks = [(topo, ToySpec("double")), (topo, ToySpec("triple", 3))]

        tel = Telemetry.collecting()
        cold = ExperimentRuntime(jobs=2, cache=tmp_path, telemetry=tel)
        outcomes = cold.run(tasks)
        assert [o.result for o in outcomes] == [
            2 * topo.num_links, 3 * topo.num_links,
        ]
        assert not any(o.cached for o in outcomes)
        assert cold.report.counters["toy.links"] == 5 * topo.num_links
        spans = tel.causal.stitched()
        assert span_problems(spans) == []
        assert all({"trace", "span", "wall"} <= set(s) for s in spans)
        assert sorted((s["cat"], s["name"]) for s in spans) == [
            ("toys", "count"), ("toys", "count"),
            ("toys", "toy:double"), ("toys", "toy:triple"),
        ]
        roots = {s["name"]: s["args"] for s in spans if not s["parent"]}
        assert roots["toy:triple"] == {
            "factor": "3", "value": 3 * topo.num_links,
        }

        warm = ExperimentRuntime(jobs=1, cache=tmp_path)
        again = warm.run(tasks)
        assert all(o.cached for o in again)
        assert [o.result for o in again] == [o.result for o in outcomes]
        assert warm.report.cached_phases() == ["double:count", "triple:count"]
        assert len(list(tmp_path.glob("toy-run-*.pkl"))) == 2

    def test_dead_worker_is_a_named_error(self):
        topo = _mesh()
        tasks = [(topo, ToySpec("fine")), (topo, CrashSpec("doomed"))]
        with pytest.raises(WorkerPoolError, match="doomed") as excinfo:
            ExperimentRuntime(jobs=2).run(tasks)
        assert "produced no outcome" in str(excinfo.value)


# --------------------------------------------------------------------------
# (c) literals captured before the refactor (the key strings re-captured
#     at cache version "8": the version is hashed into every key)
# --------------------------------------------------------------------------


class TestPinnedCacheKeys:
    def test_one_key_per_kind(self):
        tasks = _tasks()
        mesh_fp = topology_fingerprint(tasks["fault"][0])
        full_fp = topology_fingerprint(tasks["traffic"][0])
        warm_key = tasks["series-warm"][1].snapshot_key(mesh_fp)
        assert {
            "topology": stable_key("topology", mesh_fp),
            "run-sim": tasks["series-run"][1].snapshot_key(mesh_fp),
            "warm-sim": warm_key,
            "shard-sim": stable_key("shard-sim", warm_key, 2, 1),
            "fault-run": tasks["fault"][1].result_key(mesh_fp),
            "traffic-run": tasks["traffic"][1].result_key(full_fp),
            "multipath-run": tasks["multipath"][1].result_key(full_fp),
        } == {
            "topology": "topology-b964b365e9dfe96b3d8c0b236c832309",
            "run-sim": "run-sim-cb220ff12b2bd26308fbc9cef8ca512c",
            "warm-sim": "warm-sim-b682492830e390f796bfcc7121a245f7",
            "shard-sim": "shard-sim-d2977213989e7b2dc43ef6f629d9e9b3",
            "fault-run": "fault-run-716e32cf81b950c9e5bacd118f13bd16",
            "traffic-run": "traffic-run-e8d41bd7917524a0398c1168e63c31c5",
            "multipath-run": "multipath-run-73c6a3bb254687c8f9ede12c98fc1446",
        }
        assert tasks["series-run"][1].result_key(mesh_fp) is None

    def test_cache_directory_holds_exactly_those_entries(self, tmp_path):
        ExperimentRuntime(jobs=1, cache=tmp_path).run(list(_tasks().values()))
        assert sorted(path.stem for path in tmp_path.glob("*.pkl")) == [
            "fault-run-716e32cf81b950c9e5bacd118f13bd16",
            "multipath-run-73c6a3bb254687c8f9ede12c98fc1446",
            "run-sim-cb220ff12b2bd26308fbc9cef8ca512c",
            "topology-4286277ebf08b8d730a2f6d3e51d9878",
            "topology-b964b365e9dfe96b3d8c0b236c832309",
            "traffic-run-e8d41bd7917524a0398c1168e63c31c5",
            "warm-sim-b682492830e390f796bfcc7121a245f7",
        ]


SERIES_COUNTERS = ["intervals", "pcbs", "bytes"]
#: kind -> (cold rows, warm rows); a row is (name, cached, counter keys).
PINNED_PHASES = {
    "series-run": (
        [("run:run", False, SERIES_COUNTERS), ("run:analyze", False, [])],
        [("run:run", True, SERIES_COUNTERS), ("run:analyze", False, [])],
    ),
    "series-warm": (
        [("warm:warmup", False, []), ("warm:measure", False, SERIES_COUNTERS)],
        [("warm:warmup", True, []), ("warm:measure", False, SERIES_COUNTERS)],
    ),
    "fault": (
        [("fault:run", False, ["events", "revocations", "beacons_revoked"])],
        [("fault:run", True, ["events", "revocations", "beacons_revoked"])],
    ),
    "traffic": (
        [
            ("traffic:control", False, []),
            ("traffic:run", False, ["flows", "packets", "macs"]),
        ],
        [
            ("traffic:control", True, []),
            ("traffic:run", True, ["flows", "packets", "macs"]),
        ],
    ),
    "multipath": (
        [
            ("multipath:control", False, []),
            ("multipath:run", False, ["intervals", "packets", "switches"]),
        ],
        [
            ("multipath:control", True, []),
            ("multipath:run", True, ["intervals", "packets", "switches"]),
        ],
    ),
}


class TestPinnedReportRows:
    @pytest.mark.parametrize("kind", sorted(PINNED_PHASES))
    def test_cold_and_warm_rows(self, kind, tmp_path):
        task = _tasks()[kind]
        rows = []
        for _ in ("cold", "warm"):
            rt = ExperimentRuntime(jobs=1, cache=tmp_path)
            rt.run([task])
            rows.append(
                [(p.name, p.cached, list(p.counters)) for p in rt.report.phases]
            )
        assert tuple(rows) == PINNED_PHASES[kind]


# --------------------------------------------------------------------------
# topology shipping and $REPRO_JOBS
# --------------------------------------------------------------------------


class TestTopologyShipping:
    def test_n_tasks_over_one_topology_cost_one_verification(
        self, tmp_path, monkeypatch
    ):
        topo = _mesh()
        tasks = [
            (topo, SeriesSpec(name=f"s{i}", algorithm="baseline", config=BEACON))
            for i in range(4)
        ]
        loads, fingerprints = [], []
        real_load = ExperimentCache.load

        def counting_load(self, key):
            loads.append(key)
            return real_load(self, key)

        def counting_fingerprint(topology):
            fingerprints.append(topology)
            return topology_fingerprint(topology)

        monkeypatch.setattr(ExperimentCache, "load", counting_load)
        monkeypatch.setattr(
            pool_module, "topology_fingerprint", counting_fingerprint
        )
        rt = ExperimentRuntime(jobs=1, cache=tmp_path)
        rt.run(tasks[:2])
        rt.run(tasks[2:])
        assert len(fingerprints) == 1
        assert [key for key in loads if key.startswith("topology-")] == [
            stable_key("topology", topology_fingerprint(topo))
        ]

    def test_first_ship_replaces_a_corrupted_entry(self, tmp_path):
        topo = _mesh()
        spec = SeriesSpec(name="s", algorithm="baseline", config=BEACON)
        first = ExperimentRuntime(jobs=1, cache=tmp_path).run([(topo, spec)])
        (entry,) = tmp_path.glob("topology-*.pkl")
        entry.write_bytes(b"garbage")
        second = ExperimentRuntime(jobs=2, cache=tmp_path).run(
            [(topo, spec), (topo, spec)]
        )
        hit, stored = ExperimentCache(tmp_path).load(entry.stem)
        assert hit
        assert topology_fingerprint(stored) == topology_fingerprint(topo)
        assert second[0].result == first[0].result


class TestDefaultJobs:
    def test_malformed_env_is_a_named_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match=r"REPRO_JOBS.*'abc'"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_help_survives_a_malformed_env(self):
        env = dict(
            os.environ, REPRO_JOBS="abc", PYTHONPATH=os.pathsep.join(sys.path)
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "figure5", "--help"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "REPRO_JOBS" in done.stdout and "'abc'" in done.stdout


class TestCliInputErrors:
    @pytest.mark.parametrize("experiment", ["traffic", "serve"])
    @pytest.mark.parametrize(
        "flag,value", [("--scale", "bogus"), ("--jobs", "0")]
    )
    def test_bad_value_names_its_flag(self, experiment, flag, value, capsys):
        """Regression: these surfaced as ``ValueError`` tracebacks from
        ``get_scale`` / ``ExperimentRuntime``."""
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([experiment, flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
