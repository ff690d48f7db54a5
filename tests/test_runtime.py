"""Tests for the parallel experiment runtime (repro.runtime).

Covers the ISSUE acceptance properties: content-addressed cache keys react
to every ExperimentScale change, ``jobs=1`` and ``jobs=N`` produce
identical outcomes, warm-state snapshots are reused across invocations,
and a corrupted cache entry is recovered from, never propagated.
"""

import dataclasses
import pickle

import pytest

from repro.experiments.config import get_scale
from repro.runtime import (
    ExperimentCache,
    ExperimentRuntime,
    RunReport,
    SeriesSpec,
    Task,
    execute_task,
    fingerprint,
    stable_key,
    topology_fingerprint,
)
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import Relationship, Topology, generate_core_mesh


# --------------------------------------------------------------------------
# fingerprints and keys
# --------------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self):
        scale = get_scale("test")
        assert fingerprint(scale) == fingerprint(scale)
        assert stable_key("topo", scale) == stable_key("topo", scale)

    def test_canonicalizes_containers(self):
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})
        assert fingerprint((1, 2)) == fingerprint([1, 2])

    def test_enum_and_dataclass_support(self):
        config = BeaconingConfig(
            interval=10.0, duration=20.0, pcb_lifetime=50.0,
            mode=BeaconingMode.CORE,
        )
        key = fingerprint(config)
        assert key == fingerprint(dataclasses.replace(config))
        assert key != fingerprint(
            dataclasses.replace(config, mode=BeaconingMode.INTRA_ISD)
        )

    def test_rejects_unhashable_blobs(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_every_scale_field_changes_the_key(self):
        """Cache keys must react to *any* ExperimentScale change, so a
        tweaked scale can never be served a stale prerequisite."""
        scale = get_scale("test")
        base = stable_key("prereq", scale)
        for field_ in dataclasses.fields(scale):
            value = getattr(scale, field_.name)
            if isinstance(value, str):
                changed = value + "-x"
            elif isinstance(value, float):
                changed = value + 1.0
            else:
                changed = value + 1
            tweaked = dataclasses.replace(scale, **{field_.name: changed})
            assert stable_key("prereq", tweaked) != base, field_.name

    def test_topology_fingerprint_sees_structure(self):
        topo = Topology()
        topo.add_as(1, is_core=True)
        topo.add_as(2, is_core=True)
        topo.add_link(1, 2, Relationship.CORE)
        fp = topology_fingerprint(topo)
        assert fp == topology_fingerprint(topo)
        topo.add_as(3, is_core=False)
        assert topology_fingerprint(topo) != fp


class TestSnapshotKeys:
    def _spec(self, **overrides):
        config = BeaconingConfig(
            interval=10.0, duration=40.0, pcb_lifetime=100.0,
            mode=BeaconingMode.CORE,
        )
        defaults = dict(
            name="s", algorithm="baseline", config=config, seed=3
        )
        defaults.update(overrides)
        return SeriesSpec(**defaults)

    def test_warm_snapshot_ignores_measurement_duration(self):
        """Sibling series that share a warm-up but measure different
        windows must hit the same warm-state snapshot."""
        spec = self._spec(warmup_intervals=4)
        longer = dataclasses.replace(
            spec,
            config=dataclasses.replace(spec.config, duration=400.0),
        )
        assert spec.snapshot_key("fp") == longer.snapshot_key("fp")

    def test_full_run_snapshot_includes_duration(self):
        spec = self._spec()
        longer = dataclasses.replace(
            spec,
            config=dataclasses.replace(spec.config, duration=400.0),
        )
        assert spec.snapshot_key("fp") != longer.snapshot_key("fp")

    def test_key_reacts_to_algorithm_and_topology(self):
        spec = self._spec()
        assert spec.snapshot_key("fp-a") != spec.snapshot_key("fp-b")
        diversity = dataclasses.replace(spec, algorithm="diversity")
        assert diversity.snapshot_key("fp-a") != spec.snapshot_key("fp-a")


# --------------------------------------------------------------------------
# the disk cache
# --------------------------------------------------------------------------


class TestExperimentCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        builds = []
        hit, value = cache.get_or_build("k", lambda: builds.append(1) or 42)
        assert (hit, value) == (False, 42)
        hit, value = cache.get_or_build("k", lambda: builds.append(1) or 42)
        assert (hit, value) == (True, 42)
        assert len(builds) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_scale_change_is_a_miss(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        scale = get_scale("test")
        cache.store(stable_key("topo", scale), "small")
        bigger = dataclasses.replace(scale, internet_ases=scale.internet_ases * 2)
        hit, _ = cache.load(stable_key("topo", bigger))
        assert not hit
        hit, value = cache.load(stable_key("topo", scale))
        assert hit and value == "small"

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.store("k", {"real": True})
        path = cache._path("k")
        path.write_bytes(b"\x80\x05 this is not a pickle")
        hit, value = cache.load("k")
        assert not hit and value is None
        assert not path.exists()  # the bad entry is dropped
        hit, value = cache.get_or_build("k", lambda: "rebuilt")
        assert (hit, value) == (False, "rebuilt")
        assert cache.load("k") == (True, "rebuilt")

    def test_truncated_entry_recovers(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.store("k", list(range(1000)))
        path = cache._path("k")
        path.write_bytes(path.read_bytes()[:20])
        hit, _ = cache.load("k")
        assert not hit

    def test_store_is_atomic_replace(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.store("k", 1)
        cache.store("k", 2)
        assert cache.load("k") == (True, 2)
        # No stray temp files left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_clear(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.clear() == 2
        assert cache.load("a") == (False, None)


# --------------------------------------------------------------------------
# series execution: serial == parallel, warm snapshots, recovery
# --------------------------------------------------------------------------


def _mesh():
    return generate_core_mesh(8, mean_degree=3.0, seed=5)


def _specs(topo):
    config = BeaconingConfig(
        interval=10.0, duration=40.0, pcb_lifetime=100.0,
        storage_limit=10, mode=BeaconingMode.CORE,
    )
    asns = sorted(topo.asns())
    pairs = tuple((asns[0], asns[-1]) for _ in range(1))
    return [
        (
            topo,
            SeriesSpec(
                name="baseline",
                algorithm="baseline",
                config=config,
                seed=1,
                collect_received=(asns[0],),
                collect_pairs=pairs,
                collect_bandwidth=True,
            ),
        ),
        (
            topo,
            SeriesSpec(
                name="diversity",
                algorithm="diversity",
                config=dataclasses.replace(config, eviction_policy="diverse"),
                seed=1,
                collect_pairs=pairs,
            ),
        ),
        (
            topo,
            SeriesSpec(
                name="warm",
                algorithm="baseline",
                config=config,
                warmup_intervals=3,
                seed=1,
                collect_received=(asns[1],),
            ),
        ),
    ]


def _payload(outcome):
    """Everything deterministic about an outcome (timings are wall-clock)."""
    data = dataclasses.asdict(outcome)
    data.pop("timings")
    data.pop("cached")
    return data


class TestRunSeries:
    def test_jobs_1_and_jobs_n_identical(self):
        topo = _mesh()
        serial = ExperimentRuntime(jobs=1).run(_specs(topo))
        parallel = ExperimentRuntime(jobs=2).run(_specs(topo))
        assert [o.name for o in serial] == ["baseline", "diversity", "warm"]
        assert [_payload(o) for o in serial] == [
            _payload(o) for o in parallel
        ]
        # Byte-level: the canonical pickles of the payloads must agree.
        assert pickle.dumps([_payload(o) for o in serial]) == pickle.dumps(
            [_payload(o) for o in parallel]
        )

    def test_cached_rerun_identical_and_warm(self, tmp_path):
        topo = _mesh()
        first = ExperimentRuntime(jobs=1, cache=tmp_path).run(
            _specs(topo)
        )
        assert not any(o.cached for o in first)
        second = ExperimentRuntime(jobs=1, cache=tmp_path).run(
            _specs(topo)
        )
        # Every series resumed from its snapshot...
        assert all(o.cached for o in second)
        # ...without changing a single collected value.
        assert [_payload(o) for o in first] == [_payload(o) for o in second]
        # And cache-less execution agrees too.
        plain = ExperimentRuntime(jobs=1).run(_specs(topo))
        assert [_payload(o) for o in plain] == [_payload(o) for o in first]

    def test_corrupted_snapshot_recovers(self, tmp_path):
        topo = _mesh()
        first = ExperimentRuntime(jobs=1, cache=tmp_path).run(
            _specs(topo)
        )
        for path in tmp_path.glob("warm-sim-*.pkl"):
            path.write_bytes(b"garbage")
        for path in tmp_path.glob("run-sim-*.pkl"):
            path.write_bytes(b"garbage")
        second = ExperimentRuntime(jobs=1, cache=tmp_path).run(
            _specs(topo)
        )
        assert not any(o.cached for o in second)
        assert [_payload(o) for o in first] == [_payload(o) for o in second]

    def test_corrupted_topology_entry_recovers(self, tmp_path):
        """The orchestrator must replace a corrupted topology entry
        itself — a worker can only load it, not rebuild it."""
        topo = _mesh()
        first = ExperimentRuntime(jobs=1, cache=tmp_path).run(
            _specs(topo)
        )
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")
        second = ExperimentRuntime(jobs=2, cache=tmp_path).run(
            _specs(topo)
        )
        assert [_payload(o) for o in first] == [_payload(o) for o in second]

    def test_worker_reports_phase_timings(self):
        topo = _mesh()
        outcomes = ExperimentRuntime(jobs=1).run(_specs(topo))
        for outcome in outcomes:
            assert {"setup", "measure", "analyze"} <= set(outcome.timings)
        warm = next(o for o in outcomes if o.name == "warm")
        assert "warmup" in warm.timings

    def test_missing_topology_entry_is_an_error(self, tmp_path):
        spec = _specs(_mesh())[0][1]
        task = Task(
            spec=spec, cache_dir=str(tmp_path), topology_key="topology-gone"
        )
        with pytest.raises(RuntimeError):
            execute_task(task)


# --------------------------------------------------------------------------
# runtime orchestration: cached_value + report
# --------------------------------------------------------------------------


class TestExperimentRuntime:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ExperimentRuntime(jobs=0)

    def test_cached_value_records_hit_state(self, tmp_path):
        scale = get_scale("test")
        rt = ExperimentRuntime(cache=tmp_path)
        builds = []
        build = lambda: builds.append(1) or "value"
        assert rt.cached_value("thing", [scale], build, phase="p1") == "value"
        assert rt.cached_value("thing", [scale], build, phase="p2") == "value"
        assert len(builds) == 1
        p1 = rt.report.find("p1")
        p2 = rt.report.find("p2")
        assert p1 is not None and not p1.cached
        assert p2 is not None and p2.cached

    def test_cached_value_without_cache_always_builds(self):
        rt = ExperimentRuntime()
        builds = []
        build = lambda: builds.append(1) or "value"
        rt.cached_value("thing", [1], build)
        rt.cached_value("thing", [1], build)
        assert len(builds) == 2
        assert all(not p.cached for p in rt.report.phases)

    def test_report_round_trips_to_dict(self):
        report = RunReport(experiment="x", scale="test", jobs=2)
        with report.phase("a") as record:
            record.counters["n"] = 3
        data = report.to_dict()
        assert data["experiment"] == "x"
        assert data["jobs"] == 2
        assert data["phases"][0]["name"] == "a"
        assert data["phases"][0]["counters"] == {"n": 3}
        assert report.render()  # human-readable, non-empty

    def test_run_series_phases_marked_cached_on_rerun(self, tmp_path):
        topo = _mesh()
        ExperimentRuntime(jobs=1, cache=tmp_path).run(_specs(topo))
        rt = ExperimentRuntime(jobs=1, cache=tmp_path)
        rt.run(_specs(topo))
        warm_phase = rt.report.find("warm:warmup")
        assert warm_phase is not None and warm_phase.cached
