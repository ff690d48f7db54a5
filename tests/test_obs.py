"""Tests for the unified telemetry layer (repro.obs).

Covers the ISSUE acceptance properties: disabled telemetry is a shared
no-op (never a format call), metric merges are order-independent so
``--jobs N`` snapshots are byte-identical to ``--jobs 1``, SegmentCache
counters reconcile with the traffic report's cache-hit numbers, and the
span stream converts to valid Chrome trace-event JSON.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.control.network import ScionNetwork
from repro.control.path_server import SegmentCache
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.obs import (
    NULL_TELEMETRY,
    CausalTracer,
    MetricsRegistry,
    Telemetry,
    causal_to_chrome,
    scrub,
    span_problems,
)
from repro.obs.context import NULL_SPAN
from repro.obs.metrics import NULL_INSTRUMENT
from repro.runtime import ExperimentRuntime, SeriesSpec
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import generate_core_mesh
from repro.traffic import (
    FlowConfig,
    FlowGenerator,
    TrafficConfig,
    TrafficEngine,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(4.0)
        reg.histogram("h", (1.0, 2.0)).observe(0.5)
        reg.histogram("h", (1.0, 2.0)).observe(5.0)
        snap = reg.snapshot()
        assert snap["counters"][0]["value"] == 3
        assert snap["gauges"][0]["value"] == 4.0
        hist = snap["histograms"][0]
        assert hist["counts"] == [1, 0, 1]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(5.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry(const_labels={"series": "s"})
        reg.counter("c", {"mode": "a"}).inc()
        reg.counter("c", {"mode": "b"}).inc(2)
        snap = reg.snapshot()
        assert len(snap["counters"]) == 2
        assert all(
            e["labels"]["series"] == "s" for e in snap["counters"]
        )
        assert reg.counter_totals() == {"c": 3.0}

    def test_disabled_registry_hands_out_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NULL_INSTRUMENT
        assert reg.gauge("g") is NULL_INSTRUMENT
        assert reg.histogram("h", (1.0,)) is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.observe(1.0)
        assert reg.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }

    def test_merge_is_order_independent(self):
        def worker(seed):
            reg = MetricsRegistry(const_labels={"series": f"w{seed}"})
            reg.counter("c").inc(seed)
            reg.gauge("peak", mode="max").set(seed * 10)
            reg.gauge("total", mode="sum").set(seed)
            reg.histogram("h", (1.0, 5.0)).observe(seed)
            return reg.snapshot()

        snaps = [worker(s) for s in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge_snapshot(snap, extra_labels={"experiment": "e"})
        for snap in reversed(snaps):
            backward.merge_snapshot(snap, extra_labels={"experiment": "e"})
        assert forward.to_json() == backward.to_json()
        # Repeated merges of the same worker accumulate (counters sum).
        forward.merge_snapshot(snaps[0])
        assert forward.counter_totals()["c"] == 7.0

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1.0,)).observe(0.5)
        b.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_snapshot(b.snapshot())

    def test_to_json_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert reg.to_json() == reg.to_json()
        parsed = json.loads(reg.to_json())
        assert [e["name"] for e in parsed["counters"]] == ["a", "b"]


# --------------------------------------------------------------------------
# trace recorder
# --------------------------------------------------------------------------


class TestTraceRecorder:
    """The tracer's ambient API (``span`` / ``instant``): what the flat
    ``TraceRecorder`` did, now rows of the one span stream."""

    def test_spans_and_instants(self):
        trace = CausalTracer()
        with trace.span("cat", "work", tick=3):
            trace.instant("cat", "mark", n=1)
        assert len(trace.spans) == 2
        instant, span = trace.spans
        assert instant["t0"] == instant["t1"] and instant["wall"] == 0.0
        assert instant["args"] == {"n": 1}
        assert instant["parent"] == span["span"]
        assert span["t0"] < instant["t0"] < span["t1"] and span["wall"] > 0
        assert span["args"] == {"tick": 3}
        assert span_problems(trace.spans) == []

    def test_span_without_ambient_context_roots_its_own_trace(self):
        trace = CausalTracer()
        with trace.span("cat", "one"):
            pass
        trace.instant("cat", "two")
        one, two = trace.spans
        assert one["parent"] == two["parent"] == ""
        assert one["trace"] != two["trace"]
        assert trace.current is None  # restored after the body

    def test_disabled_returns_shared_null_span(self):
        trace = CausalTracer(enabled=False)
        assert trace.span("c", "n") is NULL_SPAN
        trace.instant("c", "n")
        assert trace.spans == []

    def test_span_closes_tagged_when_body_raises(self):
        """Regression: a raising body must still close the span, with the
        failure tagged — not leak an open interval from the stream."""
        trace = CausalTracer()
        with pytest.raises(RuntimeError):
            with trace.span("cat", "work", tick=1):
                raise RuntimeError("boom")
        (span,) = trace.spans
        assert span["t1"] > span["t0"] and span["wall"] >= 0
        assert span["args"]["error"] is True
        assert span["args"]["reason"] == "RuntimeError"
        assert span["args"]["tick"] == 1
        assert trace.current is None

    def test_extend_assigns_worker_tracks(self):
        parent = CausalTracer()
        worker = CausalTracer().configure(worker="pid1")
        worker.instant("c", "n")
        other = CausalTracer().configure(worker="pid2")
        other.instant("c", "n")
        parent.extend(worker.export())
        parent.extend(other.export())
        assert [s["worker"] for s in parent.spans] == ["pid1", "pid2"]
        lanes = {
            e["args"]["name"]: e["pid"]
            for e in causal_to_chrome(parent.spans) if e["ph"] == "M"
        }
        assert lanes == {"worker:pid1": 0, "worker:pid2": 1}

    def test_scrub_drops_only_the_process_dependent_fields(self):
        trace = CausalTracer().configure(worker="pid7")
        with trace.span("c", "s", k=1):
            pass
        (clean,) = scrub(trace.spans)
        assert set(trace.spans[0]) - set(clean) == {"worker", "wall"}
        assert clean["args"] == {"k": 1}

    def test_chrome_trace_document(self):
        trace = CausalTracer()
        with trace.span("c", "s"):
            pass
        trace.instant("c", "i")
        events = causal_to_chrome(trace.stitched())
        assert [e["ph"] for e in events] == ["M", "X", "X"]
        for event in events[1:]:
            assert {"ts", "dur", "pid", "tid"} <= set(event)
            assert "wall" in event["args"]
        json.dumps(events)  # must be serializable as-is

    def test_category_summary(self, tmp_path):
        trace = CausalTracer()
        with trace.span("a", "s"):
            trace.instant("b", "i")
        jsonl = tmp_path / "trace.jsonl"
        assert trace.write_jsonl(jsonl) == 2
        rows = {
            line.split()[0]: line.split()
            for line in _obs_report("tree", str(jsonl)).stdout.splitlines()
            if line.startswith("  ")
        }
        assert rows["category"] == ["category", "records", "self", "ms"]
        assert rows["a"][1] == "1" and rows["b"][1] == "1"
        assert float(rows["a"][2]) > 0 and float(rows["b"][2]) == 0


# --------------------------------------------------------------------------
# telemetry bundle
# --------------------------------------------------------------------------


class TestTelemetry:
    def test_null_telemetry_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.metrics.counter("c") is NULL_INSTRUMENT
        assert NULL_TELEMETRY.causal.span("c", "n") is NULL_SPAN

    def test_default_snapshot_has_no_wallclock(self):
        """The snapshot must stay deterministic: wall time lives in the
        span stream's ``wall`` field only, never in a gauge."""
        tel = Telemetry.collecting()
        with tel.causal.span("c", "n"):
            tel.metrics.counter("c").inc()
        snap = tel.metrics.snapshot()
        assert snap["gauges"] == []


# --------------------------------------------------------------------------
# end-to-end: jobs determinism, cache reconciliation, instrumented runs
# --------------------------------------------------------------------------


def _mesh():
    return generate_core_mesh(8, mean_degree=3.0, seed=5)


def _series_specs(topo):
    config = BeaconingConfig(
        interval=10.0, duration=40.0, pcb_lifetime=100.0,
        storage_limit=10, mode=BeaconingMode.CORE,
    )
    return [
        (
            topo,
            SeriesSpec(name="baseline", algorithm="baseline", config=config),
        ),
        (
            topo,
            SeriesSpec(
                name="warm",
                algorithm="baseline",
                config=config,
                warmup_intervals=2,
            ),
        ),
        (
            topo,
            SeriesSpec(
                name="diversity", algorithm="diversity", config=config
            ),
        ),
    ]


class TestJobsDeterminism:
    def test_metrics_snapshot_byte_identical_across_jobs(self):
        """The tentpole acceptance property: merged snapshots from N
        workers equal the serial run's, byte for byte (cache off)."""
        def run(jobs):
            tel = Telemetry.collecting()
            runtime = ExperimentRuntime(jobs=jobs, telemetry=tel)
            runtime.report.experiment = "det"
            runtime.run(_series_specs(_mesh()))
            return tel, runtime

        tel1, rt1 = run(1)
        tel2, rt2 = run(2)
        assert tel1.metrics.to_json() == tel2.metrics.to_json()
        assert tel1.metrics.counter_totals()["beaconing.intervals"] > 0
        assert rt1.report.counters == rt2.report.counters
        # One span stream, equal but for the worker lane and wall time.
        assert scrub(tel1.causal.stitched()) == scrub(tel2.causal.stitched())
        assert any(s["name"] == "interval" for s in tel1.causal.spans)

    def test_disabled_telemetry_unchanged_outcomes(self):
        """Collecting telemetry must not change what a run computes."""
        plain = ExperimentRuntime(jobs=1).run(_series_specs(_mesh()))
        observed = ExperimentRuntime(
            jobs=1, telemetry=Telemetry.collecting()
        ).run(_series_specs(_mesh()))
        for a, b in zip(
            (o.result for o in plain), (o.result for o in observed)
        ):
            assert a.total_pcbs == b.total_pcbs
            assert a.total_bytes == b.total_bytes
            assert a.intervals_run == b.intervals_run


class TestSegmentCacheCounters:
    def test_counters_and_events(self):
        class SmallCache(SegmentCache):
            TTL = 100.0
            MAX_ENTRIES = 2

        cache = SmallCache()
        seen = []
        cache.on_event = lambda kind, key: seen.append((kind, key))
        cache.put("a", [], now=0.0)
        cache.put("b", [], now=0.0)
        assert cache.get("a", now=1.0) is not None   # hit
        assert cache.get("z", now=1.0) is None       # miss
        cache.put("c", [], now=1.0)                  # evicts LRU ("b")
        assert cache.get("a", now=500.0) is None     # expiration + miss
        counters = cache.counters()
        assert counters["hit"] == 1
        assert counters["miss"] == 2
        assert counters["eviction"] == 1
        assert counters["expiration"] == 1
        kinds = [kind for kind, _ in seen]
        assert kinds.count("hit") == 1
        assert kinds.count("eviction") == 1
        assert kinds.count("expiration") == 1

    def test_registry_reconciles_with_traffic_report(self):
        """Satellite acceptance: path_server.cache_* counters agree with
        the TrafficRunResult's own cache hit/miss accounting."""
        topo = build_full_stack_topology(TEST_SCALE, leaves_per_core=2)
        tel = Telemetry.collecting()
        network = ScionNetwork(
            topo,
            algorithm="baseline",
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
            obs=tel,
        ).run()
        endpoints = sorted(topo.non_core_asns())
        engine = TrafficEngine(
            network,
            FlowGenerator(
                endpoints, FlowConfig(flows_per_tick=8, num_ticks=4, seed=3)
            ),
            TrafficConfig(),
            obs=tel,
        )
        result = engine.run()
        totals = tel.metrics.counter_totals("path_server.")
        assert totals.get("path_server.cache_hits", 0) == result.cache_hits
        assert (
            totals.get("path_server.cache_misses", 0) == result.cache_misses
        )
        assert result.cache_hits + result.cache_misses > 0
        # Per-lookup instants were recorded for every hit and miss.
        lookups = [
            e
            for e in tel.causal.spans
            if e["cat"] == "path_server"
            and e["name"] in ("cache_hit", "cache_miss")
        ]
        assert len(lookups) >= result.cache_hits + result.cache_misses


# --------------------------------------------------------------------------
# tools
# --------------------------------------------------------------------------


def _obs_report(*argv, check=True):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "obs_report.py"), *argv],
        capture_output=True,
        text=True,
        check=check,
    )


class TestTraceReportTool:
    def test_converts_jsonl_to_chrome_trace(self, tmp_path):
        trace = CausalTracer()
        with trace.span("beaconing", "interval", mode="core"):
            pass
        trace.instant("faults", "link_down", target=4)
        jsonl = tmp_path / "trace.jsonl"
        trace.write_jsonl(jsonl)

        out = tmp_path / "chrome.json"
        proc = _obs_report("chrome", str(jsonl), str(out))
        assert "3 events" in proc.stdout  # one lane header + two spans
        document = json.loads(out.read_text())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        names = [e["name"] for e in document["traceEvents"]]
        assert names == ["process_name", "link_down", "interval"]

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert _obs_report("tree", str(bad), check=False).returncode != 0
        # The old flat event shape is not a span record either.
        bad.write_text('{"ph": "X", "cat": "c", "name": "n", "ts": 0}\n')
        proc = _obs_report("chrome", str(bad), "x.json", check=False)
        assert proc.returncode != 0 and "not a span record" in proc.stderr

    def test_tree_labels_ticks_and_breaks_legs_down_by_wall(self, tmp_path):
        """Regression: a runtime trace's logical ticks were printed as
        seconds (``5.000000s``, ``(self) 3.000000s 60.0%``)."""
        trace = CausalTracer()
        with trace.root(0, "traffic", "traffic:x"):
            with trace.span("traffic", "control"):
                pass
        jsonl = tmp_path / "trace.jsonl"
        trace.write_jsonl(jsonl)
        out = _obs_report("tree", str(jsonl)).stdout
        root, control = trace.spans[1], trace.spans[0]
        assert f"traffic/traffic:x  {root['wall']:.6f}s" in out
        assert f"{'control':24s} {control['wall']:12.6f}s" in out
        assert "[ticks 1..4, wall " in out
        assert "3.000000s" not in out

    def test_tree_fails_on_a_malformed_stream(self, tmp_path):
        """Regression: ``tree`` warned about span problems and exited 0."""
        trace = CausalTracer()
        with trace.root(0, "c", "root"):
            trace.instant("c", "mark")
        jsonl = tmp_path / "trace.jsonl"
        jsonl.write_text(json.dumps(trace.spans[0]) + "\n")  # root dropped
        proc = _obs_report("tree", str(jsonl), check=False)
        assert proc.returncode == 1
        assert "malformed" in proc.stdout and "missing parent" in proc.stdout
        trace.write_jsonl(jsonl)
        assert _obs_report("tree", str(jsonl)).returncode == 0

    def test_bad_log_level_is_a_usage_error(self, tmp_path):
        proc = _obs_report("--log-level", "bogus", "slo", "x", check=False)
        assert proc.returncode == 2
        assert "--log-level" in proc.stderr and "Traceback" not in proc.stderr
