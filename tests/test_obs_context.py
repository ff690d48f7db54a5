"""Tests for the span recorder (repro.obs.context).

Covers the ISSUE acceptance properties: trace/span ids are derived, not
drawn (same seed → byte-identical ids), contexts survive the wire,
stitching worker streams is commutative, every span tree is well-formed
(parents present, acyclic, intervals nested), runtime spans from
``--jobs 4`` stitch byte-identical to ``--jobs 1`` after ``scrub``,
serial and process shards record identical spans, and a
service session's requests each form one rooted tree that replays
byte-identically.
"""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.context import (
    NULL_SPAN,
    CausalTracer,
    TraceContext,
    build_span_trees,
    causal_to_chrome,
    format_span_tree,
    scrub,
    slowest_traces,
    span_problems,
    trace_breakdown,
)
from repro.runtime import ExperimentRuntime, SeriesSpec
from repro.runtime.worker import Task, execute_task
from repro.service.clients import LoadConfig
from repro.service.session import SessionConfig, run_session
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import generate_core_mesh


def _record(span, parent="", t0=0.0, t1=1.0, trace="t"):
    return {
        "trace": trace, "span": span, "parent": parent,
        "cat": "c", "name": span, "t0": t0, "t1": t1, "worker": "",
    }


# --------------------------------------------------------------------------
# tracer unit tests
# --------------------------------------------------------------------------


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = TraceContext(trace_id="t1", span_id="s1", parent_id="p1")
        wire = ctx.to_wire()
        json.dumps(wire)  # plain data, safe on a task/pipe
        back = TraceContext.from_wire(wire)
        assert back.trace_id == "t1"
        assert back.span_id == "s1"
        # The parent link is local to the recording side by design.
        assert back.parent_id == ""


class TestCausalTracer:
    def test_ids_are_derived_not_drawn(self):
        a, b = CausalTracer(seed=7), CausalTracer(seed=7)
        assert a.trace_id(3) == b.trace_id(3)
        assert a.trace_id(3) != a.trace_id(4)
        assert CausalTracer(seed=8).trace_id(3) != a.trace_id(3)
        a.root(0, "c", "n").end()
        b.root(0, "c", "n").end()
        assert scrub(a.spans) == scrub(b.spans)

    def test_salt_namespaces_mint_counters(self):
        tracer = CausalTracer(seed=1)
        parent = tracer.derive_context(0)
        one = tracer.begin(parent, "c", "x", salt="a")
        other = tracer.begin(parent, "c", "y", salt="b")
        assert one.ctx.span_id != other.ctx.span_id

    def test_disabled_tracer_records_nothing(self):
        tracer = CausalTracer(enabled=False, seed=1)
        span = tracer.root(0, "c", "n")
        assert span is NULL_SPAN
        with span:
            span.set(k=1)
            span.end()
        assert tracer.record(tracer.derive_context(0), "c", "n", 0, 1) is None
        assert tracer.spans == []

    def test_logical_clock_nests_children(self):
        tracer = CausalTracer(seed=0)
        root = tracer.root(0, "c", "root")
        child = tracer.begin(root.ctx, "c", "child")
        child.end()
        root.end()
        assert span_problems(tracer.spans) == []

    def test_context_manager_tags_error_and_closes(self):
        tracer = CausalTracer(seed=0)
        with pytest.raises(ValueError):
            with tracer.root(0, "c", "boom"):
                raise ValueError("x")
        (span,) = tracer.spans
        assert span["args"]["error"] is True
        assert span["args"]["reason"] == "ValueError"

    def test_retrospective_record(self):
        tracer = CausalTracer(seed=0)
        root = tracer.root(0, "c", "root")
        ctx = tracer.record(root.ctx, "c", "wait", 2.0, 3.5, n=1)
        root.end(at=10.0)
        assert ctx.parent_id == root.ctx.span_id
        wait = next(s for s in tracer.spans if s["name"] == "wait")
        assert (wait["t0"], wait["t1"], wait["wall"]) == (2.0, 3.5, 0.0)
        assert span_problems(tracer.spans) == []

    def test_stitching_is_commutative(self):
        parent = CausalTracer(seed=3)
        root = parent.root(0, "c", "root")
        wire = root.ctx.to_wire()

        def shipped(salt):
            worker = CausalTracer(seed=3, salt=salt, worker=f"w{salt}")
            worker.current = TraceContext.from_wire(wire)
            worker.record(
                worker.current, "shard", f"shard:{salt}", 2.0, 3.0
            )
            return worker.export()

        a, b = shipped("a"), shipped("b")
        root.end(at=10.0)

        one = CausalTracer(seed=3)
        one.extend(parent.export())
        one.extend(a)
        one.extend(b)
        two = CausalTracer(seed=3)
        two.extend(b)
        two.extend(a)
        two.extend(parent.export())
        assert one.stitched() == two.stitched()
        assert span_problems(one.stitched()) == []


class TestSpanProblems:
    def test_clean_stream(self):
        root = _record("r", t0=0.0, t1=4.0)
        child = _record("a", parent="r", t0=1.0, t1=2.0)
        assert span_problems([root, child]) == []

    def test_missing_parent(self):
        problems = span_problems([_record("a", parent="ghost")])
        assert any("missing" in p for p in problems)

    def test_interval_escape(self):
        root = _record("r", t0=0.0, t1=1.0)
        child = _record("a", parent="r", t0=0.5, t1=2.0)
        assert any("escapes" in p for p in span_problems([root, child]))

    def test_cycle(self):
        a = _record("a", parent="b")
        b = _record("b", parent="a")
        assert any("cycle" in p for p in span_problems([a, b]))

    def test_duplicate_ids(self):
        assert any(
            "duplicate" in p
            for p in span_problems([_record("a"), _record("a")])
        )


class TestAnalysis:
    def _stream(self):
        return [
            _record("r", t0=0.0, t1=10.0),
            _record("slow", parent="r", t0=0.0, t1=7.0),
            _record("fast", parent="r", t0=7.0, t1=8.0),
            _record("q", t0=0.0, t1=2.0, trace="u"),
        ]

    def test_trees_and_slowest(self):
        trees = build_span_trees(self._stream())
        assert set(trees) == {"t", "u"}
        (root,) = trees["t"]
        assert [c["span"]["name"] for c in root["children"]] == [
            "slow", "fast",
        ]
        ranked = slowest_traces(self._stream(), top=2)
        assert [r["span"]["trace"] for r in ranked] == ["t", "u"]

    def test_breakdown_legs(self):
        (root,) = build_span_trees(self._stream())["t"]
        legs = trace_breakdown(root)
        assert legs["slow"] == 7.0
        assert legs["fast"] == 1.0
        assert legs["(self)"] == 2.0

    def test_tick_spans_are_measured_by_wall_and_labelled(self):
        """Regression: integer endpoints are logical ticks — they nest
        spans but are not seconds; ``wall`` is what the span took."""
        root = _record("r", t0=1, t1=6)
        root["wall"] = 0.5
        leg = _record("leg", parent="r", t0=2, t1=3)
        leg["wall"] = 0.2
        (tree,) = build_span_trees([root, leg])["t"]
        assert trace_breakdown(tree) == {"leg": 0.2, "(self)": 0.3}
        head, child = format_span_tree(tree)
        assert "[ticks 1..6, wall 0.500000s]" in head
        assert "[ticks 2..3, wall 0.200000s]" in child
        # A session-clock span keeps its interval, in seconds.
        (line,) = format_span_tree({"span": _record("q"), "children": []})
        assert "[0.000000s +1.000000s]" in line

    def test_tree_folds_childless_siblings_of_one_kind(self):
        root = _record("r", t0=0.0, t1=9.0)
        kids = [
            dict(_record(f"k{i}", parent="r", t0=float(i), t1=i + 1.0),
                 name="interval")
            for i in range(3)
        ]
        (tree,) = build_span_trees([root, *kids])["t"]
        assert format_span_tree(tree)[1:] == ["  c/interval x3 [3.000000s]"]

    def test_chrome_lanes_per_worker(self):
        spans = self._stream()
        spans[0]["worker"] = "pid9"
        events = causal_to_chrome(spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {
            "worker:main", "worker:pid9",
        }
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0, 1}


# --------------------------------------------------------------------------
# runtime + shard spans: jobs and mode determinism
# --------------------------------------------------------------------------


def _mesh():
    return generate_core_mesh(8, mean_degree=3.0, seed=5)


def _beacon_config():
    return BeaconingConfig(
        interval=10.0, duration=30.0, pcb_lifetime=100.0,
        storage_limit=10, mode=BeaconingMode.CORE,
    )


def _series_specs(topo):
    config = _beacon_config()
    return [
        (
            topo,
            SeriesSpec(name="baseline", algorithm="baseline", config=config),
        ),
        (
            topo,
            SeriesSpec(
                name="warm", algorithm="baseline", config=config,
                warmup_intervals=1,
            ),
        ),
        (
            topo,
            SeriesSpec(
                name="diversity", algorithm="diversity", config=config
            ),
        ),
    ]


class TestRuntimeSpans:
    def test_jobs4_stitches_identical_to_jobs1(self):
        def run(jobs):
            tel = Telemetry.collecting()
            ExperimentRuntime(jobs=jobs, telemetry=tel).run(
                _series_specs(_mesh())
            )
            return tel.causal.stitched()

        serial = run(1)
        fanned = run(4)
        assert span_problems(serial) == []
        assert scrub(serial) == scrub(fanned)
        trees = build_span_trees(serial)
        assert len(trees) == 3
        for roots in trees.values():
            (root,) = roots  # exactly one rooted tree per task
            assert root["span"]["name"].startswith("series:")
            legs = {c["span"]["name"]: c for c in root["children"]}
            assert {"setup", "measure", "analyze"} <= set(legs)
            # The measured window's interval spans hang under its leg.
            assert [
                c["span"]["name"] for c in legs["measure"]["children"]
            ] == ["interval"] * 3

    def test_traffic_run_is_one_stream_across_jobs(self):
        """Test-scale ``traffic``: everything the run records — task
        legs, beaconing intervals, ticks, cache events — is one stream of
        one record shape, equal across jobs counts after ``scrub``."""
        from collections import Counter

        from repro.experiments.config import TEST_SCALE
        from repro.experiments.traffic import run_traffic

        def run(jobs):
            tel = Telemetry.collecting()
            run_traffic(
                TEST_SCALE,
                runtime=ExperimentRuntime(jobs=jobs, telemetry=tel),
            )
            return tel.causal.stitched()

        serial = run(1)
        assert scrub(serial) == scrub(run(2))
        assert span_problems(serial) == []
        shape = {
            "trace", "span", "parent", "cat", "name", "t0", "t1", "wall",
            "worker",
        }
        assert all(shape <= set(s) <= shape | {"args"} for s in serial)

        # Every kind the two old streams held, with its old count — and
        # traffic/control once per task, where both used to record it.
        kinds = Counter(
            (s["cat"], s["name"].split(":")[0]) for s in serial
        )
        assert kinds == {
            ("traffic", "traffic"): 8,
            ("traffic", "control"): 8,
            ("traffic", "run"): 8,
            ("beaconing", "interval"): 192,
            ("traffic", "tick"): 80,
            ("traffic", "fail_links"): 2,
            ("traffic", "recover_links"): 2,
            ("path_server", "cache_hit"): 828,
            ("path_server", "cache_miss"): 1244,
        }

        # One rooted tree per task; intervals hang under the control
        # leg, ticks under the run leg, cache events under their tick.
        by_id = {s["span"]: s for s in serial}
        parents = Counter(
            (s["name"], by_id[s["parent"]]["name"].split(":")[0])
            for s in serial if s["parent"]
        )
        assert parents == {
            ("control", "traffic"): 8,
            ("run", "traffic"): 8,
            ("interval", "control"): 192,
            ("tick", "run"): 80,
            ("fail_links", "tick"): 2,
            ("recover_links", "tick"): 2,
            ("cache_hit", "tick"): 828,
            ("cache_miss", "tick"): 1244,
        }
        assert len(build_span_trees(serial)) == 8

    def test_shard_modes_record_identical_spans(self):
        topo = _mesh()
        spec = SeriesSpec(
            name="probe", algorithm="baseline", config=_beacon_config()
        )

        def run(shard_processes):
            outcome = execute_task(
                Task(
                    spec=spec, topology=topo, telemetry=True,
                    shards=2, shard_processes=shard_processes,
                    trace_index=0, trace_seed=11,
                )
            )
            return outcome.spans

        serial = run(False)
        process = run(True)
        assert serial
        assert span_problems(sorted(
            serial, key=lambda s: (s["trace"], s["t0"], s["t1"], s["span"])
        )) == []
        assert scrub(serial) == scrub(process)
        names = [s["name"] for s in serial]
        assert {"shard:0", "shard:1"} <= set(names)
        assert names.count("interval") == 3  # the coordinator's, once each


# --------------------------------------------------------------------------
# service spans: rooted trees, replay identity
# --------------------------------------------------------------------------


class TestServiceTraces:
    def _config(self):
        return SessionConfig(
            scale="test",
            load=LoadConfig(num_clients=30, requests_per_client=2, seed=9),
        )

    def test_every_request_is_one_rooted_tree(self):
        tel = Telemetry.collecting()
        report = run_session(self._config(), obs=tel)
        spans = tel.causal.stitched()
        assert spans
        assert span_problems(spans) == []
        trees = build_span_trees(spans)
        assert len(trees) == report.planned_requests
        for roots in trees.values():
            assert len(roots) == 1
        # The segment caches' per-lookup events land inside the request
        # that caused them, not in traces of their own.
        by_id = {s["span"]: s for s in spans}
        events = [s for s in spans if s["cat"] == "path_server"]
        assert events
        assert {by_id[e["parent"]]["name"] for e in events} <= {
            "lookup", "forward",
        }

    def test_session_replay_is_byte_identical(self):
        def run():
            tel = Telemetry.collecting()
            run_session(self._config(), obs=tel)
            return json.dumps(scrub(tel.causal.stitched()), sort_keys=True)

        assert run() == run()
