"""Tests for SLO evaluation (repro.obs.slo), histogram quantiles, and
the dump-on-failure flight recorder (repro.obs.flight).

Covers the ISSUE acceptance properties: latency SLOs evaluate exactly at
bucket bounds (and conservatively, flagged, between them), error budgets
follow the SRE burn convention, no-data objectives are not compliant
(in the summary and in ``obs_report.py slo``'s exit status), histogram
snapshots carry p50/p95/p99 as a dict and as JSON,
a flight dump is the tail of the span stream and dumps cap with
suppression, a reused bundle directory reports only its own run's dumps,
and a session whose requests blow their deadline produces flight dumps
plus a non-compliant SLO summary in its report.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.obs import CausalTracer, MetricsRegistry, Telemetry
from repro.obs.bundle import create_bundle, write_bundle
from repro.obs.flight import MAX_DUMPS, SPANS_PER_DUMP
from repro.obs.slo import (
    SLOSpec,
    evaluate_slos,
    slo_summary,
)
from repro.service.clients import LoadConfig
from repro.service.service import ServiceConfig
from repro.service.session import SessionConfig, run_session


# --------------------------------------------------------------------------
# histogram quantiles
# --------------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_interpolated_quantiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", (1.0, 2.0, 4.0))
        for value in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            hist.observe(value)
        quantiles = hist.quantiles()
        assert 0.0 < quantiles["p50"] <= 1.0
        assert 1.0 < quantiles["p95"] <= 4.0
        assert quantiles["p95"] <= quantiles["p99"] <= 4.0

    def test_empty_and_overflow(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", (1.0, 2.0))
        assert hist.quantile(0.5) == 0.0
        hist.observe(100.0)  # +Inf bucket clamps to the largest bound
        assert hist.quantile(0.99) == 2.0

    def test_quantiles_in_both_expositions(self):
        reg = MetricsRegistry()
        reg.histogram("svc.latency", (1.0, 2.0)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap["histograms"][0]["quantiles"]) == {
            "p50", "p95", "p99",
        }
        (entry,) = json.loads(reg.to_json())["histograms"]
        assert entry["quantiles"] == snap["histograms"][0]["quantiles"]


# --------------------------------------------------------------------------
# SLO evaluation
# --------------------------------------------------------------------------


def _latency_spec(threshold, objective=0.5, match=()):
    return SLOSpec(
        name="lat", metric="svc.lat", kind="latency",
        threshold=threshold, objective=objective, match=match,
    )


class TestSLOEvaluation:
    def _registry(self):
        reg = MetricsRegistry()
        hist = reg.histogram("svc.lat", (1.0, 2.0), {"kind": "lookup"})
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(5.0)
        hist.observe(5.0)
        return reg

    def test_exact_at_bucket_bound(self):
        (result,) = evaluate_slos(self._registry(), [_latency_spec(2.0)])
        assert (result.total, result.good, result.bad) == (4, 2, 2)
        assert result.exact
        assert result.attained == 0.5
        assert result.compliant  # 0.5 >= 0.5
        budget = result.budget()
        assert budget["allowed"] == 2.0
        assert budget["spent"] == 2.0
        assert budget["burn"] == 1.0

    def test_threshold_between_buckets_is_conservative(self):
        (result,) = evaluate_slos(self._registry(), [_latency_spec(1.5)])
        assert result.good == 1  # only the <=1.0 bucket counts
        assert not result.exact
        assert "threshold_between_buckets" in result.notes

    def test_match_restricts_label_sets(self):
        reg = self._registry()
        reg.histogram("svc.lat", (1.0, 2.0), {"kind": "other"}).observe(0.1)
        (result,) = evaluate_slos(
            reg, [_latency_spec(2.0, match=(("kind", "lookup"),))]
        )
        assert result.total == 4  # the "other" series stays out

    def test_error_rate_and_burn(self):
        reg = MetricsRegistry()
        reg.counter("svc.done", {"status": "ok"}).inc(95)
        reg.counter("svc.done", {"status": "timeout"}).inc(5)
        spec = SLOSpec(
            name="errors", metric="svc.done", kind="error_rate",
            objective=0.96,
        )
        (result,) = evaluate_slos(reg, [spec])
        assert (result.total, result.good) == (100, 95)
        assert not result.compliant
        assert result.budget()["burn"] == 1.25  # 5 spent of 4 allowed

    def test_no_data_is_not_compliant(self, tmp_path):
        """Was: ``attained`` is 1.0 over zero events, so a service that
        stopped exporting its latency histogram passed the CI SLO gate."""
        results = evaluate_slos(MetricsRegistry(), [_latency_spec(2.0)])
        (result,) = results
        assert result.total == 0
        assert "no_data" in result.notes
        assert not result.compliant
        summary = slo_summary(results)
        assert summary["compliant"] is False
        # A summary written before the fix marks the objective compliant;
        # the gate must not believe it.
        summary["compliant"] = summary["objectives"][0]["compliant"] = True
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(summary))
        tool = Path(__file__).resolve().parent.parent / "tools" / "obs_report.py"
        proc = subprocess.run(
            [sys.executable, str(tool), "slo", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "VIOLATED" in proc.stdout and "no_data" in proc.stdout

    def test_summary(self):
        reg = self._registry()
        results = evaluate_slos(reg, [_latency_spec(2.0)])
        summary = slo_summary(results)
        assert summary["compliant"] is True
        (entry,) = summary["objectives"]
        assert entry["name"] == "lat"
        assert entry["threshold"] == 2.0
        assert set(entry["budget"]) == {
            "allowed", "spent", "remaining", "burn",
        }
        json.dumps(summary, sort_keys=True)  # report-serializable


# --------------------------------------------------------------------------
# flight recorder
# --------------------------------------------------------------------------


def _ticks(tel, count):
    """``count`` instants on ``tel``'s tracer, numbered in ``args.n``."""
    for index in range(count):
        tel.causal.instant("sub", "tick", n=index)


class TestFlightRecorder:
    def test_dump_is_the_tail_of_the_span_stream(self):
        tel = Telemetry.collecting()
        _ticks(tel, 3)
        short = tel.flight.dump("early")
        assert short["spans"] == tel.causal.spans  # a short stream, whole
        _ticks(tel, SPANS_PER_DUMP)
        dump = tel.flight.dump("trigger")
        assert dump["spans"] == tel.causal.spans[-SPANS_PER_DUMP:]
        # The three earliest fell off the front.
        assert [s["args"]["n"] for s in dump["spans"]] == list(
            range(SPANS_PER_DUMP)
        )
        assert dump["t"] == tel.causal.now()

    def test_max_dumps_suppresses(self):
        tel = Telemetry.collecting()
        _ticks(tel, 1)
        for index in range(MAX_DUMPS):
            assert tel.flight.dump(f"t{index}") is not None
        assert tel.flight.dump("late") is None
        assert tel.flight.dump("later") is None
        assert tel.flight.summary() == {
            "dumps": MAX_DUMPS,
            "suppressed": 2,
            "events": 1,
            "triggers": [f"t{index}" for index in range(MAX_DUMPS)],
        }

    def test_disabled_is_noop(self):
        """A disabled bundle dumps nothing, and the recorder cannot be
        on while its tracer is off: it is built from the bundle's own."""
        tel = Telemetry()
        assert tel.flight.causal is tel.causal
        assert not tel.flight.enabled
        assert tel.flight.dump("a") is None
        assert tel.flight.dumps == [] and tel.flight.suppressed == 0
        assert Telemetry(causal=CausalTracer(enabled=True)).flight.enabled

    def test_dump_writes_jsonl(self, tmp_path):
        tel = Telemetry.collecting()
        tel.causal.configure(clock=lambda: 4.5)
        tel.flight.directory = tmp_path
        tel.causal.instant("admission", "accepted", client="c1")
        with tel.causal.span("execute", "attempt", request=7):
            pass
        tel.flight.dump("request_timeout", detail={"request": 7})
        (path,) = sorted(tmp_path.glob("flight-*.jsonl"))
        assert path.name == "flight-001-request_timeout.jsonl"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {
            "dump": 1, "trigger": "request_timeout", "t": 4.5,
            "detail": {"request": 7},
        }
        assert lines[1:] == tel.causal.spans

    def test_reused_bundle_directory_reports_only_this_runs_dumps(
        self, tmp_path
    ):
        """Was: dump numbering restarted at 001, nothing was cleared and
        the manifest counted every file in ``flight/``, so a run with 2
        dumps into a directory holding 5 left 3 stale post-mortems (and
        the last ``serve``'s ``slo.json``) and reported 5."""
        root = tmp_path / "obs"
        earlier = Telemetry.collecting()
        create_bundle(root, earlier)
        for _ in range(5):
            earlier.flight.dump("request_timeout")
        slo = {"compliant": True, "objectives": []}
        write_bundle(
            root, earlier, [{"experiment": "serve", "slo": slo}], {}
        )
        assert (root / "slo.json").exists()

        tel = Telemetry.collecting()
        create_bundle(root, tel)
        tel.flight.dump("deadlock")
        tel.flight.dump("invariant_failure")
        manifest = write_bundle(
            root, tel, [{"experiment": "x", "slo": {}}], {}
        )
        assert sorted(p.name for p in (root / "flight").iterdir()) == [
            "flight-001-deadlock.jsonl",
            "flight-002-invariant_failure.jsonl",
        ]
        assert manifest["files"]["flight/"] == {"records": 2}
        assert not (root / "slo.json").exists()


# --------------------------------------------------------------------------
# session integration: timeouts dump, SLOs land in the report
# --------------------------------------------------------------------------


class TestSessionObservability:
    def test_timeouts_dump_flight_and_blow_slos(self):
        # A deadline below the lookup cost times every lookup out.
        service = ServiceConfig()
        config = SessionConfig(
            scale="test",
            load=LoadConfig(num_clients=12, requests_per_client=2, seed=3),
            service=ServiceConfig(request_timeout=service.lookup_cost / 2),
        )
        tel = Telemetry.collecting()
        report = run_session(config, obs=tel)
        assert report.flight["dumps"] >= 1
        assert "request_timeout" in report.flight["triggers"]
        assert report.slo["objectives"]
        assert report.slo["compliant"] is False
        # Failed attempts close tagged, not dropped.
        attempts = [
            s for s in tel.causal.stitched()
            if s["name"] == "attempt" and s.get("args", {}).get("error")
        ]
        assert attempts
        assert all(a["args"]["reason"] == "TimeoutError" for a in attempts)
        # Each post-mortem ends with the timed-out request's last attempt.
        for dump in tel.flight.dumps:
            last = dump["spans"][-1]
            assert last["trace"] == tel.causal.trace_id(dump["detail"]["request"])
            assert last["name"] == "attempt"
            assert last["args"]["reason"] == "TimeoutError"

    def test_healthy_session_reports_compliant(self):
        config = SessionConfig(
            scale="test",
            load=LoadConfig(num_clients=10, requests_per_client=2, seed=5),
        )
        report = run_session(config, obs=Telemetry.collecting())
        assert report.slo["compliant"] is True
        assert report.flight["dumps"] == 0
