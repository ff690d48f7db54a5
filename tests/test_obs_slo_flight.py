"""Tests for SLO evaluation (repro.obs.slo), histogram quantiles, and
the dump-on-failure flight recorder (repro.obs.flight).

Covers the ISSUE acceptance properties: latency SLOs evaluate exactly at
bucket bounds (and conservatively, flagged, between them), error budgets
follow the SRE burn convention, no-data objectives are not compliant
(in the summary and in ``obs_report.py slo``'s exit status), histogram
snapshots carry p50/p95/p99 as a dict and as JSON,
flight rings evict at capacity and dumps cap with suppression, and a
session whose requests blow their deadline produces flight dumps plus a
non-compliant SLO summary in its report.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.obs.flight import FlightRecorder
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


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("sub", "tick", n=index)
        dump = recorder.dump("trigger")
        events = dump["events"]["sub"]
        assert len(events) == 4
        assert [e["n"] for e in events] == [6, 7, 8, 9]

    def test_capacity_is_fixed_at_construction(self):
        """Regression: ``configure(capacity=2)`` resized only rings made
        afterwards; the parameter is gone, so rings cannot disagree."""
        recorder = FlightRecorder(capacity=4)
        recorder.record("old", "tick")
        with pytest.raises(TypeError):
            recorder.configure(capacity=2)
        recorder.configure(clock=lambda: 1.0)
        recorder.record("new", "tick")
        assert {ring.maxlen for ring in recorder.rings.values()} == {4}

    def test_fields_cannot_replace_the_records_own_keys(self):
        """Regression: ``record(..., seq=..., t=...)`` overwrote the
        record's sequence number and timestamp."""
        recorder = FlightRecorder(clock=lambda: 2.5)
        recorder.record("sub", "tick", seq=99, t=-1.0, n=3)
        (event,) = recorder.rings["sub"]
        assert event == {"seq": 1, "t": 2.5, "event": "tick", "n": 3}

    def test_max_dumps_suppresses(self):
        recorder = FlightRecorder(max_dumps=2)
        recorder.record("sub", "tick")
        assert recorder.dump("a") is not None
        assert recorder.dump("b") is not None
        assert recorder.dump("c") is None
        summary = recorder.summary()
        assert summary["dumps"] == 2
        assert summary["suppressed"] == 1
        assert summary["triggers"] == ["a", "b"]

    def test_disabled_is_noop(self):
        recorder = FlightRecorder(enabled=False)
        recorder.record("sub", "tick")
        assert recorder.dump("a") is None
        assert recorder.rings == {}

    def test_dump_writes_jsonl(self, tmp_path):
        recorder = FlightRecorder()
        recorder.configure(directory=str(tmp_path), clock=lambda: 4.5)
        recorder.record("admission", "accepted", client="c1")
        recorder.record("execute", "started", request=7)
        recorder.dump("request_timeout", detail={"request": 7})
        (path,) = sorted(tmp_path.glob("flight-*.jsonl"))
        assert path.name == "flight-001-request_timeout.jsonl"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["trigger"] == "request_timeout"
        assert lines[0]["detail"] == {"request": 7}
        subsystems = {l["subsystem"] for l in lines[1:]}
        assert subsystems == {"admission", "execute"}


# --------------------------------------------------------------------------
# session integration: timeouts dump, SLOs land in the report
# --------------------------------------------------------------------------


class TestSessionObservability:
    def test_timeouts_dump_flight_and_blow_slos(self):
        config = SessionConfig(
            scale="test",
            load=LoadConfig(
                num_clients=12, requests_per_client=2, seed=3,
                slow_fraction=1.0, slow_cost=5.0,
            ),
            service=ServiceConfig(request_timeout=1.0, max_attempts=2),
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

    def test_healthy_session_reports_compliant(self):
        config = SessionConfig(
            scale="test",
            load=LoadConfig(num_clients=10, requests_per_client=2, seed=5),
        )
        report = run_session(config, obs=Telemetry.collecting())
        assert report.slo["compliant"] is True
        assert report.flight["dumps"] == 0
