"""Tests for the run-report instrumentation (repro.runtime.instrument)."""

import json
from datetime import datetime, timezone

import pytest

from repro.runtime.instrument import PhaseRecord, RunReport


class TestPhase:
    def test_phase_records_time_and_counters(self):
        report = RunReport(experiment="e")
        with report.phase("build") as record:
            record.counters["items"] = 3
        assert report.find("build") is record
        assert record.seconds >= 0
        assert record.counters == {"items": 3}

    def test_phase_records_on_exception(self):
        """A phase that raises must still land in the report — otherwise
        the timing table silently loses the most interesting phase."""
        report = RunReport()
        with pytest.raises(RuntimeError):
            with report.phase("explodes"):
                raise RuntimeError("boom")
        assert report.find("explodes") is not None
        assert report.phases[0].seconds >= 0

    def test_cached_flag_and_queries(self):
        report = RunReport()
        report.add_phase("a", 1.0, cached=True)
        report.add_phase("b", 2.0, counters={"n": 5.0})
        assert report.cached_phases() == ["a"]
        assert report.total_seconds == pytest.approx(3.0)
        assert report.find("b").counters == {"n": 5.0}


class TestToDict:
    def test_round_trip(self):
        report = RunReport(experiment="figure5", scale="test", jobs=2)
        report.add_phase("build", 1.5, cached=True, counters={"pcbs": 10.0})
        report.counters = {"beaconing.intervals": 4.0}
        data = json.loads(json.dumps(report.to_dict()))
        assert data["experiment"] == "figure5"
        assert data["scale"] == "test"
        assert data["jobs"] == 2
        assert data["total_seconds"] == pytest.approx(1.5)
        assert data["counters"] == {"beaconing.intervals": 4.0}
        phase = data["phases"][0]
        assert phase == {
            "name": "build",
            "seconds": 1.5,
            "cached": True,
            "counters": {"pcbs": 10.0},
        }

    def test_started_at_is_iso8601_utc(self):
        """Satellite acceptance: started_at is included and parses back to
        the recorded epoch timestamp, in UTC."""
        report = RunReport()
        report.started_at = 1700000000.0
        stamp = report.to_dict()["started_at"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.tzinfo is not None
        assert parsed.utcoffset().total_seconds() == 0
        assert parsed == datetime.fromtimestamp(1700000000.0, tz=timezone.utc)
        assert stamp == "2023-11-14T22:13:20+00:00"

    def test_phase_record_to_dict_rounds(self):
        record = PhaseRecord(name="p", seconds=0.123456789)
        assert record.to_dict()["seconds"] == 0.123457
