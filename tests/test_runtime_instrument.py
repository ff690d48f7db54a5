"""Tests for the run-report instrumentation (repro.runtime.instrument)."""

import json
from datetime import datetime, timezone

import pytest

from repro.obs import Telemetry, scrub, span_problems
from repro.runtime import ExperimentRuntime, SeriesSpec
from repro.runtime.instrument import PhaseRecord, RunReport
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import assign_isds, generate_core_mesh


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

    def test_shard_count_recorded(self):
        report = RunReport(shards=4)
        assert report.to_dict()["shards"] == 4
        assert RunReport().to_dict()["shards"] == 1


def _series_specs():
    """A small ISD-annotated mesh so ``shards=4`` gets a real 4-way
    ISD-atomic partition rather than the degree fallback."""
    topo = generate_core_mesh(12, mean_degree=3.0, seed=5)
    assign_isds(topo, 4)
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
                name="diversity", algorithm="diversity", config=config
            ),
        ),
    ]


class TestShardsDeterminism:
    """Sharded telemetry acceptance: the merged registry of a
    ``--shards 4`` run (every shard writes into the one registry) is
    byte-identical to the single-process ``--shards 1`` run."""

    @staticmethod
    def _run(shards):
        tel = Telemetry.collecting()
        runtime = ExperimentRuntime(jobs=1, shards=shards, telemetry=tel)
        runtime.report.experiment = "det"
        runtime.run(_series_specs())
        return tel, runtime

    def test_metrics_snapshot_byte_identical_across_shards(self):
        tel1, rt1 = self._run(1)
        tel4, rt4 = self._run(4)
        assert tel1.metrics.to_json() == tel4.metrics.to_json()
        assert tel1.metrics.counter_totals()["beaconing.intervals"] > 0
        assert rt1.report.counters == rt4.report.counters
        assert rt4.report.shards == 4
        # One span stream: the single-process run's, plus one joining
        # span per shard — the coordinator records each interval once.
        spans1 = scrub(tel1.causal.stitched())
        spans4 = scrub(tel4.causal.stitched())
        assert span_problems(spans4) == []
        assert spans1 == [s for s in spans4 if s["cat"] != "shard"]
        assert sum(s["cat"] == "shard" for s in spans4) == 4 * 2

    def test_sharded_outcomes_unchanged_without_telemetry(self):
        plain = ExperimentRuntime(jobs=1).run(_series_specs())
        sharded = ExperimentRuntime(jobs=1, shards=4).run(_series_specs())
        for a, b in zip(
            (o.result for o in plain), (o.result for o in sharded)
        ):
            assert a.total_pcbs == b.total_pcbs
            assert a.total_bytes == b.total_bytes
            assert a.received_bytes == b.received_bytes
            assert a.intervals_run == b.intervals_run
