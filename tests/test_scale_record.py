"""``tools/scale_record.py``: one 8-core point measured in a process of its
own, the ``repro-bench/1`` row it becomes, and the point cache a rerun
resumes from instead of measuring again."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import scale_record  # noqa: E402


def test_an_eight_core_point_is_a_row_and_a_rerun_reads_it(
    tmp_path, monkeypatch
):
    measured = scale_record.point(ROOT, 8, "baseline", tmp_path)
    assert (measured["cores"], measured["algorithm"]) == (8, "baseline")
    assert measured["intervals"] == 2 * measured["period"] == 60
    # The measured period of a cold start at the paper's timing.
    assert (measured["pcbs"], measured["bytes"]) == (103440, 38438400)
    # The baseline sends the same every steady-state interval: no wave.
    assert measured["wave_intervals"] == 0
    assert measured["wave_interval_s"] is None
    assert measured["quiet_interval_s"] == measured["interval_s"] > 0
    assert 0 < measured["interface_bytes_median"]
    assert measured["interface_bytes_median"] <= measured["interface_bytes_p95"]
    assert measured["peak_rss_mb"] > 0

    (row,) = scale_record.rows(
        {("change", 8, "baseline"): measured}, {"change": "abc1234"},
        "canned", scale_record.host(),
    )
    assert (row["schema"], row["workload"]) == ("repro-bench/1", "scale")
    assert (row["commit"], row["side"], row["label"]) == (
        "abc1234", "change", "canned",
    )
    assert row["backfilled"] is False and row["host"]["nproc"]
    assert {key: row[key] for key in measured} == measured
    assert "gain_pcbs" not in row  # no diversity point to divide by

    def measure_again(*args, **kwargs):
        raise AssertionError("a cached point was measured again")

    monkeypatch.setattr(scale_record.subprocess, "run", measure_again)
    assert scale_record.point(ROOT, 8, "baseline", tmp_path) == measured
    assert len(list(tmp_path.glob("scale-*.json"))) == 1


def test_rows_carry_the_gain_of_their_side_and_core_count():
    points = {
        ("parent", 16, "baseline"): {"pcbs": 100, "bytes": 900},
        ("parent", 16, "diversity"): {"pcbs": 20, "bytes": 300},
        ("parent", 32, "baseline"): {"pcbs": 500, "bytes": 800},
    }
    rows = scale_record.rows(points, {"parent": "abc1234"}, "", {})
    assert [(r["gain_pcbs"], r["gain_bytes"]) for r in rows[:2]] == [
        (5.0, 3.0), (5.0, 3.0),
    ]
    assert "gain_pcbs" not in rows[2]
