"""``tools/scale_record.py``: one 8-core point measured in a process of its
own, the ``repro-bench/1`` row it becomes, the point cache a rerun
resumes from instead of measuring again, and a sweep's alternating
repeats with their medians."""

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


def test_a_sweep_alternates_the_trees_and_its_rows_read_the_medians(
    monkeypatch,
):
    calls = []

    def canned(tree, cores, algorithm, cache_dir=None, repeat=0):
        calls.append((tree, cores, algorithm, repeat))
        # The parent reads twice the change's seconds, the host's swing
        # reorders the repeats, and baseline sends five times diversity.
        seconds = [0.5, 0.1, 0.3, 0.9, 0.2][repeat]
        return {
            "cores": cores, "algorithm": algorithm,
            "interval_s": seconds * (2 if tree == "parent-tree" else 1),
            "wave_interval_s": None if algorithm == "baseline" else seconds,
            "pcbs": 100 if algorithm == "baseline" else 20,
            "bytes": 900 if algorithm == "baseline" else 300,
            "peak_rss_mb": 50.0 + repeat,
        }

    monkeypatch.setattr(scale_record, "point", canned)
    monkeypatch.setattr(scale_record, "CORES", (8,))
    points = scale_record.sweep(
        {"parent": "parent-tree", "change": "change-tree"}
    )
    repeats = range(scale_record.REPEATS)
    assert calls == [
        (tree, 8, algorithm, repeat)
        for algorithm in scale_record.ALGORITHMS
        for repeat in repeats
        for tree in ("parent-tree", "change-tree")
    ]
    rows = scale_record.rows(
        points, {"parent": "abc1234", "change": "def5678"}, "canned", {}
    )
    by_point = {(row["side"], row["algorithm"]): row for row in rows}
    parent, change = by_point["parent", "baseline"], by_point["change", "baseline"]
    assert (parent["interval_s"], change["interval_s"]) == (0.6, 0.3)
    assert parent["peak_rss_mb"] == 52.0 and parent["pcbs"] == 100
    assert parent["wave_interval_s"] is None
    assert by_point["change", "diversity"]["wave_interval_s"] == 0.3
    assert (change["gain_pcbs"], change["gain_bytes"]) == (5.0, 3.0)
    # Every run is kept, in the order it ran.
    assert [run["interval_s"] for run in change["runs"]] == [
        0.5, 0.1, 0.3, 0.9, 0.2,
    ]
    assert [run["peak_rss_mb"] for run in parent["runs"]] == [
        50.0 + repeat for repeat in repeats
    ]
