"""``tools/bench_record.py``: the one row writer, the baseline choice and
the gate, which is ``bench/compare.py`` itself.

Canned result dicts everywhere but one real ``bench/run.py`` run, which
proves a trimmed result still holds every key ``compare.py`` reads.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

HOST = {"machine": "x86_64", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}


def canned_run(seed, work_s, trace=False):
    def metric(value, unit, kind):
        return {"value": value, "unit": unit, "kind": kind}

    return {
        "seed": seed,
        "size": 1.0,
        "trace": trace,
        "metrics": {
            "setup_s": metric(0.70 + 0.01 * seed, "s", "end_to_end"),
            "work_s": metric(work_s, "s", "end_to_end"),
            "peak_rss_mb": metric(97.7, "MiB", "end_to_end"),
            "lookups_per_s": metric(43000.0 / work_s, "1/s", "stage"),
        },
        "counts": {"forward.flows": 9864},
        "failed_ratio": 0.0,
    }


def canned_row(scale=1.0, host=HOST, **fields):
    row = {
        "schema": "repro-bench/1",
        "workload": "endpoint_stack",
        "commit": "abc1234",
        "label": "canned",
        "recorded_at": "2026-10-01T00:00:00Z",
        "backfilled": False,
        "host": dict(host),
        "runs": [
            canned_run(seed, scale * (4.6 + 0.02 * seed)) for seed in range(1, 6)
        ],
    }
    row.update(fields)
    return row


def test_row_round_trips_through_compare_and_reads_ok_against_itself(
    tmp_path, capfd
):
    path = tmp_path / "BENCH_endpoint_stack.json"
    bench_record.append_row(path, canned_row())
    bench_record.append_row(path, canned_row(label="second"))
    rows = bench_record.read_rows(path)
    assert [row["label"] for row in rows] == ["canned", "second"]
    assert not list(tmp_path.glob("*.tmp"))

    assert bench_record.gate(rows[0], rows[1]) == 0
    out = capfd.readouterr().out
    assert "endpoint_stack (size 1, untraced; 5 vs 5 runs)" in out
    for name in ("setup_s", "work_s", "peak_rss_mb", "lookups_per_s"):
        (line,) = [l for l in out.splitlines() if l.split()[:1] == [name]]
        assert line.endswith(": ok")
    assert "exact counts: identical per seed" in out


def test_doubled_work_s_fails_the_gate(capfd):
    assert bench_record.gate(canned_row(), canned_row(scale=2.0)) == 1
    out = capfd.readouterr().out
    (line,) = [l for l in out.splitlines() if l.split()[:1] == ["work_s"]]
    assert line.endswith("REGRESSION")


def test_a_25_percent_work_s_regression_fails_the_gate_on_three_runs(capfd):
    """CI gates on ``--seeds 3``: three runs a side must still resolve a
    regression at ``work_s``'s bound."""
    before, after = canned_row(), canned_row(scale=1.25)
    before["runs"], after["runs"] = before["runs"][:3], after["runs"][:3]
    assert bench_record.gate(before, after) == 1
    out = capfd.readouterr().out
    assert "3 vs 3 runs" in out
    (line,) = [l for l in out.splitlines() if l.split()[:1] == ["work_s"]]
    assert line.endswith("REGRESSION")


@pytest.mark.parametrize(
    "content", ['[{"schema": "repro-bench/1"', '{"rows": []}', "[1, 2]"]
)
def test_corrupt_trajectory_is_refused_and_left_untouched(tmp_path, content):
    path = tmp_path / "BENCH_endpoint_stack.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as refused:
        bench_record.append_row(path, canned_row())
    assert str(path) in str(refused.value)
    assert path.read_text() == content
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_baseline_is_the_last_measured_same_host_same_size_row():
    measured = canned_row(label="measured")
    rows = [
        measured,
        canned_row(label="backfilled", backfilled=True),
        canned_row(label="other nproc", host={**HOST, "nproc": 4}),
        canned_row(label="other python", host={**HOST, "python": "3.10.12"}),
        canned_row(label="other machine", host={**HOST, "machine": "aarch64"}),
    ]
    assert bench_record.baseline(rows, HOST, 1.0) is measured
    # A patch release of the same minor is the same host.
    assert bench_record.baseline(
        rows, {**HOST, "python": "3.11.9"}, 1.0
    ) is measured
    assert bench_record.baseline(rows, HOST, 0.25) is None
    assert bench_record.baseline(rows[1:], HOST, 1.0) is None
    traced_only = canned_row()
    for run in traced_only["runs"]:
        run["trace"] = True
    assert bench_record.baseline([traced_only], HOST, 1.0) is None


def test_baseline_prefers_the_last_quiet_row_and_says_when_it_falls_back(
    capfd,
):
    """A row recorded at a 1-minute load of 1.0 or more is side A only
    when no quiet same-host row exists, and the fallback is announced."""
    quiet = canned_row(label="quiet", host={**HOST, "loadavg_1m_start": 0.72})
    loaded = canned_row(label="loaded", host={**HOST, "loadavg_1m_start": 1.38})
    assert bench_record.baseline([quiet, loaded], HOST, 1.0) is quiet
    assert "NO QUIET BASELINE" not in capfd.readouterr().out
    # The threshold itself counts as loaded.
    edge = canned_row(label="edge", host={**HOST, "loadavg_1m_start": 1.0})
    assert bench_record.baseline([quiet, edge], HOST, 1.0) is quiet
    capfd.readouterr()

    assert bench_record.baseline([edge, loaded], HOST, 1.0) is loaded
    out = capfd.readouterr().out
    assert "NO QUIET BASELINE" in out and "at 1.38" in out


def with_peak_rss(row, mib):
    for run in row["runs"]:
        run["metrics"]["peak_rss_mb"]["value"] = mib
    return row


def test_a_newer_loaded_row_still_gates_memory(capfd):
    """A loaded row after the quiet baseline is a second side A: giving
    back its peak RSS fails even though the quiet row would pass it."""
    quiet = canned_row(label="quiet", host={**HOST, "loadavg_1m_start": 0.72})
    loaded = with_peak_rss(canned_row(
        scale=1.3, label="loaded", host={**HOST, "loadavg_1m_start": 1.38}
    ), 80.0)

    assert bench_record.gate_history([quiet, loaded], canned_row(), 1.0) == 1
    out = capfd.readouterr().out
    assert "side A is abc1234 'quiet'" in out
    assert "side A is also the newest row, abc1234 'loaded'" in out
    (regressed,) = [
        l for l in out.splitlines() if l.endswith("REGRESSION")
    ]
    assert regressed.split()[0] == "peak_rss_mb"

    kept = with_peak_rss(canned_row(), 80.0)
    assert bench_record.gate_history([quiet, loaded], kept, 1.0) == 0
    assert "REGRESSION" not in capfd.readouterr().out

    # The quiet row is the newest: one gate.
    assert bench_record.gate_history([loaded, quiet], canned_row(), 1.0) == 0
    out = capfd.readouterr().out
    assert "side A is abc1234 'quiet'" in out and "also" not in out
    assert bench_record.gate_history([], canned_row(), 1.0) == 0
    assert "NO BASELINE: recorded only" in capfd.readouterr().out


def test_a_row_recorded_under_load_is_flagged(capfd):
    bench_record.warn_if_loaded(
        canned_row(host={**HOST, "loadavg_1m_start": 0.99})
    )
    bench_record.warn_if_loaded(canned_row())  # no reading: not flagged
    assert capfd.readouterr().out == ""
    bench_record.warn_if_loaded(
        canned_row(host={**HOST, "loadavg_1m_start": 1.41})
    )
    out = capfd.readouterr().out
    assert out.startswith("WARNING: endpoint_stack recorded at a load")
    assert "1.41" in out


def test_summary_is_median_and_quartiles_of_the_untraced_runs():
    row = canned_row()
    row["runs"].append(canned_run(1, 99.0, trace=True))
    summary = bench_record.summarise(row["runs"])
    assert summary["work_s"]["unit"] == "s"
    assert summary["work_s"]["median"] == pytest.approx(4.66)
    assert summary["work_s"]["q1"] < 4.66 < summary["work_s"]["q3"] < 5.0


def test_numpy_floor_reads_the_traced_run(capfd):
    traced = canned_run(1, 2.3, trace=True)
    traced["metrics"]["packets_per_s_train"] = {"value": 8.0e4, "unit": "1/s"}
    traced["metrics"]["kernels.numpy.packets_per_s_train"] = {
        "value": 4.0e6, "unit": "1/s",
    }
    assert bench_record.numpy_floor([canned_run(1, 4.6), traced]) == 0
    assert "50.00x" in capfd.readouterr().out
    slow = copy.deepcopy(traced)
    slow["metrics"]["kernels.numpy.packets_per_s_train"]["value"] = 2.0e5
    assert bench_record.numpy_floor([slow]) == 1
    assert "BELOW FLOOR" in capfd.readouterr().out


def test_trimmed_real_run_keeps_every_key_compare_reads(capfd):
    result = bench_record.run_once("endpoint_stack", 1, 0.5, 0)
    assert result["failed_ratio"] == 0.0
    row = bench_record.new_row("endpoint_stack", "real", result["host"])
    assert row["schema"] == result["schema"]
    assert "samples" not in row["host"] and row["host"]["nproc"] >= 1
    row["runs"] = [{k: result[k] for k in bench_record.KEPT}]
    row = json.loads(json.dumps(row))
    assert bench_record.baseline([row], result["host"], result["size"]) is row
    assert bench_record.gate(row, row) == 0
    out = capfd.readouterr().out
    assert "work_s" in out and "failed_ratio" in out
    assert "exact counts: identical per seed" in out
