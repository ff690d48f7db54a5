"""``tools/bench_record.py``: the one row writer, the parent it runs beside
the change, and the gate on those pairs, which is ``bench/compare.py``
itself.

Canned result dicts everywhere but one real ``bench/run.py`` run, which
proves a trimmed result still holds every key ``compare.py`` reads, and a
throwaway git repository for the parent's derivation.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

HOST = {"machine": "x86_64", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}


def canned_run(seed, work_s, trace=False, rss=97.7):
    def metric(value, unit, kind):
        return {"value": value, "unit": unit, "kind": kind}

    return {
        "seed": seed,
        "size": 1.0,
        "trace": trace,
        "metrics": {
            "setup_s": metric(0.70 + 0.01 * seed, "s", "end_to_end"),
            "work_s": metric(work_s, "s", "end_to_end"),
            "peak_rss_mb": metric(rss, "MiB", "end_to_end"),
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
    """``bench/compare.py`` itself resolves three runs a side: a
    regression at ``work_s``'s bound still fails there."""
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


def record(monkeypatch, tmp_path, history=(), **change):
    """``bench_record.main`` on five seeds of ``endpoint_stack`` with
    ``run_once`` canned per tree: the change's runs read ``change``
    (``work_s`` scale, ``rss``) where the parent's read the defaults.
    Returns the exit status, the row appended and the sides in run
    order."""
    parent_tree = tmp_path / "parent"
    path = tmp_path / "BENCH_endpoint_stack.json"
    for row in history:
        bench_record.append_row(path, row)
    order = []

    def run_once(tree, workload, seed, seconds, trace):
        side = "parent" if tree == parent_tree else "change"
        order.append(side)
        scale = change.get("scale", 1.0) if side == "change" else 1.0
        rss = change.get("rss", 97.7) if side == "change" else 97.7
        run = canned_run(seed, scale * (4.6 + 0.02 * seed), bool(trace), rss)
        return {"schema": "repro-bench/1", "workload": workload,
                "host": dict(HOST), **run}

    monkeypatch.setattr(bench_record, "trajectory", lambda w: tmp_path / f"BENCH_{w}.json")
    monkeypatch.setattr(bench_record, "parent_commit", lambda root: "abc1234")
    monkeypatch.setattr(bench_record, "unpack", lambda commit, into: parent_tree)
    monkeypatch.setattr(bench_record, "check_surface", lambda *args: None)
    monkeypatch.setattr(bench_record, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_record, "run_once", run_once)
    status = bench_record.main(
        ["--workload", "endpoint_stack", "--seeds", "5", "--seconds", "16"]
    )
    return status, bench_record.read_rows(path)[-1], order


def gate_lines(out):
    """The verdict lines of the paired gate (the drift report precedes it)."""
    _, gated = out.split("endpoint_stack: gated against parent abc1234")
    return {line.split()[0]: line for line in gated.splitlines() if line.strip()}


@pytest.mark.parametrize("scale, status", [(1.5, 1), (1.0, 0)])
def test_the_paired_gate_reads_the_parent_not_the_history(
    monkeypatch, tmp_path, capfd, scale, status
):
    """Rows ten times faster and ten times slower are on file; the verdict
    is the change against its parent's runs all the same."""
    history = [canned_row(scale=0.1, label="fast"), canned_row(scale=10.0, label="slow")]
    got, row, order = record(monkeypatch, tmp_path, history, scale=scale)
    assert got == status
    out = capfd.readouterr().out
    assert "drift against abc1234 'slow', a report, not gated" in out
    verdict = gate_lines(out)["work_s"]
    assert verdict.endswith("REGRESSION" if status else ": ok")

    # Pairs back to back, the first side alternating by seed, then the
    # traced run on the change side.
    assert order == ["parent", "change", "change", "parent"] * 2 + [
        "parent", "change", "change"
    ]
    assert row["parent"]["commit"] == "abc1234"
    assert row["parent"]["summary"]["work_s"]["median"] == pytest.approx(4.66)
    # The parent's runs are kept too, so a row's pairs can be re-gated.
    assert [r["seed"] for r in row["parent"]["runs"]] == [1, 2, 3, 4, 5]
    assert row["summary"]["work_s"]["median"] == pytest.approx(scale * 4.66)
    assert [(r["seed"], r["trace"]) for r in row["runs"]] == [
        (1, False), (2, False), (3, False), (4, False), (5, False), (1, True)
    ]


def test_a_change_that_gives_back_memory_fails_the_paired_gate(
    monkeypatch, tmp_path, capfd
):
    """Peak RSS from 97.7 back up to 108 MiB (+10.5 %) fails at equal
    timings, as giving back a measured memory gain must."""
    status, row, _ = record(monkeypatch, tmp_path, rss=108.0)
    assert status == 1
    regressed = [
        name for name, line in gate_lines(capfd.readouterr().out).items()
        if line.endswith("REGRESSION")
    ]
    assert regressed == ["peak_rss_mb"]
    assert row["summary"]["peak_rss_mb"]["median"] == 108.0


def git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.strip()


def commit_file(root, text):
    (root / "src").mkdir(exist_ok=True)
    (root / "src" / "module.py").write_text(text)
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", text)


def test_the_parent_is_head_for_a_dirty_tree_and_head_parent_for_a_clean_one(
    tmp_path,
):
    git(tmp_path, "init", "-q")
    commit_file(tmp_path, "x = 1\n")
    commit_file(tmp_path, "x = 2\n")
    (tmp_path / "notes.txt").write_text("outside src/ and bench/\n")
    assert bench_record.parent_commit(tmp_path) == git(
        tmp_path, "rev-parse", "--short", "HEAD^"
    )
    (tmp_path / "src" / "module.py").write_text("x = 3\n")
    assert bench_record.parent_commit(tmp_path) == git(
        tmp_path, "rev-parse", "--short", "HEAD"
    )


def test_a_missing_parent_exits_2_before_measuring(tmp_path, capfd):
    """A clean tree whose ``HEAD^`` is absent, as in a one-commit-deep
    clone."""
    git(tmp_path, "init", "-q")
    commit_file(tmp_path, "x = 1\n")
    with pytest.raises(SystemExit) as refused:
        bench_record.parent_commit(tmp_path)
    assert refused.value.code == 2
    assert capfd.readouterr().err.startswith("PARENT HEAD^: does not resolve")


def test_a_bench_the_parent_cannot_resolve_exits_2_before_measuring(
    monkeypatch, tmp_path, capfd
):
    parent_tree = tmp_path / "parent"
    (parent_tree / "bench").mkdir(parents=True)
    (parent_tree / "bench" / "run.py").write_text(
        "raise ImportError(\"cannot import name 'new_symbol' from 'repro.core'\")\n"
    )
    monkeypatch.setattr(bench_record, "parent_commit", lambda root: "abc1234")
    monkeypatch.setattr(bench_record, "unpack", lambda commit, into: parent_tree)

    def run_once(*args):
        raise AssertionError("measured before the surface check")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    with pytest.raises(SystemExit) as refused:
        bench_record.main(["--workload", "endpoint_stack"])
    assert refused.value.code == 2
    err = capfd.readouterr().err
    assert err.startswith("PARENT abc1234: bench/run.py --check-surface fails "
                          "in the parent tree: ImportError: cannot import name "
                          "'new_symbol'")


@pytest.mark.parametrize(
    "args", [["--seeds", "3"], ["--seconds", "4"], ["--seeds", "4", "--seconds", "8"]]
)
def test_too_few_or_too_small_runs_are_refused_before_measuring(
    monkeypatch, tmp_path, capfd, args
):
    """Three quarter-size pairs read host noise as a regression: a row
    needs five seeds at full size, or nothing runs and nothing is written."""

    def measured(*args):
        raise AssertionError("measured a run the gate refuses")

    monkeypatch.setattr(bench_record, "trajectory", lambda w: tmp_path / f"BENCH_{w}.json")
    for name in ("parent_commit", "unpack", "check_surface", "run_once"):
        monkeypatch.setattr(bench_record, name, measured)
    assert bench_record.main(["--workload", "endpoint_stack", *args]) == 2
    err = capfd.readouterr().err
    assert err.startswith("REFUSED: ") and "too small to gate or record" in err
    assert f"at least {bench_record.MIN_SEEDS} seeds" in err
    assert "--seconds 16 or more" in err
    assert list(tmp_path.iterdir()) == []


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
    result = bench_record.run_once(bench_record.ROOT, "endpoint_stack", 1, 0.5, 0)
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


def test_both_trees_are_compiled_before_timing(tmp_path):
    """``setup_s`` imports the package: every module of both trees has
    bytecode before the first timed run, whatever the trees held."""
    tree = tmp_path / "tree"
    for name in ("src/pkg/mod.py", "src/pkg/__init__.py", "bench/run.py"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("X = 1\n")
    bench_record.compile_tree(tree)
    assert sorted(path.parent.parent.name for path in tree.rglob("*.pyc")) == [
        "bench", "pkg", "pkg",
    ]
