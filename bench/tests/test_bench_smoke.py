"""Smoke test of the benchmark itself, at one-tenth size.

Run with ``python -m pytest bench/tests -q`` (outside the tier-1
``testpaths``). Every workload is run traced and untraced through the
command line, exactly as the driver does, and must emit every metric the
catalogue declares for it.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import catalogue  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = str(catalogue.RUN_SECONDS / 10)


def bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_is_the_catalogue_and_fits_the_contract():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert declared == catalogue.benchmark_json()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert all(
        UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        for m in declared["end_to_end"] + declared["per_layer"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["per_layer"]) <= 128


def test_surface_resolves():
    done = bench("--check-surface")
    assert done.returncode == 0, done.stderr
    assert "symbols resolve" in done.stdout


@pytest.mark.parametrize("workload", sorted(catalogue.WORKLOADS))
def test_traced_run_emits_every_declared_metric(workload, tmp_path):
    out = tmp_path / "result.json"
    done = bench(
        "--workload", workload, "--seconds", SECONDS, "--trace", "1",
        "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in catalogue.PER_LAYER]

    result = json.loads(out.read_text())
    assert result["schema"] == catalogue.SCHEMA
    expected = {
        m["name"]
        for m in catalogue.END_TO_END + catalogue.PER_LAYER
        if workload in m["workloads"]
    }
    assert expected <= set(result["metrics"]), expected - set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalogue.METRICS[name]["unit"]
    assert result["metrics"]["trace.self_sum_ratio"]["value"] == pytest.approx(
        1.0, abs=0.05
    )
    assert result["spans"]["spans"] and result["host"]["calib_ops_per_s"] > 0


@pytest.mark.parametrize("workload", sorted(catalogue.WORKLOADS))
def test_untraced_run_prints_the_end_to_end_metrics(workload, tmp_path):
    outs = []
    for index in range(2):
        outs.append(tmp_path / f"{index}.json")
        done = bench(
            "--workload", workload, "--seconds", SECONDS, "--trace", "0",
            "--seed", "11", "--out", str(outs[-1]),
        )
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"]
        assert list(last["metrics"]) == [m["name"] for m in catalogue.END_TO_END]
        assert all(m["value"] > 0 for m in last["metrics"].values())
    first, second = (json.loads(path.read_text()) for path in outs)
    assert first["counts"] == second["counts"]
    assert first["ops_attempted"] == second["ops_attempted"]
    compared = subprocess.run(
        [sys.executable, "bench/compare.py", str(outs[0]), "--", str(outs[1])],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    assert "identical per seed" in compared.stdout, compared.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = bench("--workload", "figures_test", "--seconds", SECONDS, cwd=tmp_path)
    assert done.returncode != 0
    assert "bench surface" in done.stderr
    assert not done.stdout.strip().startswith("{")
