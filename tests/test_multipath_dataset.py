"""Tests for the dataset exporter (repro.multipath.dataset) and the
multipath experiment acceptance contract."""

import hashlib
import json
import os
import pickle
import tracemalloc

import pytest

from repro.control.network import ScionNetwork
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.multipath.churn import ChurnConfig, ChurnDriver
from repro.multipath.dataset import (
    DATASET_FIELDS,
    SCHEMA_VERSION,
    DatasetError,
    validate_dataset,
    write_dataset,
)


@pytest.fixture(scope="module")
def topology():
    return build_full_stack_topology(TEST_SCALE, leaves_per_core=2)


@pytest.fixture(scope="module")
def network(topology):
    return ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=TEST_SCALE.core_beaconing_config(5),
        intra_config=TEST_SCALE.intra_isd_config(5),
    ).run()


@pytest.fixture(scope="module")
def result(network):
    return ChurnDriver(
        network, ChurnConfig(num_intervals=40, num_pairs=3, seed=7), name="run"
    ).run()


def _reseal_csv(directory):
    """Rewrite the manifest's digest, size and dataset id to match an
    edited ``series.csv``, as a careless or hostile producer would."""
    table = directory / "series.csv"
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    files = manifest["files"]
    files["series.csv"]["sha256"] = hashlib.sha256(
        table.read_bytes()
    ).hexdigest()
    files["series.csv"]["bytes"] = table.stat().st_size
    manifest["dataset_id"] = hashlib.sha256(
        ";".join(
            f"{name}:{entry['sha256']}"
            for name, entry in sorted(files.items())
        ).encode("ascii")
    ).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


class TestWriteValidate:
    def test_roundtrip(self, result, tmp_path):
        manifest = write_dataset(result, str(tmp_path))
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert validate_dataset(str(tmp_path)) == manifest
        for name in (
            "series.jsonl", "series.csv", "paths.json", "manifest.json"
        ):
            assert (tmp_path / name).exists()

    def test_export_is_byte_deterministic(self, result, tmp_path):
        a = write_dataset(result, str(tmp_path / "a"))
        b = write_dataset(result, str(tmp_path / "b"))
        assert a["dataset_id"] == b["dataset_id"]
        for name in ("series.jsonl", "series.csv", "paths.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_rows_follow_schema(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        names = [name for name, _, _ in DATASET_FIELDS]
        with open(tmp_path / "series.jsonl") as handle:
            first = json.loads(next(handle))
        assert list(first) == names
        assert first["run"] == "run"
        assert first["strategy"] == result.strategy
        # CSV header matches the schema too.
        with open(tmp_path / "series.csv") as handle:
            assert handle.readline().strip().split(",") == names

    def test_paths_table_joins_rows(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        with open(tmp_path / "paths.json") as handle:
            table = json.load(handle)
        assert set(table) == set(result.paths)
        with open(tmp_path / "series.jsonl") as handle:
            row_ids = {json.loads(line)["path_id"] for line in handle}
        assert row_ids <= set(table)

    def test_tampered_file_detected(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        series = tmp_path / "series.jsonl"
        content = series.read_text()
        series.write_text(content.replace(":0,", ":1,", 1))
        with pytest.raises(DatasetError, match="sha256 mismatch|byte count"):
            validate_dataset(str(tmp_path))

    def test_csv_row_count_checked(self, result, tmp_path):
        """A CSV short of one row, with its digest, size and the dataset
        id rewritten to match, still fails: on its row count."""
        write_dataset(result, str(tmp_path))
        table = tmp_path / "series.csv"
        table.write_bytes(
            b"".join(table.read_bytes().splitlines(keepends=True)[:-1])
        )
        _reseal_csv(tmp_path)
        with pytest.raises(DatasetError, match="series.csv: row count"):
            validate_dataset(str(tmp_path))

    def test_csv_values_checked(self, result, tmp_path):
        """A CSV row that disagrees with its JSONL row, resealed, fails
        naming the file, the row and the first field that differs."""
        write_dataset(result, str(tmp_path))
        table = tmp_path / "series.csv"
        header, first, rest = table.read_text().split("\n", 2)
        assert first.startswith("run,")
        table.write_text("\n".join([header, "nur" + first[3:], rest]))
        _reseal_csv(tmp_path)
        with pytest.raises(
            DatasetError,
            match="series.csv: row 1: field 'run' = 'nur' != 'run'",
        ):
            validate_dataset(str(tmp_path))

    def test_csv_header_checked(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        table = tmp_path / "series.csv"
        table.write_text(table.read_text().replace("run,", "nur,", 1))
        _reseal_csv(tmp_path)
        with pytest.raises(DatasetError, match="series.csv: header"):
            validate_dataset(str(tmp_path))

    def test_wrong_schema_version_detected(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="schema_version"):
            validate_dataset(str(tmp_path))

    def test_missing_file_detected(self, result, tmp_path):
        write_dataset(result, str(tmp_path))
        os.remove(tmp_path / "paths.json")
        with pytest.raises(DatasetError, match="unreadable dataset file"):
            validate_dataset(str(tmp_path))

    def test_duplicate_run_names_rejected(self, result, tmp_path):
        with pytest.raises(ValueError, match="duplicate run names"):
            write_dataset([result, result], str(tmp_path))

    def test_multi_run_export(self, result, tmp_path):
        import dataclasses

        other = dataclasses.replace(result, name="other")
        manifest = write_dataset([result, other], str(tmp_path))
        assert [run["name"] for run in manifest["runs"]] == ["run", "other"]
        assert manifest["files"]["series.jsonl"]["rows"] == 2 * len(
            result.rows
        )
        validate_dataset(str(tmp_path))


class TestStreaming:
    def _peak_and_size(self, network, intervals, directory):
        """tracemalloc's peak over one export and its validation, and the
        bytes the three data files take."""
        churn = ChurnDriver(
            network,
            ChurnConfig(num_intervals=intervals, num_pairs=3, seed=7),
            name="run",
        ).run()
        tracemalloc.start()
        try:
            manifest = write_dataset(churn, directory)
            validate_dataset(directory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(entry["bytes"] for entry in manifest["files"].values())

    def test_peak_does_not_grow_with_the_horizon(self, network, tmp_path):
        """Files are written and read in a stream, never held whole: four
        times the horizon grows the files at least threefold but the peak
        by less than half."""
        peak, size = self._peak_and_size(network, 50, str(tmp_path / "1x"))
        long_peak, long_size = self._peak_and_size(
            network, 200, str(tmp_path / "4x")
        )
        assert long_size >= 3 * size
        assert long_peak < 1.5 * peak, (peak, long_peak)


class TestAcceptance:
    """ISSUE acceptance: a 500-interval weighted-ecmp k=3 churn run
    produces a schema-valid dataset that replays byte-identically across
    --jobs 1 vs --jobs N, with aggregate goodput >= the single-path
    baseline on the same seed. The dataset is a function of the pickled
    results, so ``test_multipath_churn.py::test_backends_byte_identical``
    covers the numpy backend."""

    def _run(self, jobs, dataset_dir):
        from repro.experiments.multipath import run_multipath
        from repro.runtime import ExperimentRuntime

        return run_multipath(
            TEST_SCALE,
            runtime=ExperimentRuntime(jobs=jobs),
            strategy="weighted-ecmp",
            k_paths=3,
            num_intervals=500,
            dataset_out=dataset_dir,
        )

    def test_500_interval_acceptance(self, tmp_path):
        reference = self._run(1, str(tmp_path / "j1"))
        manifest = validate_dataset(str(tmp_path / "j1"))
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert any(
            run["num_intervals"] == 500 for run in manifest["runs"]
        )

        # Goodput: the k=3 split beats the single-path baseline.
        assert (
            reference.chosen().aggregate_goodput_bps()
            >= reference.baseline().aggregate_goodput_bps()
        )
        assert reference.goodput_gain() >= 1.0

        # jobs-N: pickle-identical results, byte-identical dataset.
        parallel = self._run(2, str(tmp_path / "j2"))
        for name, run in reference.results.items():
            assert pickle.dumps(run) == pickle.dumps(
                parallel.results[name]
            ), f"{name} differs between jobs=1 and jobs=2"
        assert (
            validate_dataset(str(tmp_path / "j2"))["dataset_id"]
            == manifest["dataset_id"]
        )
