"""The experiments CLI is a generic driver over one registry.

Parser shape (every entry builds, foreign flags are errors, defaults come
from the config dataclasses, aliases and ``all`` derive from the
entries), the ``--obs-dir`` bundle on both the ``serve`` and the runtime
path, and the three failures PR 20 fixed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import ALL, REGISTRY, build_parser, main
from repro.experiments.config import SCALES, TEST_SCALE, get_scale, scale_preset
from repro.multipath.churn import ChurnConfig
from repro.obs.bundle import BUNDLE_SCHEMA
from repro.service import LoadConfig, ServiceConfig
from repro.service.session import config_from_args

REPO_ROOT = Path(__file__).resolve().parent.parent
#: What every bundle holds; ``serve`` (the run that evaluates SLOs) adds
#: ``slo.json``.
MEMBERS = {"metrics.json", "trace.jsonl", "flight", "manifest.json"}
NAMES = [entry.name for entry in REGISTRY]


def _exit_code(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    return exit_info.value.code


def _obs_report(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "obs_report.py"), *argv],
        capture_output=True, text=True,
    )


class TestRegistryParser:
    @pytest.mark.parametrize("name", NAMES + ["all"])
    def test_every_entry_builds_a_subparser_with_help(self, name, capsys):
        assert _exit_code([name, "--help"]) == 0
        assert f"repro-experiments {name}" in capsys.readouterr().out

    def test_names_and_aliases_are_unique(self):
        spelled = [n for e in REGISTRY for n in (e.name,) + e.aliases]
        assert len(spelled) == len(set(spelled)) and "all" not in spelled

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["figure5", "--clients", "5"], "--clients"),
            (["figure5", "--family", "nope"], "--family"),
            (["serve", "--jobs", "2"], "--jobs"),
            (["serve", "--backend", "numpy"], "--backend"),
            (["traffic", "--strategy", "max-disjoint"], "--strategy"),
        ],
    )
    def test_a_flag_of_another_family_is_rejected_by_name(
        self, argv, flag, capsys
    ):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_serve_defaults_are_the_config_dataclasses(self):
        config = config_from_args(build_parser().parse_args(["serve"]))
        assert config.load == LoadConfig()
        assert config.service == ServiceConfig()
        assert config.virtual and config.scale == "bench"

    def test_multipath_defaults_are_churn_config(self):
        args = build_parser().parse_args(["multipath"])
        chosen = ChurnConfig(strategy=args.strategy, k_paths=args.k_paths)
        assert chosen == ChurnConfig()
        assert args.churn_intervals is None and args.dataset_out is None

    def test_aliases_resolve_to_their_entry(self):
        parser = build_parser()
        for entry in REGISTRY:
            for spelling in (entry.name,) + entry.aliases:
                argv = [spelling]
                if entry.name == "scenarios":
                    argv.append("--list-families")
                assert parser.parse_args(argv).entries == (entry,)
        by_name = {entry.name: entry for entry in REGISTRY}
        assert by_name["figure6"].aliases == ("figure6a", "figure6b")
        assert by_name["scionlab"].aliases == ("figure7", "figure8", "figure9")

    def test_all_is_the_in_all_entries_in_registry_order(self):
        args = build_parser().parse_args(["all", "--fault-schedules", "2"])
        assert args.entries == ALL
        assert ALL == tuple(e for e in REGISTRY if e.in_all)
        assert [e.name for e in ALL] == [
            "table1", "figure5", "figure6", "scionlab", "gridsearch",
            "faults", "traffic", "multipath",
        ]
        # ``all`` takes the flags of the families it runs, nobody else's.
        assert args.fault_schedules == 2 and args.jobs == 1
        assert not hasattr(args, "clients")

    def test_scenarios_needs_exactly_one_selector(self, capsys):
        assert _exit_code(["scenarios"]) == 2
        assert "--family" in capsys.readouterr().err
        assert _exit_code(
            ["scenarios", "--family", "ixp-models", "--list-families"]
        ) == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,reason",
        [
            (["scenarios", "--family", "nosuch"], "--family", "invalid choice"),
            (["multipath", "--k-paths", "0"], "--k-paths", "positive integer"),
            (
                ["multipath", "--churn-intervals", "-3"],
                "--churn-intervals", "positive integer",
            ),
            (
                ["faults", "--fault-schedules", "0"],
                "--fault-schedules", "positive integer",
            ),
            (
                ["scenarios", "--scenario-file", "/nonexistent.toml"],
                "--scenario-file", "does not exist",
            ),
        ],
    )
    def test_a_bad_flag_value_exits_2_naming_the_flag(
        self, argv, flag, reason, capsys
    ):
        """Were: three tracebacks, and a ``faults`` run of nothing."""
        assert _exit_code(argv + ["--scale", "test", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert f"repro-experiments {argv[0]}: error" in captured.err
        assert flag in captured.err and reason in captured.err
        assert "completed in" not in captured.out

    def test_shards_auto_is_min_of_cpu_count_and_isds(self, monkeypatch, capsys):
        """The one statement of the rule: capped at the scale's ISD count
        (the partitioner is ISD-atomic), never below one shard."""
        import repro.experiments.__main__ as cli

        resolved = []

        class Spy(cli.ExperimentRuntime):
            def __init__(self, **options):
                resolved.append(options["shards"])
                super().__init__(**options)

        monkeypatch.setattr(cli, "ExperimentRuntime", Spy)
        for cpus in (8, 2, None):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            assert main([
                "scenarios", "--list-families", "--scale", "test",
                "--shards", "auto", "--no-cache",
            ]) == 0
        assert TEST_SCALE.num_isds == 3
        assert resolved == [3, 2, 1]


class TestScalePresets:
    def test_mini_is_a_registered_scale(self):
        assert list(SCALES) == ["mini", "test", "bench", "paper"]
        mini = get_scale("mini")
        assert mini.name == "mini" and mini.core_ases == 4
        assert mini.warmup_intervals == TEST_SCALE.warmup_intervals

    def test_lookup_names_family_scale_and_presets(self):
        table = {"test": 1, "bench": 2}
        assert scale_preset(table, "bench", "traffic") == 2
        with pytest.raises(ValueError, match="traffic.*'mini'.*test, bench"):
            scale_preset(table, "mini", "traffic")

    @pytest.mark.parametrize("family", ["traffic", "multipath", "faults", "all"])
    def test_a_family_without_a_mini_row_exits_2_by_name(self, family, capsys):
        """Was: bench-size load on a 4-core network, silently."""
        assert _exit_code([family, "--scale", "mini", "--no-cache"]) == 2
        captured = capsys.readouterr()
        for word in (
            f"repro-experiments {family}: error", "--scale", "'mini'",
            "'test', 'bench', 'paper'",
        ):
            assert word in captured.err
        assert "completed in" not in captured.out

    def test_a_library_call_without_a_row_is_a_named_error(self):
        from repro.experiments.traffic import run_traffic

        with pytest.raises(ValueError, match="traffic.*'mini'.*test, bench, paper"):
            run_traffic(get_scale("mini"))

    def test_scenarios_reach_their_mini_row(self, capsys):
        assert main(["scenarios", "--scale", "mini", "--list-families"]) == 0
        assert "scale=mini" in capsys.readouterr().out


class TestObsBundle:
    def _check_bundle(self, directory, experiment, slo=False):
        members = MEMBERS | ({"slo.json"} if slo else set())
        assert {p.name for p in directory.iterdir()} == members
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["experiments"] == [experiment]
        # The manifest lists the members the run produced.
        assert {name.rstrip("/") for name in manifest["files"]} == members - {
            "manifest.json"
        }
        lines = (directory / "trace.jsonl").read_text().splitlines()
        assert manifest["files"]["trace.jsonl"]["records"] == len(lines) > 0
        snapshot = json.loads((directory / "metrics.json").read_text())
        assert manifest["files"]["metrics.json"]["records"] == sum(
            len(series) for series in snapshot.values()
        )
        (run,) = manifest["runs"]
        assert run["experiment"] == experiment
        if slo:
            summary = json.loads((directory / "slo.json").read_text())
            assert manifest["files"]["slo.json"]["records"] == len(
                summary["objectives"]
            )
            assert run["slo"] == summary
            assert _obs_report("slo", str(directory / "slo.json")).returncode == 0
        else:
            # No service metric, no objective evaluated: not three
            # ``no_data`` objectives marked compliant.
            assert run["slo"] == {}
        assert _obs_report("tree", str(directory / "trace.jsonl")).returncode == 0
        return manifest

    def test_serve_leaves_the_five_members(self, tmp_path, capsys):
        bundle = tmp_path / "obs"
        assert main([
            "serve", "--scale", "mini", "--clients", "20",
            "--obs-dir", str(bundle),
        ]) == 0
        manifest = self._check_bundle(bundle, "serve", slo=True)
        assert manifest["runs"][0]["scale"] == "mini"
        assert "obs bundle written" in capsys.readouterr().out

    def test_runtime_run_leaves_the_five_members(self, tmp_path, capsys):
        """All but ``slo.json``: a runtime run evaluates no objective."""
        bundle = tmp_path / "deep" / "obs"
        assert main([
            "table1", "--scale", "test", "--no-cache",
            "--obs-dir", str(bundle),
        ]) == 0
        manifest = self._check_bundle(bundle, "table1")
        phases = manifest["runs"][0]["phases"]
        assert phases and all("cached" in phase for phase in phases)

    def test_uncreatable_obs_dir_exits_2_before_any_work(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert _exit_code([
            "table1", "--scale", "test", "--no-cache",
            "--obs-dir", str(blocker / "obs"),
        ]) == 2
        captured = capsys.readouterr()
        assert "--obs-dir" in captured.err
        assert "completed in" not in captured.out
