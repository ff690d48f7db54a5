"""DESIGN.md names files; every one of them must exist.

A backticked ``*.py`` path in DESIGN.md is written relative to the repo
root, to ``src/repro`` (the module map's convention) or, for the bare
script names of §9, to ``tools``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASES = [ROOT, ROOT / "src" / "repro", ROOT / "tools"]


def test_every_backticked_python_path_in_design_resolves():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    paths = sorted(set(re.findall(r"`([^`\s]+\.py)`", text)))
    assert len(paths) > 100  # the module map alone names that many
    missing = [
        path
        for path in paths
        if not any((base / path).is_file() for base in BASES)
    ]
    assert missing == []


def test_module_map_covers_every_module():
    """The §2 map is regenerated from the tree: no module is left out,
    and every package directory has a row in the earn-your-keep audit
    naming what runs it besides its own tests."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 2. System inventory", 1)[1].split("\n## 3.", 1)[0]
    named = set(re.findall(r"`([^`\s]+\.py)`", section))
    package = ROOT / "src" / "repro"
    modules = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert modules - named == set()
    audit = section.split("| Package | Lines | Exercised by", 1)[1]
    rows = {
        cells[1].strip("` "): cells
        for cells in (line.split("|") for line in audit.splitlines())
        if len(cells) == 6 and cells[1].strip().startswith("`")
    }
    packages = {module.split("/")[0] + "/" for module in modules if "/" in module}
    assert packages - set(rows) == set()
    for name in sorted(packages):
        _, _, lines, consumer, tests, _ = rows[name]
        assert lines.strip().isdigit(), name
        # A consumer that is only a tests/ path is the package's own tests.
        assert re.sub(r"`tests/[^`]*`", "", consumer).strip(" ;,."), name
        assert "`tests/" in tests, name


def _cli_flags():
    """Every option string some sub-command of the experiments CLI takes."""
    from repro.experiments.__main__ import build_parser

    (commands,) = [
        action for action in build_parser()._actions if action.choices
    ]
    return {
        option
        for command in commands.choices.values()
        for action in command._actions
        for option in action.option_strings
    }


def test_documented_cli_flags_exist():
    """README's flag table names exactly the flags the sub-parsers take,
    and EXPERIMENTS' ``repro.experiments`` command lines only those."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Flag | Sub-commands |", 1)[1].split("\n\n", 1)[0]
    documented = {
        flag
        for row in table.splitlines()
        for flag in re.findall(r"`(--[a-z-]+)", row.split("|")[1])
    }
    assert documented == _cli_flags() - {"-h", "--help"}
    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for block in re.findall(r"```bash\n(.*?)```", experiments, re.S):
        for command in block.replace("\\\n", " ").splitlines():
            if "-m repro.experiments" in command:
                documented.update(re.findall(r"(?<!\S)(--[a-z-]+)", command))
    assert documented - _cli_flags() == set()


def test_readme_experiment_table_names_every_registry_entry():
    from repro.experiments.__main__ import REGISTRY

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Paper artifact | Command |", 1)[1].split("\n\n", 1)[0]
    commands = set(re.findall(r"`python -m repro\.experiments (\w+)", table))
    assert {entry.name for entry in REGISTRY} - commands == set()
