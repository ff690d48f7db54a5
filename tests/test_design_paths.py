"""DESIGN.md names files, every one of them must exist; and the
earn-your-keep rule of its §2 holds for every symbol of ``src/repro``.

A backticked ``*.py`` path in DESIGN.md is written relative to the repo
root, to ``src/repro`` (the module map's convention) or, for the bare
script names of §9, to ``tools``.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BASES = [ROOT, PACKAGE, ROOT / "tools"]


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
    stating its real line count and what runs it besides its own tests."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 2. System inventory", 1)[1].split("\n## 3.", 1)[0]
    named = set(re.findall(r"`([^`\s]+\.py)`", section))
    modules = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
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
        counted = sum(
            path.read_text(encoding="utf-8").count("\n")
            for path in (PACKAGE / name).rglob("*.py")
        )
        assert lines.strip() == str(counted), name
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


# --------------------------------------------------------------------------
# The earn-your-keep rule, per symbol (DESIGN §2): a def, class or method of
# ``src/repro`` that only ``tests/`` can reach has no consumer.
# --------------------------------------------------------------------------

CONSUMERS = [ROOT / "bench", ROOT / "tools", ROOT / "examples"]

#: ``"path:Qual.name"`` -> why a symbol only ``tests/`` reaches stays. Three
#: classes, no others; what an exempt symbol calls is reached through it.
EXEMPT = {
    # (1) Reference / equivalence harnesses and determinism comparators:
    # safety code the tests compare the fast paths against.
    "kernels/equivalence.py:compare_beaconing":
        "backend equivalence harness (beaconing arm; ROADMAP 5a retires it "
        "with batch_diversity)",
    "kernels/equivalence.py:compare_traffic":
        "backend equivalence harness: python vs numpy deliver_flow",
    "kernels/equivalence.py:assert_equivalent":
        "raises the harness's report as one AssertionError",
    "multipath/axioms.py:check_all_strategies":
        "executable form of Baumeister & Keshvadi's multipath axioms "
        "(PAPERS.md); reaches every check_* and AxiomViolation",
    "dataplane/router.py:BorderRouter.forward":
        "the one-hop specification RouterTable.deliver_packet's cursor "
        "walk is checked against",
    "obs/context.py:scrub":
        "determinism comparator: drops wall/worker before traces are "
        "compared across --jobs",
    # (2) The paper's §5.1 input formats and substitution (ROADMAP 3e).
    "topology/caida.py:load_topology":
        "CAIDA AS-rel / AS-rel-geo reader, the paper's §5.1 input",
    "topology/caida.py:write_as_rel":
        "AS-rel writer: round-trips the reader",
    "topology/caida.py:write_as_rel_geo":
        "AS-rel-geo writer: round-trips the reader",
    "topology/model.py:Relationship.from_caida":
        "CAIDA relationship codes of the §5.1 format",
    "topology/model.py:Relationship.to_caida":
        "CAIDA relationship codes of the §5.1 format",
    "bgp/extrapolation.py:map_outside_origins":
        "§5.1 substitution of ASes outside the AS-rel-geo subset",
    "bgp/extrapolation.py:tier1_hop_distance":
        "the depth measure of the §5.1 substitution",
    # (3) Read-only query helpers two or more test files use as an oracle
    # for other features.
    "core/beacon_store.py:BeaconStore.all_beacons":
        "oracle: store contents in beacon-store, algorithm and property tests",
    "topology/model.py:Topology.is_connected":
        "oracle: generator, ISD, scenario and fault tests",
    "simulation/metrics.py:TrafficMetrics.interface_stats":
        "oracle: per-interface counts in simulation and analysis tests",
    "kernels/__init__.py:available_backends":
        "oracle: which backends the kernel and equivalence tests parametrise",
    "multipath/churn.py:ChurnResult.goodput_shares":
        "oracle: per-path shares in churn and dataset tests",
    "traffic/metrics.py:TrafficRunResult.goodput_shares":
        "oracle: per-path shares in traffic and multipath tests",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SPEC = re.compile(r"repro[\w.]*:[A-Za-z_][\w.]*\Z")


def _mentions(node, imports=False):
    """Every identifier under *node*: names, attribute names, the pieces of
    ``"module:attr.path"`` strings (``bench/surface.py``) and, with
    *imports*, imported names. Docstrings are not code."""
    found = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        children = list(ast.iter_child_nodes(sub))
        if isinstance(sub, (ast.Module, *_DEFS)) and ast.get_docstring(sub, False):
            children.remove(sub.body[0])
        stack.extend(children)
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            if imports:
                found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _SPEC.match(sub.value):
                found.update(re.split(r"[.:]", sub.value))
    return found


def _scan(package, consumers):
    """``(symbols, roots, unused)`` of the ``*.py`` tree *package*.

    *symbols* maps ``"path:Qual.name"`` to the AST nodes of every module-level
    def or class and every method; *roots* is every name *consumers* use plus
    what the package's module-level statements other than imports, ``__all__``
    and docstrings mention; *unused* lists module-level imports that no other
    statement of their file (``__all__`` included) names."""
    symbols, roots, unused = defaultdict(list), set(), []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if getattr(stmt, "module", None) != "__future__":
                    for alias in stmt.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = stmt
                continue
            mentioned = _mentions(stmt)
            used |= mentioned
            if isinstance(stmt, _DEFS):
                symbols[f"{rel}:{stmt.name}"].append(stmt)
                if isinstance(stmt, ast.ClassDef):
                    for member in stmt.body:
                        if isinstance(member, _DEFS):
                            symbols[f"{rel}:{stmt.name}.{member.name}"].append(member)
            elif "__all__" in mentioned:
                used |= {
                    sub.value for sub in ast.walk(stmt) if isinstance(sub, ast.Constant)
                }
            else:
                roots |= mentioned
        unused += [
            f"{rel}:{stmt.lineno} {name}"
            for name, stmt in imported.items()
            if name not in used
        ]
    for directory in consumers:
        for path in sorted(directory.rglob("*.py")):
            roots |= _mentions(ast.parse(path.read_text(encoding="utf-8")), imports=True)
    return dict(symbols), roots, unused


def _reach(symbols, names, keys=()):
    """The symbols a walk from *names* (and the symbols *keys*) reaches: a
    symbol is reached when a reached body mentions its bare name — an
    attribute access counts for every method of that name, so the walk
    over-approximates and what it leaves out is dead under any typing. A
    reached class brings its bases, decorators, class-level statements and
    dunder methods; its other methods need a mention of their own."""
    by_name = defaultdict(list)
    for key in symbols:
        by_name[re.split(r"[.:]", key)[-1]].append(key)
    reached = set()
    pending = [key for name in names for key in by_name.get(name, ())] + list(keys)
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        mentioned = set()
        for node in symbols[key]:
            if not isinstance(node, ast.ClassDef):
                mentioned |= _mentions(node)
                continue
            for part in node.bases + node.keywords + node.decorator_list:
                mentioned |= _mentions(part)
            for member in node.body:
                if not isinstance(member, _DEFS):
                    mentioned |= _mentions(member)
                elif re.fullmatch(r"__\w+__", member.name):
                    pending.append(f"{key}.{member.name}")
        pending += [key for name in mentioned for key in by_name.get(name, ())]
    return reached


def _audit(package, consumers, exempt):
    """Every breach of the rule, one line each (``[]`` is a pass)."""
    symbols, roots, unused = _scan(package, consumers)
    reached = _reach(symbols, roots)
    problems = [
        f"stale exemption, reachable: {key}"
        if key in reached
        else f"stale exemption, no such symbol: {key}"
        for key in sorted(exempt)
        if key in reached or key not in symbols
    ]
    kept = _reach(symbols, roots, [key for key in exempt if key in symbols])
    problems += [
        f"only tests reach: {key}"
        for key in sorted(symbols)
        if key not in kept
        # a method of an unreached class is reported with its class
        and ("." not in key.split(":")[1] or key.rsplit(".", 1)[0] in kept)
    ]
    return problems + [f"unused import: {entry}" for entry in unused]


def test_every_symbol_has_a_consumer_besides_its_tests():
    assert _audit(PACKAGE, CONSUMERS, EXEMPT) == []


@pytest.fixture()
def planted(tmp_path):
    """A two-module package and one consumer script: ``used`` is called by
    the script, ``helper`` by ``used``, ``Kept.method`` through an
    attribute, ``orphan`` and ``Kept.idle`` by nothing."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import orphan, used\n__all__ = ['orphan', 'used']\n"
    )
    (package / "mod.py").write_text(
        "import heapq\n"
        "from typing import Dict, List\n\n"
        "def used(rows: List[int]):\n"
        "    return Kept(helper(rows)).method()\n\n"
        "def helper(rows):\n"
        "    return sorted(rows)\n\n"
        "def orphan():\n"
        '    """Only a test calls this."""\n'
        "    return helper([])\n\n"
        "class Kept:\n"
        "    def __init__(self, rows):\n"
        "        self.rows = rows\n"
        "    def method(self):\n"
        "        return self.rows\n"
        "    def idle(self):\n"
        "        return None\n"
    )
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "run.py").write_text('SPEC = "repro.mod:used"\n')
    unused = ["unused import: mod.py:1 heapq", "unused import: mod.py:2 Dict"]
    return package, [tools], unused


def test_the_check_names_a_planted_dead_def_and_unused_imports(planted):
    package, consumers, unused = planted
    assert _audit(package, consumers, {}) == [
        "only tests reach: mod.py:Kept.idle",
        "only tests reach: mod.py:orphan",
    ] + unused
    exempt = {"mod.py:orphan": "planted", "mod.py:Kept.idle": "planted"}
    assert _audit(package, consumers, exempt) == unused


def test_the_check_fails_on_stale_exemptions(planted):
    package, consumers, unused = planted
    exempt = {
        "mod.py:orphan": "still dead: fine",
        "mod.py:Kept.idle": "still dead: fine",
        "mod.py:gone": "names nothing",
        "mod.py:helper": "the consumer's call chain reaches it",
    }
    assert _audit(package, consumers, exempt) == [
        "stale exemption, no such symbol: mod.py:gone",
        "stale exemption, reachable: mod.py:helper",
    ] + unused
