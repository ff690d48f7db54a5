"""DESIGN.md names files, every one of them must exist; and the
earn-your-keep rule of its §2 holds for every symbol of ``src/repro``.

A backticked ``*.py`` path in DESIGN.md is written relative to the repo
root, to ``src/repro`` (the module map's convention) or, for the bare
script names of §9, to ``tools``.
"""

import ast
import copy
import json
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
    """The §2 map is regenerated from the tree, both ways: no module is
    left out and no map row names a module that is gone, and every
    package directory, and no other, has a row in the earn-your-keep
    audit stating its real line count and what runs it besides its own
    tests."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 2. System inventory", 1)[1].split("\n## 3.", 1)[0]
    named = set(re.findall(r"`([^`\s]+\.py)`", section))
    modules = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert modules - named == set()
    module_map = section.split("| Subsystem |", 1)[1].split("\n### ", 1)[0]
    mapped = set(re.findall(r"`([^`\s]+\.py)`", module_map))
    assert {path for path in mapped if not (PACKAGE / path).is_file()} == set()
    audit = section.split("| Package | Lines | Exercised by", 1)[1]
    rows = {
        cells[1].strip("` "): cells
        for cells in (line.split("|") for line in audit.splitlines())
        if len(cells) == 6 and cells[1].strip().startswith("`")
    }
    packages = {module.split("/")[0] + "/" for module in modules if "/" in module}
    assert packages - set(rows) == set()
    assert set(rows) - packages == set()
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


def _documented_imports():
    """Every ``from repro… import …`` / ``import repro…`` statement in a
    Python block of README.md or DESIGN.md, a parenthesised one whole."""
    found = []
    for name in ("README.md", "DESIGN.md"):
        text = (ROOT / name).read_text(encoding="utf-8")
        for block in re.findall(r"```python\n(.*?)```", text, re.S):
            found += re.findall(
                r"^[ \t]*((?:from repro[\w.]* import (?:\([^)]*\)|.*))"
                r"|import repro[\w.]*.*)$",
                block, re.M,
            )
    return found


def test_documented_imports_resolve():
    """The package ``__init__`` files re-export only what something
    imports through them, so an import the docs show must still work."""
    statements = _documented_imports()
    assert statements  # README's quick start has one
    for statement in statements:
        exec(statement, {})


def test_readme_experiment_table_names_every_registry_entry():
    from repro.experiments.__main__ import REGISTRY

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Paper artifact | Command |", 1)[1].split("\n\n", 1)[0]
    commands = set(re.findall(r"`python -m repro\.experiments (\w+)", table))
    assert commands == {entry.name for entry in REGISTRY}


def _experiments_headings():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return [line.lstrip("#").strip() for line in text.splitlines()
            if line.startswith("#") and not line.startswith("#!")]


def _cited_sections():
    """Every EXPERIMENTS section DESIGN.md or README.md names
    (``EXPERIMENTS.md, *Heading*`` or ``EXPERIMENTS.md ("Heading")``, over
    line breaks) and every ``EXPERIMENTS.md, *Heading*`` source of a
    ``BENCH_*.json`` row, as ``(where, cited text)``."""
    cited = []
    for name in ("DESIGN.md", "README.md"):
        text = " ".join((ROOT / name).read_text(encoding="utf-8").split())
        for match in re.finditer(
            r'EXPERIMENTS(?:\.md)?,? (?:\*([^*]+)\*|\("([^"]+)"\))', text
        ):
            cited.append((name, match.group(1) or match.group(2)))
    for path in sorted(ROOT.glob("BENCH_*.json")):
        for row in json.loads(path.read_text(encoding="utf-8")):
            source = row.get("source") or ""
            for section in re.findall(r"EXPERIMENTS\.md, \*([^*]+)\*", source):
                cited.append((path.name, section))
    return cited


def test_every_cited_experiments_section_is_a_heading():
    """A citation is the prefix of a heading, so the trim that keeps each
    per-PR section's heading keeps every row's ``source`` resolvable."""
    cited = _cited_sections()
    assert len(cited) > 10  # the BENCH sources alone cite that many
    headings = _experiments_headings()
    missing = [
        (where, section)
        for where, section in cited
        if not any(heading.startswith(section) for heading in headings)
    ]
    assert missing == []


def _fill_tool():
    import importlib.util

    path = ROOT / "tools" / "fill_experiments.py"
    spec = importlib.util.spec_from_file_location("fill_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_tables_are_what_the_results_render():
    """EXPERIMENTS' paper tables are generated: rendering the committed
    RESULTS_bench.json and BENCH_scale.json into the committed file
    changes nothing. Refresh both with *How to reproduce*'s commands."""
    tool = _fill_tool()
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    results = tool.load_results()
    assert text.count("<!-- results:") == len(tool.RENDERERS)
    assert tool.fill(text, results) == text


def test_the_fill_tool_rewrites_only_its_blocks():
    """A block's old body goes; the text around it and the markers stay;
    an unclosed block or one the results lack is an error."""
    tool = _fill_tool()
    results = json.loads((ROOT / "RESULTS_bench.json").read_text())
    text = "a\n<!-- results:gridsearch -->\nstale\n<!-- /results -->\nb\n"
    filled = tool.fill(text, results)
    assert filled.startswith("a\n<!-- results:gridsearch -->\n| Parameter")
    assert filled.endswith("\n<!-- /results -->\nb\n")
    assert "stale" not in filled
    for broken in ("<!-- results:gridsearch -->\n", "<!-- results:nope -->"
                   "\n<!-- /results -->"):
        with pytest.raises(ValueError):
            tool.fill(broken, results)


def _ledger(tool, data):
    return {(section, paper): (shown, verdict)
            for section, paper, shown, verdict in tool.ledger(data)}


@pytest.mark.parametrize("reading", ["figure6a min cut", "figure6b diversity(30)"])
def test_a_verdict_is_computed_from_its_reading(reading):
    """Moving one reading of a copy of the committed results across its
    tolerance flips that row's verdict, and no other row changes."""
    tool = _fill_tool()
    data = tool.load_results()["claims"]["data"]
    moved = copy.deepcopy(data)
    if reading == "figure6a min cut":
        cdf = moved["figure6"]["cdf"]
        cdf["baseline(60)"]["mean"] = 1.05 * tool.DOUBLE * cdf["bgp"]["mean"]
    else:
        capped = moved["figure6"]["capped_fraction_of_optimum"]
        capped["diversity(30)"] = (97 - tool.POINTS - 1) / 100
    before, after = _ledger(tool, data), _ledger(tool, moved)
    changed = [row for row in before if before[row] != after[row]]
    assert len(changed) == 1, changed
    (row,) = changed
    assert (before[row][1] == "holds") != (after[row][1] == "holds")


#: A reading as the ledger shows it: a number with its unit, or a count of
#: matches; the sign is left out, so a typed copy without it counts too.
_READING = re.compile(r"[-+]?(\d+(?:\.\d+)?(?:x| orders| points|%)|\d+/\d+)")


def test_no_ledger_reading_is_typed_elsewhere():
    """No reading the ledger renders appears in DESIGN.md, nor in
    EXPERIMENTS' paper sections (*Table 1* through *§4.2 grid search*)
    outside a results block: a typed copy would drift from the data."""
    tool = _fill_tool()
    readings = {
        token
        for _, _, shown, _ in tool.ledger(tool.load_results()["claims"]["data"])
        for token in _READING.findall(shown)
    }
    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    papers = experiments.split("\n## Table 1", 1)[1].split("\n## Ablations", 1)[0]
    places = {
        "DESIGN.md": (ROOT / "DESIGN.md").read_text(encoding="utf-8"),
        "EXPERIMENTS.md": re.sub(
            r"<!-- results:.*?<!-- /results -->", "", papers, flags=re.S
        ),
    }
    typed = sorted(
        (place, token)
        for place, text in places.items()
        for token in readings
        if re.search(r"(?<![\d.])" + re.escape(token), text)
    )
    assert typed == []


def test_every_deviation_has_an_open_owner():
    """Each ledger row names an open ROADMAP item, or says "unexplained"."""
    tool = _fill_tool()
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    for *_, owner in tool.CLAIMS:
        if owner == "unexplained":
            continue
        heading = f"\n### {owner.split('(')[0]}. "
        assert heading in roadmap, owner
        item = roadmap.split(heading, 1)[1].split("\n### ", 1)[0]
        assert "**Done" not in item, owner


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
    # (2) The paper's §5.1 input formats and substitution (the CAIDA
    # AS-rel / AS-rel-geo files the synthetic topology stands in for).
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


def _is_alias(stmt):
    """``alias = name``: one plain target, one plain name."""
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Name)
    )


def _scan(package, consumers):
    """``(symbols, roots, unused)`` of the ``*.py`` tree *package*.

    *symbols* maps ``"path:Qual.name"`` to the AST nodes of every module-level
    def or class, every method and every bare ``alias = name`` (its node is
    the aliased name, so the alias reaches it only when the alias is reached
    itself); *roots* is every name *consumers* use plus what the package's
    module-level statements other than imports, aliases, ``__all__`` and
    docstrings mention; *unused* lists module-level imports that no other
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
            elif _is_alias(stmt):
                symbols[f"{rel}:{stmt.targets[0].id}"].append(stmt.value)
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


def test_a_bare_alias_roots_nothing(planted):
    """``alias = name`` keeps ``name`` alive only while the alias itself is
    reached: here the consumer uses ``kept_alias`` but not ``dead_alias``."""
    package, consumers, unused = planted
    (package / "aliases.py").write_text(
        "def kept():\n    return 1\n\n"
        "def dropped():\n    return 2\n\n"
        "kept_alias = kept\n"
        "dead_alias = dropped\n"
    )
    (consumers[0] / "alias_user.py").write_text(
        "from repro.aliases import kept_alias\nkept_alias()\n"
    )
    exempt = {"mod.py:orphan": "planted", "mod.py:Kept.idle": "planted"}
    assert _audit(package, consumers, exempt) == [
        "only tests reach: aliases.py:dead_alias",
        "only tests reach: aliases.py:dropped",
    ] + unused


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


# --------------------------------------------------------------------------
# The earn-your-keep rule, per option (DESIGN §2): a defaulted parameter of a
# ``src/repro`` def, or a defaulted field of a ``src/repro`` dataclass, that
# nothing outside ``tests/`` sets has one value; it is a constant.
# --------------------------------------------------------------------------

SETTERS = [ROOT / "src", ROOT / "bench", ROOT / "tools", ROOT / "examples"]
HARNESS = "backend equivalence harness: the tests pick what it compares"

#: ``"path:Qual.def(param)"`` or ``"path:Class.field"`` -> why an option
#: nothing outside ``tests/`` sets stays. Three classes, no others.
EXEMPT_OPTIONS = {
    # (1) The symbol audit's classes (``EXEMPT`` above): harnesses, the
    # §5.1 input formats and oracle helpers, whose callers are the tests.
    **{
        f"kernels/equivalence.py:compare_traffic({name})": HARNESS
        for name in ("algorithm", "backends", "core_config", "fault_plan",
                     "intra_config", "legacy_asns", "traffic_config")
    },
    "multipath/axioms.py:check_all_strategies(num_universes)":
        "axiom harness: how many seeded universes a test checks",
    **{
        f"multipath/axioms.py:check_strategy({name})":
            "axiom harness: the inputs a test quantifies the axioms over"
        for name in ("flow_keys", "k_values", "packet_counts")
    },
    "topology/caida.py:load_topology(fmt)":
        "§5.1 input format: AS-rel or AS-rel-geo",
    "topology/caida.py:parse_as_rel(name)":
        "§5.1 input format: the source name its errors cite",
    "topology/caida.py:parse_as_rel_geo(name)":
        "§5.1 input format: the source name its errors cite",
    "core/beacon_store.py:BeaconStore.all_beacons(now)":
        "oracle: the store-property tests read only the beacons valid now",
    # (2) What ``bench/`` passes or reads, or ``bench/surface.py`` names.
    "experiments/config.py:ExperimentScale.interval":
        "bench/workloads/figures_test.py reads it to size its window",
    # (3) Injection points through which a named test substitutes a fake.
    "dataplane/hopfield.py:make_hop_field(key)":
        "tests/test_dataplane.py test_rejects_tampered_path and "
        "tamper_cases MAC hop fields with a forged key",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node):
    """The last name of a callee, decorator or base (``None`` for any other
    expression)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _fields(node):
    """``(name, defaulted)`` per ``__init__`` field of a dataclass body, in
    order; a ``default_factory`` field is not defaulted (its value is built
    per instance, not chosen)."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            yield stmt.target.id, "default" in keywords
        else:
            yield stmt.target.id, value is not None


def _options(package):
    """Every option of *package*: ``key -> (callees, name, position, field)``.

    *callees* are the names a call reaching the option goes by (a
    constructor's are its class and every subclass), *position* the index of
    the positional argument that reaches it (``None``: keyword only)."""
    classes, defs = {}, []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "", None)]
        while stack:
            node, prefix, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    classes[child.name] = (rel, f"{prefix}{child.name}", child)
                    stack.append((child, f"{prefix}{child.name}.", child))
                elif isinstance(child, _FUNCS):
                    defs.append((rel, prefix, owner, child))
                    stack.append((child, f"{prefix}{child.name}.", None))
    subclasses = defaultdict(set)
    for name, (_, _, node) in classes.items():
        for base in node.bases:
            subclasses[_name(base)].add(name)

    def family(name):
        found, pending = set(), [name]
        while pending:
            cls = pending.pop()
            if cls not in found:
                found.add(cls)
                pending += subclasses[cls]
        return found

    def init_fields(name):
        rel, qual, node = classes[name]
        if "dataclass" not in {_name(d) for d in node.decorator_list}:
            return []
        inherited = [
            entry for base in node.bases if _name(base) in classes
            for entry in init_fields(_name(base))
        ]
        own = [(field, default, f"{rel}:{qual}") for field, default in _fields(node)]
        names = {field for field, *_ in own}
        return [entry for entry in inherited if entry[0] not in names] + own

    options = {}
    for name in classes:
        for position, (field, defaulted, owner) in enumerate(init_fields(name)):
            if defaulted:
                option = (family(name), field, position, True)
                options.setdefault(f"{owner}.{field}", option)
    for rel, prefix, owner, node in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        bound = owner is not None and "staticmethod" not in {
            _name(d) for d in node.decorator_list
        }
        init = owner is not None and node.name == "__init__"
        callees = family(owner.name) if init else {node.name}
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            options[f"{rel}:{prefix}{node.name}({arg.arg})"] = (
                callees, arg.arg, index - bound, False
            )
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                options[f"{rel}:{prefix}{node.name}({arg.arg})"] = (
                    callees, arg.arg, None, False
                )
    return options


def _keys(value, scope):
    """The keywords ``**value`` passes, ``keyword -> value``: the keys of a
    dict display or of a keywords-only ``dict(...)``, directly or through a
    name the enclosing scope binds to one; ``None`` when the walk cannot
    tell."""
    if isinstance(value, ast.Name):
        value = scope.get(value.id, value)
    if isinstance(value, ast.Dict):
        if all(isinstance(key, ast.Constant) for key in value.keys):
            return {key.value: item for key, item in zip(value.keys, value.values)}
    if isinstance(value, ast.Call) and _name(value) == "dict" and not value.args:
        if all(kw.arg for kw in value.keywords):
            return {kw.arg: kw.value for kw in value.keywords}
    return None


def _source(keyword, value, key):
    """Where a keyword's *value* comes from: ``None`` for a value of its
    own, the option key ``name=name`` reads if the enclosing def has a
    defaulted parameter of that name (any other key names no option, so
    it counts as a value of its own), or ``.<name>`` for an attribute read
    ``<obj>.<name>`` (``args.<name>`` is CLI input, a value of its own)."""
    if isinstance(value, ast.Name) and value.id == keyword and key:
        return f"{key}({keyword})"
    if isinstance(value, ast.Attribute):
        if not (isinstance(value.value, ast.Name) and value.value.id == "args"):
            return "." + value.attr
    return None


def _settings(package, roots):
    """What the ``*.py`` files under *roots* set: ``(keywords, positional,
    starred, stored, own, live)``.

    *keywords* maps ``(callee, keyword)`` to the :func:`_source` of each
    value passed (``replace`` keywords are ``("replace", field)``);
    *positional* holds the most positional arguments per callee, *starred*
    the callees given a ``*``/``**`` the walk cannot resolve. *stored* are
    the attribute names stored on anything but ``self``; *own* maps each
    name a class stores on ``self`` to those classes, since such a store
    sets no other class's field. *live* are the names whose value code
    keeps changing: *stored*, ``self`` stores other than a def's
    ``self.<name> = <name>`` of its own parameter, and every method and
    property. ``partial(f, …)`` and ``map(f, …)`` call ``f``, a call
    through an ``import … as`` name calls the imported name, and a
    ``**kwargs`` a def passes on carries the keywords its own callers
    pass."""
    keywords, positional, starred = defaultdict(set), defaultdict(int), set()
    stored, own, live = set(), defaultdict(set), set()
    forwards, renames = defaultdict(set), {}

    def call(node, cls, fn, scope, key):
        func, args = node.func, node.args
        callees = [_name(func)]
        if callees == ["cls"] and cls is not None:
            callees = [cls.name]
        elif isinstance(func, ast.Attribute) and func.attr == "__init__" and cls:
            super_call = isinstance(func.value, ast.Call)
            callees = [_name(b) for b in cls.bases] if super_call else [cls.name]
        elif callees[0] in ("partial", "map") and args:
            callees, args = [_name(args[0])], args[1:]
        elif callees[0] in ("setattr", "__setattr__") and len(args) > 1:
            if isinstance(args[1], ast.Constant):
                stored.add(args[1].value)
        kwarg = fn.args.kwarg.arg if fn is not None and fn.args.kwarg else None
        for callee in callees:
            for kw in node.keywords:
                if kw.arg is not None:
                    passed = {kw.arg: kw.value}
                elif isinstance(kw.value, ast.Name) and kw.value.id == kwarg:
                    forwards[fn.name].add(callee)
                    continue
                elif (passed := _keys(kw.value, scope)) is None:
                    starred.add(callee)
                    continue
                for name, value in passed.items():
                    keywords[callee, name].add(_source(name, value, key))
            if any(isinstance(arg, ast.Starred) for arg in args):
                starred.add(callee)
            positional[callee] = max(positional[callee], len(args))

    def visit(node, cls, fn, scope, prefix, key, rel):
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, _FUNCS):
            if isinstance(cls, ast.ClassDef) and node in cls.body:
                live.add(node.name)
            key = rel and f"{rel}:{prefix}{node.name}"
            fn, scope = node, {}
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                scope[node.targets[0].id] = node.value
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if not (cls and _name(target.value) == "self"):
                    stored.add(target.attr)
                    continue
                own[target.attr].add(cls.name)
                value = node.value if isinstance(node, ast.Assign) else None
                passed_on = (
                    isinstance(value, ast.Name) and value.id == target.attr
                    and fn and any(
                        isinstance(arg, ast.arg) and arg.arg == value.id
                        for arg in ast.walk(fn.args)
                    )
                )
                if not passed_on:
                    live.add(target.attr)
        elif isinstance(node, ast.Call):
            call(node, cls, fn, scope, key)
        elif isinstance(node, ast.alias) and node.asname:
            renames[node.asname] = node.name.split(".")[-1]
        if isinstance(node, (ast.ClassDef, *_FUNCS)):
            prefix = f"{prefix}{node.name}."
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn, scope, prefix, key, rel)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            inside = path.is_relative_to(package)
            rel = path.relative_to(package).as_posix() if inside else None
            tree = ast.parse(path.read_text(encoding="utf-8"))
            visit(tree, None, None, {}, "", None, rel)
    for (callee, kw), sources in list(keywords.items()):
        if callee in renames:
            keywords[renames[callee], kw] |= sources
    starred |= {renames[c] for c in starred if c in renames}
    for alias, name in renames.items():
        positional[name] = max(positional[name], positional.get(alias, 0))
    before = None
    while before != (sum(map(len, keywords.values())), len(starred)):
        before = (sum(map(len, keywords.values())), len(starred))
        for name, callees in forwards.items():
            passed = [(kw, s) for (c, kw), s in list(keywords.items()) if c == name]
            for callee in callees:
                for kw, sources in passed:
                    keywords[callee, kw] |= sources
            if name in starred:
                starred.update(callees)
    return keywords, positional, starred, stored, own, live | stored


def _option_audit(package, roots, exempt):
    """Every breach of the rule, one line each (``[]`` is a pass).

    A keyword that forwards another option (:func:`_source`) sets its
    target only once that option is set or exempt; ``<obj>.<name>`` stands
    for every option named ``<name>``, unless ``<name>`` is live, which
    makes the read a value of its own."""
    options = _options(package)
    keywords, positional, starred, stored, own, live = _settings(package, roots)
    named = defaultdict(set)
    for key, (_, name, _, _) in options.items():
        named[name].add(key)
    found = set()

    def given(source):
        if source is None:
            return True
        if source.startswith("."):
            name = source[1:]
            if name in live or name not in named:
                return True
            return any(k in found or k in exempt for k in named[name])
        return source not in options or source in found or source in exempt

    def is_set(callees, name, position, field):
        if field and (
            name in stored
            or own[name] & callees
            or any(map(given, keywords.get(("replace", name), ())))
        ):
            return True
        return any(
            callee in starred
            or any(map(given, keywords.get((callee, name), ())))
            or (position is not None and positional.get(callee, 0) > position)
            for callee in callees
        )

    while new := {
        key for key, option in options.items()
        if key not in found and is_set(*option)
    }:
        found |= new
    single = set(options) - found
    problems = [
        f"stale exemption, set: {key}"
        if key in options
        else f"stale exemption, no such option: {key}"
        for key in sorted(exempt)
        if key not in single
    ]
    return problems + [f"one value only: {key}" for key in sorted(single - set(exempt))]


def test_every_option_is_set_outside_tests():
    assert _option_audit(PACKAGE, SETTERS, EXEMPT_OPTIONS) == []


@pytest.fixture()
def planted_options(tmp_path):
    """A one-module package and one consumer script: ``knob(mode)`` is set
    by keyword, ``Config.size`` has no default and ``Config.tags`` a
    factory; ``knob(level)``, ``Config.rate`` and ``Config.depth`` keep
    their defaults."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "opts.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def knob(x, *, level=3, mode='a'):\n"
        "    return x, level, mode\n\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    size: int\n"
        "    rate: float = 1.0\n"
        "    tags: list = field(default_factory=list)\n"
        "    depth: int = 2\n"
    )
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "run.py").write_text(
        "from repro.opts import Config, knob\n"
        "knob(1, mode='b')\n"
        "base = Config(4)\n"
    )
    return package, [tmp_path / "src", tools]


def test_the_option_check_names_a_planted_single_value_keyword_and_field(
    planted_options,
):
    package, roots = planted_options
    assert _option_audit(package, roots, {}) == [
        "one value only: opts.py:Config.depth",
        "one value only: opts.py:Config.rate",
        "one value only: opts.py:knob(level)",
    ]


def test_partial_replace_and_position_set_an_option(planted_options):
    package, roots = planted_options
    (roots[1] / "more.py").write_text(
        "from dataclasses import replace\n"
        "from functools import partial\n"
        "from repro.opts import Config, knob\n"
        "fast = partial(knob, level=9)\n"
        "deep = replace(Config(4), depth=3)\n"
        "wide = Config(4, 2.0)\n"
    )
    assert _option_audit(package, roots, {}) == []


def test_the_option_check_fails_on_stale_exemptions(planted_options):
    package, roots = planted_options
    exempt = {
        "opts.py:knob(level)": "still one value: fine",
        "opts.py:knob(mode)": "the consumer sets it",
        "opts.py:gone(x)": "names nothing",
    }
    assert _option_audit(package, roots, exempt) == [
        "stale exemption, no such option: opts.py:gone(x)",
        "stale exemption, set: opts.py:knob(mode)",
        "one value only: opts.py:Config.depth",
        "one value only: opts.py:Config.rate",
    ]


@pytest.fixture()
def planted_forwards(tmp_path):
    """A package whose ``run`` forwards ``Spec.limit`` into ``Net(limit)``,
    which stores it as ``self.limit = limit``, and whose ``report(total)``
    reads ``Meter.total``, a counter ``tick`` keeps changing; the consumer
    builds a ``Spec`` with no limit and reports a fresh meter."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "net.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    name: str\n"
        "    limit: int = 5\n\n"
        "class Net:\n"
        "    def __init__(self, *, limit=5):\n"
        "        self.limit = limit\n\n"
        "def run(spec):\n"
        "    return Net(limit=spec.limit)\n\n"
        "class Meter:\n"
        "    def __init__(self):\n"
        "        self.total = 0\n\n"
        "    def tick(self):\n"
        "        self.total += 1\n\n"
        "def report(*, total=0):\n"
        "    return total\n"
    )
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "run.py").write_text(
        "from repro.net import Meter, Spec, report, run\n"
        "run(Spec('a'))\n"
        "report(total=Meter().total)\n"
    )
    return package, [tmp_path / "src", tools]


def test_a_forward_of_an_unset_option_sets_nothing(planted_forwards):
    package, roots = planted_forwards
    assert _option_audit(package, roots, {}) == [
        "one value only: net.py:Net.__init__(limit)",
        "one value only: net.py:Spec.limit",
    ]


@pytest.mark.parametrize("limit", ["3", "args.limit"])
def test_a_forward_of_a_set_option_sets_its_target(planted_forwards, limit):
    """A literal, or ``args.<name>`` (CLI input), sets ``Spec.limit``, and
    the forward carries it on to ``Net(limit)``."""
    package, roots = planted_forwards
    (roots[1] / "more.py").write_text(
        "from repro.net import Spec, run\n"
        f"run(Spec('b', limit={limit}))\n"
    )
    assert _option_audit(package, roots, {}) == []


def test_a_live_attribute_is_a_value_of_its_own(planted_forwards):
    """``total=meter.total`` sets ``report(total)`` while ``tick`` keeps
    changing ``total``; once ``Meter`` only stores its own defaulted
    parameter, the same read forwards an unset option."""
    package, roots = planted_forwards
    audit = _option_audit(package, roots, {})
    assert not any("report(total)" in line for line in audit)
    module = package / "net.py"
    module.write_text(
        module.read_text(encoding="utf-8")
        .replace("(self):\n        self.total = 0", "(self, total=0):\n"
                 "        self.total = total")
        .replace("self.total += 1", "return self.total")
    )
    assert _option_audit(package, roots, {}) == [
        "one value only: net.py:Meter.__init__(total)",
        "one value only: net.py:Net.__init__(limit)",
        "one value only: net.py:Spec.limit",
        "one value only: net.py:report(total)",
    ]


def test_a_defaulted_parameter_passed_on_by_name_is_a_forward(planted_forwards):
    package, roots = planted_forwards
    module = package / "net.py"
    module.write_text(
        module.read_text(encoding="utf-8")
        + "\ndef make(*, limit=5):\n    return Net(limit=limit)\n"
    )
    (roots[1] / "more.py").write_text("from repro.net import make\nmake()\n")
    assert _option_audit(package, roots, {}) == [
        "one value only: net.py:Net.__init__(limit)",
        "one value only: net.py:Spec.limit",
        "one value only: net.py:make(limit)",
    ]
    (roots[1] / "more.py").write_text("from repro.net import make\nmake(limit=2)\n")
    assert _option_audit(package, roots, {}) == ["one value only: net.py:Spec.limit"]
