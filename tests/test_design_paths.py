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
    """The §2 map is regenerated from the tree: no module is left out."""
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
