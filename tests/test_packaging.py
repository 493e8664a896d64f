"""Packaging metadata agrees with the code it ships.

Every third-party module imported under ``src/`` must be a declared
runtime dependency, every declared dependency must be imported, and the
package version has exactly one source (``repro.__version__``).  Needs
``tomllib`` (Python 3.11+); skipped on older interpreters.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def _imported_top_level_modules():
    """Top-level names of every absolute import in ``src/``."""
    modules = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def _requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def test_runtime_imports_match_declared_dependencies():
    local = {path.name for path in SRC.iterdir() if path.is_dir()}
    third_party = {
        name
        for name in _imported_top_level_modules()
        if name not in sys.stdlib_module_names and name not in local
        and name != "__future__"
    }
    declared = {
        _requirement_name(req) for req in PYPROJECT["project"]["dependencies"]
    }
    assert third_party == declared, (
        f"imported but undeclared: {sorted(third_party - declared)}; "
        f"declared but never imported: {sorted(declared - third_party)}"
    )


def test_version_has_one_source():
    project = PYPROJECT["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    dynamic = PYPROJECT["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    citation = (ROOT / "CITATION.cff").read_text()
    assert re.search(rf"^version: {re.escape(repro.__version__)}$", citation, re.M)
