"""The runtime dependencies in ``pyproject.toml`` are exactly the third-party
modules ``src/`` imports, so neither list can drift from the other: a
dependency the code no longer needs (scipy, once the fit ran on numpy alone)
leaves ``[project] dependencies``, and a new import has to be declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

import ballbot_lab

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

PKG = Path(ballbot_lab.__file__).resolve().parent
PYPROJECT = PKG.parents[1] / "pyproject.toml"


def imported_top_level_modules() -> set:
    """Top-level names of every absolute import in the package's source."""
    names = set()
    for path in PKG.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_the_third_party_imports():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"ballbot_lab"}
    assert third_party == declared
