"""Every name a module exports resolves, so a deleted name is not left in
``__all__``; and every name a submodule exports, and every public method or
property of a class in it, is loaded somewhere in the lab's own source, so
``src/`` holds no code that only the tests reach."""

import ast
import importlib
from pathlib import Path

import pytest

import ballbot_lab

SUBMODULES = [n for n in ballbot_lab.__all__ if n.islower()]
SRC = Path(ballbot_lab.__file__).parent


@pytest.mark.parametrize("name", ["ballbot_lab"] + [f"ballbot_lab.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def loaded_names() -> set:
    """Names the package's source loads: ``name``, ``from m import name``
    or ``module.name``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names.add(node.attr)
    return names


def test_every_export_is_used_in_src():
    used = loaded_names()
    unused = [f"{m}.{n}" for m in SUBMODULES
              for n in importlib.import_module(f"ballbot_lab.{m}").__all__
              if n not in used]
    assert unused == []


def test_every_public_method_is_used_in_src():
    # a method counts as used when some attribute of its name is loaded,
    # on any object: the check reads names, not types
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [f"{cls.name}.{fn.name}" for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in loaded]
    assert unused == []
