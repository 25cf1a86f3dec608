"""Every name a module exports resolves, so a deleted name is not left in ``__all__``."""

import importlib

import pytest

import ballbot_lab

SUBMODULES = [n for n in ballbot_lab.__all__ if n.islower()]


@pytest.mark.parametrize("name", ["ballbot_lab"] + [f"ballbot_lab.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
