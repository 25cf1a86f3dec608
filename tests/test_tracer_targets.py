"""The benchmark's tracer patches names in the lab; each one must still exist.

``perfbench/tracer.py`` times the layers from outside by replacing module
globals and class attributes (``harness.mix_to_wheels``, ``Plant.step``, ...).
A refactor that drops or renames one of them would silently lose that layer's
numbers, so this test resolves every target against the current ``src``.
The tracer module is imported as it is, never modified.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracer")


def test_every_target_resolves(tracer):
    missing = []
    for owner, attr, _layer in tracer.TARGETS:
        binding = tracer.current_binding(tracer.resolve_owner(owner), attr)
        if not callable(binding):
            missing.append(f"{owner}.{attr}")
    assert missing == []
