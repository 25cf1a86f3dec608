"""Property test of the config contract: any config either is refused or runs.

Configs are drawn from the defaults by replacing one to three leaves with
values of the right and the wrong kind. For each, a short ``balance``,
``identify``, ``lqr`` or ``track`` command either exits 2 at a key path that
exists in the config and writes nothing, or exits 0 or 1 and writes every
output file of its experiment. It never raises. The draw is derandomized and
the example count fixed, so every run tests the same configs.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

from ballbot_lab import cli, harness
from ballbot_lab.plant import PhysicalParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _paths(section, prefix=""):
    for key, value in section.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


_KEY_PATHS = dict(_paths(harness.DEFAULT_CONFIG))
_LEAVES = sorted(p for p, v in _KEY_PATHS.items() if not isinstance(v, dict))
# a value of the right kind for each leaf whose default is null
_NULL_SHAPES = {"plant.linear.p": [1.0] * 8, "id.initial_guess": [1.0] * 8,
                "mpc.Q_N": [1.0] * 4,
                "plant.physical": dataclasses.asdict(PhysicalParams.reference())}
_ODD = (math.inf, -math.inf, math.nan, 0, 0.0, -1, 5e-324, 1e-300, 1e300, -1e300,
        10 ** 400, True, "x", None, [], {}, [[1.0]], [1.0, [2.0]])


def _values(default):
    """Values of the wrong kind, or (twice as often) of the right kind, for a
    leaf with this default."""
    if isinstance(default, (bool, str)):
        right = st.sampled_from([not default, "nonlinear", "rocket"])
    elif isinstance(default, (int, float)):
        right = st.sampled_from([default * 0.5, default * 2 + 1, -default, default * 1000])
    elif isinstance(default, list):
        n = len(default)
        right = st.one_of(
            st.just(default[:-1]), st.just(default + default[-1:]),
            st.lists(_values(default[0]), min_size=n, max_size=n),
            st.builds(lambda i, v: default[:i] + [v] + default[i + 1:],
                      st.integers(0, n - 1), _values(default[0])))
    else:
        right = st.builds(lambda k, v: {**default, k: v},
                          st.sampled_from(sorted(default)), _values(1.0))
    return st.one_of(st.sampled_from(_ODD), right, right)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(st.data())
def test_any_config_is_refused_or_writes_every_output(data):
    doc = {}
    for path in data.draw(st.lists(st.sampled_from(_LEAVES), min_size=1, max_size=3,
                                   unique=True), label="leaves"):
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = data.draw(_values(_NULL_SHAPES.get(path, _KEY_PATHS[path])), label=path)
    command = data.draw(st.sampled_from(["balance", "identify", "lqr", "track"]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", str(cfg), "--out", str(out),
                           "--duration", "1.5"])
        written = {p.name for p in out.iterdir()} if out.exists() else set()
    if rc == 2:
        key = re.search(r"config error at '([^']*)'", err.getvalue())
        assert key and key.group(1) in _KEY_PATHS, err.getvalue()
        assert written == set()
    else:
        assert rc in (0, 1), err.getvalue()
        expected = {f"{command}_telemetry.csv", f"{command}_summary.json"}
        if command == "identify" and rc == 0:
            expected.add("identified_model.json")
        assert written == expected, err.getvalue()


def test_every_leaf_has_one_rule():
    # a key added to DEFAULT_CONFIG without a rule would go unchecked
    assert sorted(harness._RULES) == _LEAVES
