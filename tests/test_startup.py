"""Start-up cost: only the sysid fit loads scipy, and then only scipy.linalg.

Importing ``scipy.linalg`` costs ~0.4 s and ~23 MB, more than a short
``track`` run, so ``balance``, ``lqr`` and ``track`` run on numpy alone and
the fit imports its one BLAS kernel (``ztbsv``) on first use.
``scipy.signal`` would pull in ``scipy.stats``, ``scipy.interpolate`` and
``scipy.optimize`` on top, and ``scipy.sparse`` is not needed since the QP
works on dense matrices. The checks run the commands one after another in a
fresh interpreter, so an import that was merely moved into a function body
fails them as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballbot_lab

SRC = Path(ballbot_lab.__file__).resolve().parents[1]
HEAVY = ("scipy.signal", "scipy.stats", "scipy.sparse")

SCRIPT = """
import json, sys
from ballbot_lab import cli

def subpackages():
    return sorted(m for m, mod in list(sys.modules.items())
                  if m.startswith("scipy.") and m.count(".") == 1
                  and not m.split(".")[1].startswith("_") and hasattr(mod, "__path__"))

report = {}
for name, seconds in (("balance", "2"), ("lqr", "2"), ("track", "2"), ("identify", "10")):
    rc = cli.main([name, "--duration", seconds, "--out", sys.argv[1]])
    report[name] = {"rc": rc, "scipy": [m for m in sys.modules if m.startswith("scipy")],
                    "subpackages": subpackages(), "heavy": [m for m in %r if m in sys.modules]}
print(json.dumps(report))
""" % (HEAVY,)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """What each command, run in order in one fresh interpreter, left loaded."""
    out = tmp_path_factory.mktemp("startup")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("balance", "lqr", "track", "identify"):
        assert (out / f"{name}_summary.json").exists()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_balance_lqr_and_track_commands_never_import_scipy(commands):
    for name in ("balance", "lqr", "track"):
        assert commands[name]["rc"] == 0
        assert commands[name]["scipy"] == [], name


def test_identify_command_never_imports_scipy_signal_or_stats(commands):
    report = commands["identify"]
    assert report["rc"] == 0
    assert report["subpackages"] == ["scipy.linalg"]
    assert report["heavy"] == []
