"""Start-up cost: no command loads scipy.

Importing ``scipy.linalg`` costs ~0.2-0.4 s and ~20 MB, more than a short
``track`` run, so every command runs on numpy alone: the sysid fit's modal
recursion is a numpy scan (``sysid._modal_solve``), not a BLAS band solve.
scipy stays a test dependency only, as an oracle. The checks run the four
commands one after another in one fresh interpreter and read
``sys.modules`` after each, so an import that was merely moved into a
function body fails them as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballbot_lab

SRC = Path(ballbot_lab.__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from ballbot_lab import cli

report = {}
for name, seconds in (("balance", "2"), ("lqr", "2"), ("track", "2"), ("identify", "10")):
    rc = cli.main([name, "--duration", seconds, "--out", sys.argv[1]])
    report[name] = {"rc": rc, "scipy": sorted(m for m in sys.modules
                                              if m == "scipy" or m.startswith("scipy."))}
print(json.dumps(report))
"""


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


def test_identify_command_never_imports_scipy(commands):
    assert commands["identify"]["rc"] == 0
    assert commands["identify"]["scipy"] == []
