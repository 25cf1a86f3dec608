"""Start-up cost: the lab loads numpy and scipy.linalg only from scipy.

``scipy.signal`` alone pulls in ``scipy.stats``, ``scipy.interpolate`` and
``scipy.optimize``, about a second of import time that every command would
pay, and ``scipy.sparse`` is not needed since the QP factors a dense KKT
matrix. The check runs in a fresh interpreter and looks after a whole
``identify`` command and a short ``track`` command, so the sysid and QP
paths are both covered and an import that was merely moved into a function
body fails it as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ballbot_lab

SRC = Path(ballbot_lab.__file__).resolve().parents[1]
HEAVY = ("scipy.signal", "scipy.stats", "scipy.sparse")

SCRIPT = """
import json, sys
from ballbot_lab import cli
rc = [cli.main([name, "--duration", seconds, "--out", sys.argv[1]])
      for name, seconds in (("identify", "10"), ("track", "2"))]
print(json.dumps({"rc": rc, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def test_identify_command_never_imports_scipy_signal_or_stats(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"rc": [0, 0], "loaded": []}
    assert (tmp_path / "identified_model.json").exists()
    assert (tmp_path / "track_summary.json").exists()
