"""The committed output manifest: what the lab's commands write, pinned across commits.

``tests/golden/outputs.json`` holds, for the fixed command list below, each
command's exit code, the sha256 of every file it writes and the metrics of
every summary it writes, with the environment the digests were taken in.
``tests/test_manifest.py`` reruns the commands (the runs are shared with
C12). In the recorded environment every file must match byte for byte. In
another one the byte check is reported as skipped, with both environments,
and the summary metrics are compared to ``REL_TOL`` relative; they are
compared in the recorded environment too.

After a change that moves outputs on purpose, rewrite the file with

    PYTHONPATH=src python tests/manifest.py

and list each moved file with its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from ballbot_lab import cli

MANIFEST = Path(__file__).resolve().parent / "golden" / "outputs.json"
REWRITE = "PYTHONPATH=src python tests/manifest.py"
REL_TOL = 1e-9

# name -> ballbot-lab arguments; "pipeline" is the default pipeline of C12
COMMANDS = {
    "pipeline": ["pipeline"],
    "pipeline-seed7": ["pipeline", "--seed", "7"],
    "pipeline-noiseless": ["pipeline", "--noise", "off"],
    "pipeline-use-truth": ["pipeline", "--use-truth"],
    "track-nonlinear-20s": ["track", "--plant", "nonlinear", "--duration", "20"],
}


def _cpu_flags_digest() -> str:
    """A digest of the CPU's feature flags: they pick OpenBLAS's kernels."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.machine() + " " + platform.processor()
    flags = next((line.split(":", 1)[1].strip() for line in text.splitlines()
                  if line.startswith("flags")), "")
    return hashlib.sha256(flags.encode()).hexdigest()[:12]


def environment() -> dict:
    """What sets the last bits of the outputs besides the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_flags": _cpu_flags_digest(),
    }


def run_commands(root: Path) -> dict:
    """Run every command into its own directory under ``root``.

    Returns name -> {"exit_code", "dir", "seconds"}.
    """
    runs = {}
    for name, argv in COMMANDS.items():
        out = Path(root) / name
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--out", str(out)])
        runs[name] = {"exit_code": rc, "dir": out,
                      "seconds": time.perf_counter() - t0}
    return runs


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


def summary_metrics(out: Path) -> dict:
    return {p.name: json.loads(p.read_text())["metrics"]
            for p in sorted(Path(out).glob("*_summary.json"))}


def record(runs: dict) -> dict:
    return {
        "rewrite": REWRITE,
        "environment": environment(),
        "commands": {
            name: {"argv": COMMANDS[name], "exit_code": run["exit_code"],
                   "sha256": digests(run["dir"]),
                   "metrics": summary_metrics(run["dir"])}
            for name, run in runs.items()},
    }


def metric_mismatches(expected, actual, path="") -> list:
    """Paths where ``actual`` differs from ``expected``.

    Floats may differ by ``REL_TOL`` relative; everything else (counts,
    flags, nulls, strings, list lengths and keys) must be equal.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected
                for m in metric_mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in metric_mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if (expected == actual or (math.isnan(expected) and math.isnan(actual))
                or abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def main() -> int:
    """Run the commands in a temporary directory and rewrite the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = record(run_commands(Path(tmp)))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({sum(len(c['sha256']) for c in doc['commands'].values())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
