"""The committed output manifest: what the lab's commands write, pinned across commits.

``tests/golden/outputs.json`` holds, for the fixed command list below, each
command's exit code, the sha256 of every file it writes and the metrics of
every summary it writes, with the environment the digests were taken in.
``tests/test_manifest.py`` reruns the commands (the runs are shared with
C12). In the recorded environment every file must match byte for byte. In
another one the byte check is reported as skipped, with both environments,
and the summary metrics are compared to ``REL_TOL`` relative; they are
compared in the recorded environment too.

To see which outputs a change moves, without touching the file, run

    PYTHONPATH=src python tests/manifest.py --check

It reruns the commands, prints every file whose bytes (or every command
whose exit code) differ from the manifest, and exits 1 if any do, 0 if
none do. After a change that moves outputs on purpose, rewrite the file with

    PYTHONPATH=src python tests/manifest.py

and list each moved file with its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
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


def _blas_core() -> str:
    """The kernel set numpy's OpenBLAS runs (picked from the CPU, or forced
    with ``OPENBLAS_CORETYPE``): its summation order sets the last bits."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> dict:
    """What sets the last bits of the outputs besides the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _blas_core(),
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


def moved(golden: dict, runs: dict) -> list:
    """``name`` for each exit code and ``name/file`` for each file (written,
    or recorded but not written) that differs from the manifest."""
    out = []
    for name, run in runs.items():
        expected = golden["commands"][name]
        if run["exit_code"] != expected["exit_code"]:
            out.append(f"{name}: exit code {expected['exit_code']} -> {run['exit_code']}")
        written = digests(run["dir"])
        out += [f"{name}/{file}" for file in sorted(written.keys() | expected["sha256"].keys())
                if written.get(file) != expected["sha256"].get(file)]
    return out


def check(runs: dict) -> int:
    """Print what moved against the manifest; 1 if anything did, else 0."""
    golden, env = json.loads(MANIFEST.read_text()), environment()
    if env != golden["environment"]:
        print(f"note: this environment {env} is not the manifest's "
              f"{golden['environment']}; the last bits of the outputs may differ")
    diffs = moved(golden, runs)
    print("\n".join(diffs) if diffs else "no output moved")
    return 1 if diffs else 0


def main(argv=None) -> int:
    """Run the commands in a temporary directory; rewrite the manifest, or
    with ``--check`` compare with it."""
    ap = argparse.ArgumentParser(description="Rerun the manifest commands.")
    ap.add_argument("--check", action="store_true",
                    help="list the outputs that moved and exit 1 if any did; "
                         "the manifest is not rewritten")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_commands(Path(tmp))
        if args.check:
            return check(runs)
        doc = record(runs)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({sum(len(c['sha256']) for c in doc['commands'].values())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
