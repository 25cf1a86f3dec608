"""Run one experiment of one workload in a fresh interpreter.

    python3 perfbench/worker.py --root DIR --workload NAME --out DIR \
        --mode setup|run|trace [--seeds A,B,...] [--duration S] [--spans FILE] \
        [--start-by T] [--cut-at T]

``setup`` imports the lab and loads its config, then exits: the set-up
that every ``ballbot-lab`` command pays. ``run`` then runs the workload's
command once per sub-seed, one call after another, with one per-call timer
on its solver. ``trace`` runs the first sub-seed that way and then again
with every layer wrapped (see tracer.py). The last stdout line is one JSON
object.

``--start-by`` and ``--cut-at`` are CLOCK_MONOTONIC readings. No
experiment after the first starts later than ``--start-by``, and an
experiment still running at ``--cut-at`` is interrupted; both are listed
under ``stopped``. An LM multistart can take many times the usual
iterations on a few seeds, so this keeps every run within its time limit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

from tracer import ROOT_LAYER, CallTimer, Patches, Tracer
from workloads import WORKLOADS

SOLVER_TARGETS = {
    "mpc_step": ("ballbot_lab.control:MpcController", "mpc_step"),
    "simulate_syscl": ("ballbot_lab.sysid", "simulate_syscl"),
}


def monotonic() -> float:
    """System-wide clock, comparable with the parent's reading at spawn."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunCut(BaseException):
    """Raised by the alarm at ``--cut-at``; no ``except Exception`` stops it."""


def _raise_cut(signum, frame):
    raise RunCut


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seeds", default="0", help="comma-separated sub-seeds")
    ap.add_argument("--duration", type=float, default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--start-by", type=float, default=float("inf"))
    ap.add_argument("--cut-at", type=float, default=float("inf"))
    return ap.parse_args(argv)


def import_lab(root: Path):
    """Import the lab from the checkout's src/, never from anywhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ballbot_lab
    from ballbot_lab import cli, harness

    if src not in Path(ballbot_lab.__file__).resolve().parents:
        raise ImportError(f"ballbot_lab imported from {ballbot_lab.__file__}, not {src}")
    return cli, harness


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy bundle, if found."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def blas_core() -> str:
    """The CPU kernel set OpenBLAS chose; it decides the last bits of results."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def cpu_identity() -> str:
    """CPU model and a digest of its feature flags (Linux), else the platform's."""
    try:
        first_cpu = Path("/proc/cpuinfo").read_text().split("\n\n", 1)[0]
    except OSError:
        return platform.processor() or platform.machine()
    fields = dict(line.split(":", 1) for line in first_cpu.splitlines() if ":" in line)
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    flags = hashlib.sha256(fields.get("flags", "").encode()).hexdigest()[:12]
    return f"{fields.get('model name', platform.machine())} flags:{flags}"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_core": blas_core(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu_identity(),
    }


def check_outputs(wl, out_dir: Path, seed: int, duration_s: float, ts: float) -> dict:
    """Digest every output file and check what a correct run must hold."""
    res = {"digests": {}, "problems": []}
    for name in wl.outputs():
        path = out_dir / name
        if not path.is_file():
            res["problems"].append(f"missing {name}")
            continue
        data = path.read_bytes()
        res["digests"][name] = hashlib.sha256(data).hexdigest()
        if name.endswith("_telemetry.csv"):
            res["csv_bytes"] = len(data)
            res["csv_lines"] = data.count(b"\n")
            res["csv_head"] = data[:64].split(b"\n", 1)[0].decode()
    if res["problems"]:
        return res
    summary = json.loads((out_dir / wl.outputs()[1]).read_text())
    res["summary"] = summary
    if summary.get("aborted"):
        res["problems"].append(f"aborted: {summary.get('abort_reason')}")
    if summary.get("seed") != seed:
        res["problems"].append(f"summary seed {summary.get('seed')} != {seed}")
    if res["csv_head"] != f"# config_hash={summary.get('config_hash')}":
        res["problems"].append("CSV config hash differs from the summary's")
    n_ticks = int(round(duration_s / ts))
    if res["csv_lines"] != n_ticks + 2:
        res["problems"].append(f"CSV has {res['csv_lines'] - 2} rows, expected {n_ticks}")
    return res


def guarded(command, argv_cmd, res):
    """Call the command; a crash fails this experiment, not the whole run."""
    try:
        return command(argv_cmd)
    except Exception:  # the boundary: record the traceback as a failure
        res["crash"] = "command raised: " + traceback.format_exc(limit=-3)
        return None


def run_experiment(cli, cfg, wl, seed, out_dir, config_path, duration, traced, spans):
    """One ``ballbot-lab`` command, untraced (solver timer only) or traced.

    Raises RunCut, with every wrapper restored, if the alarm interrupts it.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv_cmd = wl.argv(out_dir, seed, config_path, duration)
    gc.collect()
    patches = Patches()
    res = {"seed": seed, "mode": "traced" if traced else "plain"}
    try:
        if not traced:
            timer = CallTimer()
            patches.replace(*SOLVER_TARGETS[wl.solver], timer.wrap)
            t0 = time.perf_counter()
            rc = guarded(cli.main, argv_cmd, res)
            res["wall_s"] = time.perf_counter() - t0
            res["solver_ms"] = [s * 1e3 for s in timer.samples_s]
        else:
            tracer = Tracer()
            tracer.install(patches)
            rc = guarded(tracer.wrap(ROOT_LAYER, cli.main), argv_cmd, res)
            res["wall_s"] = tracer.span_end[0] - tracer.span_start[0]
            res["layers"] = tracer.layers()
            res["qp_results"] = tracer.qp_results
            res["spans"] = len(tracer.span_start)
            if spans:
                tracer.save(spans)
    finally:
        res["missing_targets"] = patches.missing
        res["restored"] = patches.restore()
    res["rc"] = rc

    duration_s = duration or wl.duration_s or cfg["run"]["durations"][wl.experiment]
    crash = res.pop("crash", None)
    res.update(check_outputs(wl, out_dir, seed, duration_s, cfg["run"]["Ts_inner"]))
    if crash:
        res["problems"].append(crash)
    elif rc != 0:
        res["problems"].append(f"command exited {rc}")
    if wl.experiment == "identify" and "summary" in res:
        model = json.loads((out_dir / "identified_model.json").read_text())
        res["lm_starts"] = model["diagnostics"]["starts"]
    return res


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    cli, harness = import_lab(root)
    cfg = harness.load_config(None, wl.config or None)
    result = {"ready": monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    config_path = None
    if wl.config:
        config_path = out_dir.parent / f"{wl.name}_config.json"
        config_path.write_text(json.dumps(wl.config))
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.mode == "trace":
        plan = [(seeds[0], False), (seeds[0], True)]
    else:
        plan = [(seed, False) for seed in seeds]
    result["experiments"], result["stopped"] = [], []
    signal.signal(signal.SIGALRM, _raise_cut)
    for i, (seed, traced) in enumerate(plan):
        now = monotonic()
        if i and now > min(args.start_by, args.cut_at):
            result["stopped"].append({"seed": seed, "mode": "not started"})
            continue
        try:
            if args.cut_at < float("inf"):
                signal.setitimer(signal.ITIMER_REAL, max(1e-3, args.cut_at - now))
            result["experiments"].append(run_experiment(
                cli, cfg, wl, seed, out_dir, config_path, args.duration, traced,
                args.spans))
        except RunCut:
            result["stopped"].append({"seed": seed, "mode": "cut",
                                      "ran_s": monotonic() - now})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    result["Ts_mpc"] = cfg["mpc"]["Ts_mpc"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
