"""Benchmark of the ballbot lab: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload track-n40|identify|nonlinear-n5 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the lab is imported from its ``src/``.
A run's experiments execute in one fresh interpreter (one process, one
caller, one BLAS thread), one command after another, within 170 s:
no experiment after the first starts later than 3 x ``--seconds``, and
one still running at 158 s is cut; those sub-seeds are reported as
``stopped`` and not counted as attempted. ``--trace 0``
reports the end-to-end metrics over the workload's sub-seeds;
``--trace 1`` runs the first sub-seed untraced and then traced and reports
per-layer metrics. The last stdout line is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a report with the machine,
seeds and per-experiment figures, also written to ``.bench_out/reports/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0      # the whole run, all children included
CUT_AT_S = 158.0         # an experiment still running then is interrupted
START_BY_FACTOR = 3.0    # no experiment after the first starts past this x --seconds
SETUP_SAMPLES = 5        # set-up is timed this many times per untraced run
DEV_SEED, HELDOUT_SEED = 0, 7


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def mixture_percentile(groups, q: float) -> float:
    """Percentile of the samples of several experiments, each weighted equally.

    An experiment with many more calls than the others (an LM run that
    rejects many candidates) does not outweigh them.
    """
    points = sorted((x, 1.0 / len(g)) for g in groups for x in g)
    target = q / 100.0 * len(groups) * (1.0 - 1e-12)
    covered = 0.0
    for x, weight in points:
        covered += weight
        if covered >= target:
            return x
    return points[-1][0]


def source_hash(root: Path) -> str:
    """Digest of the lab's sources: keys the determinism ledger."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    """Spawns worker interpreters, one at a time, within the run's time limit."""

    def __init__(self, workload, bench_out: Path, seconds: float, duration_s=None):
        self.wl = workload
        self.bench_out = bench_out
        self.duration_s = duration_s
        start = monotonic()
        self.deadline = start + RUN_LIMIT_S
        self.cut_at = start + CUT_AT_S
        self.start_by = min(start + START_BY_FACTOR * seconds, self.cut_at)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def spawn(self, mode: str, seeds=(0,), spans=None) -> dict:
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT),
               "--workload", self.wl.name, "--out", str(self.bench_out / "work"),
               "--mode", mode, "--seeds", ",".join(str(s) for s in seeds)]
        if self.duration_s is not None:
            cmd += ["--duration", repr(float(self.duration_s))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if mode != "setup":
            start_by = self.start_by if mode == "run" else self.cut_at
            cmd += ["--start-by", repr(start_by), "--cut-at", repr(self.cut_at)]
        err_path = self.bench_out / "worker.stderr"
        t_spawn = monotonic()
        with err_path.open("w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    text=True, cwd=ROOT, env=self.env)
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"problems": [f"{mode} worker timed out against the run limit"]}
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err_path.read_text()[-2000:]
            return {"problems": [f"{mode} worker exited {proc.returncode}: {tail}"]}
        res = json.loads(lines[-1])
        res["setup_s"] = res["ready"] - t_spawn
        res["problems"] = []
        return res


class Ledger:
    """Output digests per (workload, sub-seed, duration, source, libraries, CPU).

    Any two experiments with the same key, in one run or across runs in
    this checkout, must produce byte-identical files. The key holds the
    CPU and the OpenBLAS kernel set because a checkout may be run on more
    than one host, and those set the last bits of floating-point results.
    """

    def __init__(self, path: Path, base_key: str):
        self.path = path
        self.base_key = base_key
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, rep: dict, duration, env: dict) -> None:
        if rep["problems"] or "digests" not in rep:
            return
        key = "|".join([self.base_key, str(rep["seed"]), repr(duration),
                        env["python"], env["numpy"], env["scipy"],
                        env["blas_core"], env["cpu"]])
        seen = self.data.setdefault(key, rep["digests"])
        if seen != rep["digests"]:
            diff = sorted(k for k in seen if seen[k] != rep["digests"].get(k))
            rep["problems"].append(f"not deterministic: {', '.join(diff)} differ "
                                   f"from an earlier run with seed {rep['seed']}")

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, worker, setups) -> dict:
    exps = worker["experiments"]
    solver_ms = [e["solver_ms"] for e in exps]
    return {
        "wall_s": metric(statistics.median(e["wall_s"] for e in exps), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
        "solver_ms_p50": metric(mixture_percentile(solver_ms, 50.0), "ms"),
        "solver_ms_p90": metric(mixture_percentile(solver_ms, 90.0), "ms"),
        "result_cost": metric(statistics.median(
            e["summary"]["metrics"][wl.cost_key] for e in exps), "cost"),
    }


def per_layer(wl, worker) -> dict:
    """Per-layer metrics of one traced experiment and its untraced twin."""
    plain, traced = worker["experiments"]
    lay = traced["layers"]
    qp = traced["qp_results"]
    iters = [it for _, it in qp]
    capped = sum(1 for st, _ in qp if st == "max-iter")
    infeasible = sum(1 for st, _ in qp if st == "primal-infeasible")
    starts = traced.get("lm_starts", [])
    lm_iters = sum(s["iterations"] for s in starts)
    deadline_ms = 1e3 * worker["Ts_mpc"]
    mpc_ms = plain["solver_ms"] if wl.solver == "mpc_step" else []
    self_sum = sum(v["self_s"] for v in lay.values())

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("qp.solve", "qp.factor", "sysid.simulate", "numerics.zoh",
                 "numerics.rk4", "plant.step", "plant.sensor"):
        m[f"{name}.calls"] = metric(lay[name]["calls"], "count")
        m[f"{name}.self_s"] = metric(lay[name]["self_s"], "s")
    for name in ("sysid.identify", "numerics.biquad", "plant.dynamics", "plant.mix",
                 "stabilizer.outer", "stabilizer.inner", "control.mpc_step",
                 "control.reference", "control.design", "excitation.sample",
                 "harness.loop", "harness.write_csv", "harness.write_json"):
        m[f"{name}.self_s"] = metric(lay[name]["self_s"], "s")
    m.update({
        "solver.ms_p97.5": metric(mixture_percentile([plain["solver_ms"]], 97.5), "ms"),
        "qp.iterations.sum": metric(sum(iters), "count"),
        "qp.iterations.max": metric(max(iters, default=0), "count"),
        "qp.capped": metric(capped, "count"),
        "qp.infeasible": metric(infeasible, "count"),
        "qp.solved_ratio": metric(ratio(len(qp) - capped - infeasible, len(qp)), "ratio"),
        "qp.fail_share": metric(ratio(capped + infeasible, len(qp)), "ratio"),
        "qp.us_per_iteration": metric(
            ratio(1e6 * lay["qp.solve"]["self_s"], sum(iters)), "us"),
        "control.deadline_miss_share": metric(
            ratio(sum(1 for x in mpc_ms if x > deadline_ms), len(mpc_ms)), "ratio"),
        "sysid.lm.iterations": metric(lm_iters, "count"),
        "sysid.lm.starts_failed": metric(
            sum(1 for s in starts if not math.isfinite(s["cost"])), "count"),
        "sysid.simulate_per_lm_iteration": metric(
            ratio(lay["sysid.simulate"]["calls"], lm_iters), "ratio"),
        "harness.csv_bytes": metric(traced["csv_bytes"], "B"),
        "trace.wall_s": metric(traced["wall_s"], "s"),
        "trace.self_sum_s": metric(self_sum, "s"),
        "trace.untraced_wall_s": metric(plain["wall_s"], "s"),
        "trace.overhead_s": metric(traced["wall_s"] - plain["wall_s"], "s"),
        "trace.overhead_share": metric(
            (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"], "ratio"),
        "trace.spans": metric(traced["spans"], "count"),
        "trace.missing_targets": metric(len(traced["missing_targets"]), "count"),
    })
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  duration_s=None, bench_out: Path = None) -> tuple:
    """Run one benchmark run; returns (result, report)."""
    wl = WORKLOADS[workload]
    bench_out = bench_out or ROOT / ".bench_out"
    bench_out.mkdir(parents=True, exist_ok=True)
    runner = Runner(wl, bench_out, seconds, duration_s)
    seeds = wl.sub_seeds(seed, seconds)
    duration = duration_s if duration_s is not None else wl.duration_s

    if trace:
        seeds = seeds[:1]
        spans_dir = bench_out / "spans"
        spans_dir.mkdir(exist_ok=True)
        setups = []
        worker = runner.spawn("trace", seeds, spans=spans_dir / f"{wl.name}-seed{seed}.npz")
        planned = 2
    else:
        setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES - 1)]
        worker = runner.spawn("run", seeds)
        setups.append(worker)
        planned = len(seeds)
    exps = worker.get("experiments", [])
    # Sub-seeds stopped by the run's time limit are not attempted, unless
    # that leaves nothing to report: then the first one counts as failed.
    stopped = worker.get("stopped", [])
    attempted = planned - len(stopped)
    if not exps and stopped:
        attempted = 1
        worker["problems"].append("no experiment finished within the run's time "
                                  f"limit: sub-seed {stopped[0]['seed']} was cut")
    elif trace and stopped:
        worker["problems"].append(f"traced pair stopped by the time limit: {stopped}")
    src_hash = source_hash(ROOT)
    ledger = Ledger(bench_out / "digests.json", f"{wl.name}|{src_hash}")
    for e in exps:
        ledger.check(e, duration, worker["environment"])
    ledger.save()

    if trace and len(exps) == 2 and not any(e["problems"] for e in exps):
        traced = exps[1]
        if not traced["restored"]:
            traced["problems"].append("wrapped functions were not restored")
        self_sum = sum(v["self_s"] for v in traced["layers"].values())
        if abs(self_sum - traced["wall_s"]) > 1e-6 * traced["wall_s"]:
            traced["problems"].append(
                f"layer self times sum to {self_sum} s, not the traced wall "
                f"{traced['wall_s']} s")
    # An untraced run's worker is its last set-up sample; a traced run has none.
    problems = [p for w in (setups or [worker]) for p in w["problems"]]
    failed = attempted - len(exps) + sum(1 for e in exps if e["problems"])
    correct = failed == 0 and not problems
    metrics = {}
    if correct:
        metrics = (per_layer(wl, worker) if trace
                   else end_to_end(wl, worker, [w["setup_s"] for w in setups]))

    report = {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "seed_role": {DEV_SEED: "development", HELDOUT_SEED: "held-out"}.get(seed, "other"),
        "sub_seeds": seeds, "trace": trace, "duration_s": duration,
        "git_sha": git_sha(ROOT), "source_hash": src_hash,
        "environment": worker.get("environment"),
        "setup_s": [w.get("setup_s") for w in setups],
        "peak_rss_mb": worker.get("peak_rss_mb"),
        "experiments": [_rep_report(wl, e, worker["Ts_mpc"]) for e in exps],
        "stopped": stopped,
        "problems": problems + [p for e in exps for p in e["problems"]],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def _rep_report(wl, r, ts_mpc) -> dict:
    out = {k: r.get(k) for k in ("seed", "mode", "wall_s", "digests", "csv_bytes",
                                 "problems")}
    metrics = r.get("summary", {}).get("metrics", {})
    keys = (("tracking_cost", "solver_iterations_mean", "solver_iterations_max",
             "degraded_event_count", "infeasible_event_count",
             "constraint_violation_count") if wl.experiment == "track"
            else ("final_cost", "iterations", "converged"))
    out["summary"] = {k: metrics.get(k) for k in keys}
    if r.get("solver_ms"):
        ms = r["solver_ms"]
        out["solver_calls"] = len(ms)
        out["deadline_misses"] = sum(1 for x in ms if x > 1e3 * ts_mpc)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ballbot-lab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ballbot_lab" / "cli.py").is_file():
        print(f"error: no lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    reports = ROOT / ".bench_out" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps({"result": result, "report": report}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
