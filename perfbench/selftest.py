"""Self-test of the benchmark: every workload at a tiny duration.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, that the wrappers put every original function back, that a
traced experiment writes the same bytes as an untraced one, and that two
untraced experiments with one seed write the same bytes, and that an
experiment still running at the run's cut time is stopped and reported as
such. Exits 0 when all hold. Outputs go to .bench_out/selftest/.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracer
import worker
from workloads import WORKLOADS

# identify needs 6 s: on shorter logs the quantized holdout ydot channel can
# be constant, which the fit metric rejects.
TINY_DURATION_S = {"track-n40": 2.0, "identify": 6.0, "nonlinear-n5": 2.0}


def declared_metrics() -> tuple:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers, [w["name"] for w in spec["workloads"]]


def check_metrics(label, metrics, declared, failures):
    if set(metrics) != set(declared):
        failures.append(f"{label}: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            failures.append(f"{label}: {name} is {m}, expected a number in {unit}")


def check_restore(failures):
    """Install every wrapper in-process, restore, and compare identities."""
    sys.path.insert(0, str(run.ROOT / "src"))
    owners = {(o, a): tracer.current_binding(tracer.resolve_owner(o), a)
              for o, a, _ in tracer.TARGETS}
    installs = [lambda p: tracer.Tracer().install(p)]
    installs += [lambda p, t=t: p.replace(*t, tracer.CallTimer().wrap)
                 for t in worker.SOLVER_TARGETS.values()]
    for install in installs:
        patches = tracer.Patches()
        install(patches)
        if patches.missing:
            failures.append(f"targets not found: {patches.missing}")
        if not patches.restore():
            failures.append("Patches.restore reported a binding not put back")
    for (o, a), original in owners.items():
        if tracer.current_binding(tracer.resolve_owner(o), a) is not original:
            failures.append(f"{o}.{a} was not restored")


def check_cut(out, failures):
    """A run whose cut time has passed stops its first experiment and fails."""
    saved = run.CUT_AT_S
    run.CUT_AT_S = 0.0
    try:
        res, rep = run.run_benchmark("identify", 0, 1.0, False,
                                     duration_s=TINY_DURATION_S["identify"],
                                     bench_out=out / "cut")
    finally:
        run.CUT_AT_S = saved
    stopped = rep["stopped"]
    if res["correct"] or res["attempted"] != 1 or not stopped or stopped[0]["mode"] != "cut":
        failures.append(f"cut run: result {res}, stopped {stopped}")


def main() -> int:
    e2e, layers, workloads = declared_metrics()
    failures = []
    if not set(workloads) <= set(WORKLOADS):
        failures.append(f"BENCHMARK.json names unknown workloads: {workloads}")
    check_restore(failures)
    out = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    for name in WORKLOADS:
        dur = TINY_DURATION_S[name]
        digests = []
        for _ in range(2):
            res, rep = run.run_benchmark(name, 0, 1.0, False, duration_s=dur,
                                         bench_out=out / name)
            if not res["correct"]:
                failures.append(f"{name} untraced: {rep['problems']}")
                break
            digests.append(rep["experiments"][0]["digests"])
        else:
            check_metrics(f"{name} --trace 0", res["metrics"], e2e, failures)
            if digests[0] != digests[1]:
                failures.append(f"{name}: two untraced runs with seed 0 differ")
        res, rep = run.run_benchmark(name, 0, 1.0, True, duration_s=dur,
                                     bench_out=out / name)
        if not res["correct"]:
            failures.append(f"{name} traced: {rep['problems']}")
            continue
        check_metrics(f"{name} --trace 1", res["metrics"], layers, failures)
        plain, traced = rep["experiments"]
        if plain["digests"] != traced["digests"]:
            failures.append(f"{name}: traced telemetry differs from untraced")
        if res["metrics"]["trace.missing_targets"]["value"] != 0:
            failures.append(f"{name}: some wrap targets were not found")
        print(f"{name}: checked at {dur} s simulated", flush=True)
    check_cut(out, failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
