"""The benchmark's workloads: which ``ballbot-lab`` command each one runs.

Every workload runs with sensor noise on, so the seed drives the sensor
noise and, for ``identify``, the LM multistart. A run repeats its workload
on a fixed list of sub-seeds derived from ``--seed``: as many experiments
as fit in ``--seconds`` at their typical wall on a 2-core host, at least
one. The count does not depend on how fast the program under test is.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str           # ballbot-lab subcommand
    duration_s: float | None  # --duration; None keeps the config default
    solver: str               # "mpc_step" or "simulate_syscl": timed per call
    cost_key: str             # summary metric reported as result_cost
    nominal_s: float          # typical wall of one experiment, sizes sub-seeds
    why: str
    config: dict = field(default_factory=dict)  # partial config for --config

    def outputs(self) -> tuple:
        names = [f"{self.experiment}_telemetry.csv", f"{self.experiment}_summary.json"]
        if self.experiment == "identify":
            names.append("identified_model.json")
        return tuple(names)

    def argv(self, out_dir, seed: int, config_path=None, duration_s=None) -> list:
        args = [self.experiment, "--out", str(out_dir), "--seed", str(seed),
                "--noise", "on"]
        if config_path is not None:
            args += ["--config", str(config_path)]
        duration_s = duration_s if duration_s is not None else self.duration_s
        if duration_s is not None:
            args += ["--duration", repr(float(duration_s))]
        return args

    def sub_seeds(self, seed: int, seconds: float) -> list:
        count = max(1, int(seconds // self.nominal_s))
        return [1000 * seed + j for j in range(count)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="track-n40", experiment="track", duration_s=None,
        solver="mpc_step", cost_key="tracking_cost", nominal_s=32.0,
        why="QP-bound: N=40 MPC on the linear truth plant, 400 solves of a "
            "520x520 KKT carry almost all of the wall time",
    ),
    Workload(
        name="identify", experiment="identify", duration_s=None,
        solver="simulate_syscl", cost_key="final_cost", nominal_s=6.5,
        why="sysid-bound: 24,000-tick closed-loop log, LM multistart over "
            "~650 simulations, 6.6 MB CSV; no QP",
    ),
    Workload(
        name="nonlinear-n5", experiment="track", duration_s=200.0,
        solver="mpc_step", cost_key="tracking_cost", nominal_s=10.0,
        why="plant- and loop-bound: RK4 nonlinear plant over 40,000 ticks "
            "with 2,000 small warm QP solves",
        config={"plant": {"mode": "nonlinear"}, "mpc": {"N": 5}},
    ),
)}
