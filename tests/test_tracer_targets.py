"""The benchmark's tracer patches names in the lab; each one must still exist.

``perfbench/tracer.py`` times the layers from outside by replacing module
globals and class attributes (``harness.mix_to_wheels``, ``Plant.step``, ...).
A refactor that drops or renames one of them would silently lose that layer's
numbers, so this test resolves every target against the current ``src``.
The tracer module is imported as it is, never modified. A second test
counts the calls the experiments make through those names.
"""

import copy
import importlib
from pathlib import Path

import pytest

from ballbot_lab import harness, plant
from ballbot_lab.control import MpcController
from ballbot_lab.numerics import Biquad
from ballbot_lab.plant import Plant, Sensor
from ballbot_lab.qp import QpSolver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracer")


def test_every_target_resolves(tracer):
    missing = []
    for owner, attr, _layer in tracer.TARGETS:
        binding = tracer.current_binding(tracer.resolve_owner(owner), attr)
        if not callable(binding):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_tick_loop_calls_traced_names(tracer, monkeypatch):
    """The experiments reach each traced name as often as the loop implies.

    A name that still resolves but is no longer called through the patched
    binding (pre-bound as a local, say) would read zero calls in the trace.
    """
    counted = [(harness, attr) for attr in (
        "outer_reference", "pid_step", "p_step", "mix_to_wheels", "smooth_step",
        "sample_sequence", "design_lqr", "build_predictor", "zoh_discretize")]
    counted += [(plant, attr) for attr in ("zoh_discretize", "rk4_step", "nonlinear_dynamics")]
    counted += [(MpcController, "mpc_step"), (Biquad, "step"), (Plant, "step"),
                (Sensor, "measure"), (QpSolver, "_factor"), (QpSolver, "solve")]
    targets = {(tracer.resolve_owner(owner), attr)
               for owner, attr, _layer in tracer.TARGETS}
    assert set(counted) <= targets
    names = [attr if owner is harness else f"{owner.__name__.rpartition('.')[2]}.{attr}"
             for owner, attr in counted]
    calls = dict.fromkeys(names, 0)

    def counter(name, fn):
        def counted_call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted_call

    for (owner, attr), name in zip(counted, names):
        monkeypatch.setattr(owner, attr, counter(name, getattr(owner, attr)))

    def run(fn, *args, **kwargs):
        for name in calls:
            calls[name] = 0
        fn(*args, **kwargs)
        return {name: n for name, n in calls.items() if n}

    cfg = harness.load_config(overrides={"run": {"noise": False}})
    ticks = 100                                  # 0.5 s at 5 ms
    # each linear experiment discretizes its two plants once, when it builds them
    assert run(harness.run_balance, cfg, duration=0.5) == {
        "outer_reference": 2 * ticks, "pid_step": 2 * ticks, "plant.zoh_discretize": 2,
        "mix_to_wheels": 1, "Plant.step": 2 * ticks, "Sensor.measure": 2 * ticks}
    assert run(harness.run_lqr, cfg, duration=0.5) == {
        "zoh_discretize": 1, "design_lqr": 1, "mix_to_wheels": 1, "plant.zoh_discretize": 2,
        "Plant.step": 2 * ticks, "Sensor.measure": 2 * ticks}
    # the rigid body takes one RK4 step per plant step, four derivatives each
    rigid = harness.load_config(overrides={"run": {"noise": False},
                                           "plant": {"mode": "nonlinear"}})
    assert run(harness.run_lqr, rigid, duration=0.5) == {
        "zoh_discretize": 1, "design_lqr": 1, "mix_to_wheels": 1,
        "plant.rk4_step": 2 * ticks, "plant.nonlinear_dynamics": 4 * 2 * ticks,
        "Plant.step": 2 * ticks, "Sensor.measure": 2 * ticks}
    periods = ticks // 20                        # one MPC solve per 0.1 s
    assert run(harness.run_track, cfg, duration=0.5) == {
        "zoh_discretize": 1, "design_lqr": 1, "build_predictor": 1, "plant.zoh_discretize": 2,
        "MpcController.mpc_step": periods,
        "QpSolver._factor": 1,                   # once, for the one solver
        "QpSolver.solve": periods,               # every solve, 0 steps or not
        "smooth_step": 2,                        # all previews, the logged column
        "Biquad.step": ticks, "mix_to_wheels": 1,
        "Plant.step": 2 * ticks, "Sensor.measure": 2 * ticks}
    alphas = (0.5, 1.0)

    def sweep():  # the identification loop at each excitation scale
        for alpha in alphas:
            sub = copy.deepcopy(cfg)
            sub["excitation"]["alpha"] = alpha
            harness._identification_loop(sub, 0.5)

    assert run(sweep) == {
        "sample_sequence": len(alphas), "outer_reference": 2 * ticks * len(alphas),
        "p_step": 2 * ticks * len(alphas), "mix_to_wheels": len(alphas),
        "plant.zoh_discretize": 2 * len(alphas),
        "Plant.step": 2 * ticks * len(alphas),
        "Sensor.measure": 2 * ticks * len(alphas)}
