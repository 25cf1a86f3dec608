"""Span tracer that times the lab's layers from outside.

Each target is a public name patched where the lab looks it up: a module
global (``harness`` imports ``pid_step`` into its own namespace, ``sysid``
resolves ``simulate_syscl`` as a global) or a class attribute
(``QpSolver.solve``, ``Plant.step``, ``Sensor.measure``). A wrapper records
one span per call in growing arrays (layer id, parent span, start,
end) and accumulates calls and self time per layer, where self time
is the span minus the time covered by wrapped children. Nothing is written
until the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (owner, attribute, layer). The owner is "module" or "module:Class".
TARGETS = (
    ("ballbot_lab.qp:QpSolver", "solve", "qp.solve"),
    ("ballbot_lab.qp:QpSolver", "_factor", "qp.factor"),
    ("ballbot_lab.sysid", "simulate_syscl", "sysid.simulate"),
    ("ballbot_lab.sysid", "identify", "sysid.identify"),
    ("ballbot_lab.sysid", "zoh_discretize", "numerics.zoh"),
    ("ballbot_lab.harness", "zoh_discretize", "numerics.zoh"),
    ("ballbot_lab.plant", "zoh_discretize", "numerics.zoh"),
    ("ballbot_lab.plant", "rk4_step", "numerics.rk4"),
    ("ballbot_lab.numerics:Biquad", "step", "numerics.biquad"),
    ("ballbot_lab.plant:Plant", "step", "plant.step"),
    ("ballbot_lab.plant", "nonlinear_dynamics", "plant.dynamics"),
    ("ballbot_lab.plant:Sensor", "measure", "plant.sensor"),
    ("ballbot_lab.harness", "mix_to_wheels", "plant.mix"),
    ("ballbot_lab.harness", "outer_reference", "stabilizer.outer"),
    ("ballbot_lab.harness", "pid_step", "stabilizer.inner"),
    ("ballbot_lab.harness", "p_step", "stabilizer.inner"),
    ("ballbot_lab.control:MpcController", "mpc_step", "control.mpc_step"),
    ("ballbot_lab.harness", "smooth_step", "control.reference"),
    ("ballbot_lab.harness", "design_lqr", "control.design"),
    ("ballbot_lab.harness", "build_predictor", "control.design"),
    ("ballbot_lab.harness", "sample_sequence", "excitation.sample"),
    ("ballbot_lab.harness", "write_telemetry_csv", "harness.write_csv"),
    ("ballbot_lab.harness", "write_summary_json", "harness.write_json"),
)

# The span the benchmark opens around the whole experiment command; its self
# time is the tick loop and everything else no target covers.
ROOT_LAYER = "harness.loop"

LAYERS = tuple(dict.fromkeys([ROOT_LAYER] + [t[2] for t in TARGETS]))


def resolve_owner(owner: str):
    """The module or class named by ``module`` or ``module:Class``."""
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


def current_binding(owner_obj, attr):
    """What the lab finds under ``attr``: the raw class dict entry or global."""
    if isinstance(owner_obj, type):
        return owner_obj.__dict__.get(attr)
    return getattr(owner_obj, attr, None)


class Patches:
    """Replace attributes and put the originals back, checking they stuck."""

    def __init__(self):
        self._saved = []  # (owner_obj, attr, original)
        self.missing = []

    def replace(self, owner: str, attr: str, make_wrapper):
        owner_obj = resolve_owner(owner)
        original = current_binding(owner_obj, attr)
        if original is None:
            self.missing.append(f"{owner}.{attr}")
            return
        self._saved.append((owner_obj, attr, original))
        setattr(owner_obj, attr, make_wrapper(original))

    def restore(self) -> bool:
        """Undo every patch in reverse order; True if all originals are back."""
        for owner_obj, attr, original in reversed(self._saved):
            setattr(owner_obj, attr, original)
        ok = all(current_binding(o, a) is orig for o, a, orig in self._saved)
        self._saved.clear()
        return ok


class Tracer:
    """In-memory spans plus per-layer calls and self time."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]      # stack of open span indices; -1 is "no parent"
        self._child = [0.0]    # time covered by finished children, per open span
        self.qp_results = []   # (status, iterations) of every QpSolver.solve

    def wrap(self, layer: str, fn, on_result=None):
        lid = self.layer_ids[layer]
        perf = time.perf_counter
        layer_arr, parent_arr = self.span_layer, self.span_parent
        start_arr, end_arr = self.span_start, self.span_end
        open_, child = self._open, self._child
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            idx = len(start_arr)
            layer_arr.append(lid)
            parent_arr.append(open_[-1])
            start_arr.append(0.0)
            end_arr.append(0.0)
            open_.append(idx)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                open_.pop()
                covered = child.pop()
                span = t1 - t0
                start_arr[idx] = t0
                end_arr[idx] = t1
                calls[lid] += 1
                self_s[lid] += span - covered
                child[-1] += span
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, patches: Patches):
        for owner, attr, layer in TARGETS:
            hook = self._record_qp if layer == "qp.solve" else None
            patches.replace(owner, attr,
                            lambda fn, layer=layer, hook=hook: self.wrap(layer, fn, hook))

    def _record_qp(self, sol):
        self.qp_results.append((sol.status, int(sol.iterations)))

    def layers(self) -> dict:
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for name, i in self.layer_ids.items()}

    def save(self, path):
        """Write every span as parallel arrays (numpy ``.npz``)."""
        np.savez(path,
                 layer_names=np.array(LAYERS),
                 layer=np.frombuffer(self.span_layer, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start_s=np.frombuffer(self.span_start, dtype=np.float64),
                 end_s=np.frombuffer(self.span_end, dtype=np.float64))


class CallTimer:
    """Per-call latency of one function, the only hook in an untraced run."""

    def __init__(self):
        self.samples_s = []

    def wrap(self, fn):
        perf = time.perf_counter
        samples = self.samples_s

        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(perf() - t0)

        return timed
