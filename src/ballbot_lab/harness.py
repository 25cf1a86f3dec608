"""Experiment executive: wires the modules into the four standard runs.

Every experiment has one skeleton: it resolves its duration
(``_duration``), designs its controller (the model-based ones through
``_design``), and runs the same tick loop (``_simulate``) over BOTH vertical
planes at the fast inner rate from an initial tilt; the loop logs one
telemetry row per tick, and each run emits a summary document.
The tracking plane carries the position y and tilt theta_x; the mirror
plane carries x and theta_y. Motor commands are mixed to the three
omniwheels with the yaw channel pinned to zero.

Determinism contract: a fixed (config, seed) pair reproduces telemetry
byte for byte. All randomness flows from the run seed through spawned
generators, and CSV floats are formatted with nine significant digits.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it with the lab, not in a run

from . import sysid
from .control import (MpcConfig, MpcController, SmoothStepRef,
                      build_predictor, design_lqr, smooth_step)
from .errors import (ConfigError, IdentificationFailedError, MassMatrixSingularError,
                     PlantBlowUpError, PlantFellOverError, StabilizabilityError)
from .excitation import MultisineSpec, sample_sequence
from .numerics import design_butterworth2, zoh_discretize
from .plant import (LinearParams, PhysicalParams, Plant, Sensor, SensorSpec,
                    build_linear_ss, linearize, mix_to_wheels)
from .stabilizer import (FeedbackGains, PidState, outer_reference, p_step,
                         pid_step)

__all__ = [
    "DEFAULT_CONFIG", "load_config", "validate_config", "config_hash",
    "RunResult", "run_balance", "run_identify", "run_lqr", "run_track",
    "write_telemetry_csv", "write_summary_json",
    "TELEMETRY_COLUMNS", "TELEMETRY_DTYPE",
]

DEFAULT_CONFIG = {
    "plant": {
        "mode": "linear",              # linear | nonlinear
        "linear": {
            # null entries mean "use the reference table scaled by r"
            "r": 10.9,
            "p": None,                 # optional explicit [p1..p8]
        },
        "physical": None,              # optional explicit PhysicalParams fields
        "sensor": {
            "sigma_theta": 0.05,
            "sigma_thetadot": 0.2,
            "trackball_quantum": 0.05,
        },
    },
    "gains": {
        **asdict(FeedbackGains()),
        # the P-only identification loop's two retuned gains
        "k_thetadot_identification": FeedbackGains.identification().k_thetadot,
        "k_ydot_identification": FeedbackGains.identification().k_ydot,
    },
    "excitation": {
        "alpha": 1.0,
        "components": [[0.14, 0.43], [1.0, 0.64], [0.27, 0.7],
                       [0.14, 3.4], [0.125, 5.1]],
    },
    "id": {
        "initial_guess": None,         # explicit [p1..p8]; default scales truth
        "initial_guess_scale": 1.3,
        "lm_lambda0": 1e-3,
        "lm_tolerance": 1e-10,
        "max_iterations": 500,
    },
    "lqr": {
        "Q": [20.0, 100.0, 10.0, 50.0],
        "R": 200.0,
    },
    "mpc": {
        "N": 40,
        "Q": [1000.0, 0.0, 0.0, 0.0],
        "Q_N": None,
        "R": 0.3,
        "theta_max": 3.0,
        "ydot_max": 15.0,
        "thetadot_max": 25.0,
        "u_max": 1000.0,
        "Ts_mpc": 0.1,
        "filter_fc_hz": 1.0,
    },
    "reference": {
        "t0": 5.0,
        "amplitude": 20.0,
        "T_rise": 2.0,
    },
    "run": {
        "seed": 0,
        "Ts_inner": 0.005,
        "latency_mpc_periods": 0,
        "noise": True,
        "theta0_deg": 2.0,
        "durations": {
            "balance": 20.0,
            "identify": 120.0,
            "lqr": 10.0,
            "track": 40.0,
        },
    },
}

TELEMETRY_COLUMNS = [
    "t_s",
    "y_cm", "theta_x_deg", "ydot_cms", "thetadot_x_degs",
    "y_meas_cm", "theta_x_meas_deg", "ydot_meas_cms", "thetadot_x_meas_degs",
    "x_cm", "theta_y_deg", "xdot_cms", "thetadot_y_degs",
    "x_meas_cm", "theta_y_meas_deg", "xdot_meas_cms", "thetadot_y_meas_degs",
    "d_cms", "ydot_ref_cms", "xdot_ref_cms",
    "u_y_ticks", "u_x_ticks",
    "u_lqr_y_ticks", "u_mpc_raw_ticks", "u_mpc_filt_ticks", "y_ref_cm",
    "u1_ticks", "u2_ticks", "u3_ticks",
]

# One float64 field per column, so a logged row reads as row["u_y_ticks"].
TELEMETRY_DTYPE = np.dtype([(c, np.float64) for c in TELEMETRY_COLUMNS])

# Column indices into the (ticks, 29) float view of the telemetry. Plane i
# (0 = y/theta_x, 1 = x/theta_y) logs its true state at _STATE[i]:+4, its
# measurement at _STATE[i]+4:+8, its velocity reference at _VEL_REF + i and
# its command at _CMD + i. The two planes' 16 state and measurement columns
# are adjacent (_PLANES).
_COL = {c: j for j, c in enumerate(TELEMETRY_COLUMNS)}
_STATE = (_COL["y_cm"], _COL["x_cm"])
_PLANES = slice(_COL["y_cm"], _COL["thetadot_y_meas_degs"] + 1)
_VEL_REF = _COL["ydot_ref_cms"]
_CMD = _COL["u_y_ticks"]
_WHEELS = _COL["u1_ticks"]
_CSV_CHUNK_ROWS = 256


def _merge(base, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(path or "--config", "must be an object")
    out = copy.deepcopy(base)
    for key, val in override.items():
        kp = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(kp, "unknown key")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, kp)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None, overrides=None) -> dict:
    """Defaults, optionally merged with a JSON file and override dict."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:  # no such file, or not JSON text
            raise ConfigError("--config", f"cannot read {path}: {exc}") from exc
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


# One rule per leaf of DEFAULT_CONFIG: (kind, low, high, also). kind is float
# (any real number), int, bool, a tuple of the allowed strings, dict (an object
# of numbers), n (a list of n numbers) or "pairs" (a non-empty list of [amplitude,
# frequency] pairs, bounded per column). Each number lies in [low, high], so it
# is finite, or equals ``also``. A leaf whose default is null may be null.
_BOX = (float, 1e-6, 1e9, math.inf)
_WEIGHTS = (4, 0.0, 1e6)          # a negative weight makes the MPC QP nonconvex
_RULES = {
    "plant.mode": (("linear", "nonlinear"),),
    "plant.linear.r": (float, 1.0, 100.0),               # the ball radius, cm
    "plant.linear.p": (8, -1e6, 1e6),
    "plant.physical": (dict, -1e6, 1e6),                 # the fields of PhysicalParams
    "plant.sensor.sigma_theta": (float, 0.0, 100.0),
    "plant.sensor.sigma_thetadot": (float, 0.0, 1e3),
    "plant.sensor.trackball_quantum": (float, 1e-6, 10.0, 0.0),
    **{f"gains.{name}": (float, -1e6, 1e6) for name in DEFAULT_CONFIG["gains"]},
    "excitation.alpha": (float, 1e-6, 1e6),
    "excitation.components": ("pairs", (-1e3, 1e-3), (1e3, 1e3)),
    "id.initial_guess": (8, -1e6, 1e6),
    "id.initial_guess_scale": (float, 1e-3, 1e3),
    "id.lm_lambda0": (float, 1e-12, 1e12),               # the damping's own floor and cap
    "id.lm_tolerance": (float, 0.0, 1.0),
    "id.max_iterations": (int, 0, 10_000),
    "lqr.Q": _WEIGHTS,
    "lqr.R": (float, 1e-6, 1e6),                         # the Riccati equation needs R > 0
    "mpc.N": (int, 1, 200),                              # the condensed QP holds ~(4N)^2 floats
    "mpc.Q": _WEIGHTS,
    "mpc.Q_N": _WEIGHTS,                                 # null: Q_N = Q
    "mpc.R": (float, 1e-6, 1e6),                         # R > 0: a positive definite Hessian
    "mpc.theta_max": _BOX,
    "mpc.ydot_max": _BOX,
    "mpc.thetadot_max": _BOX,
    "mpc.u_max": _BOX,
    "mpc.Ts_mpc": (float, 1e-4, 100.0),
    "mpc.filter_fc_hz": (float, 1e-3, 1e3),
    "reference.t0": (float, -1e4, 1e4),
    "reference.amplitude": (float, -1e4, 1e4),
    "reference.T_rise": (float, 1e-3, 1e4),
    "run.seed": (int, 0, math.inf),                      # SeedSequence takes nonnegative entropy
    "run.Ts_inner": (float, 1e-4, 0.1),
    "run.latency_mpc_periods": (int, 0, 1),
    "run.noise": (bool,),
    "run.theta0_deg": (float, -90.0, 90.0),
    **{f"run.durations.{name}": (float, 0.0, 1e6)  # at most _MAX_TICKS ticks, too
       for name in DEFAULT_CONFIG["run"]["durations"]},
}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               dict: "an object of numbers", "pairs": "a non-empty list of number pairs"}
# at most this many inner ticks per MPC period: the predictor steps through each
_MAX_RATE_RATIO = 1000


def _is_number(v, kind=float) -> bool:
    """A JSON number of ``kind``: an integer passes as a number; true, false and NaN do not."""
    return (isinstance(v, numbers.Integral if kind is int else numbers.Real)
            and not isinstance(v, bool) and v == v)


def _rule_problem(kind, lo=None, hi=None, also=None, *, value):
    """What ``value`` breaks of the rule (kind, lo, hi, also), or None."""
    if isinstance(kind, tuple):
        return None if value in kind else "must be " + " or ".join(map(repr, kind))
    if kind is bool or kind is dict and not isinstance(value, dict):
        return None if isinstance(value, kind) else f"must be {_KIND_NAMES[kind]}"
    if kind in (int, float):
        rows, width, lo, hi = [[value]], 1, [lo], [hi]
    elif kind == "pairs":
        rows, width = (value if isinstance(value, list) and value else [None]), 2
    else:  # a list of ``kind`` numbers, or an object of numbers
        rows = [list(value.values()) if kind is dict else value]
        width = len(rows[0]) if kind is dict else kind
        lo, hi = [lo] * width, [hi] * width
    if not all(isinstance(row, list) and len(row) == width
               and all(_is_number(v, kind) for v in row) for row in rows):
        return "must be " + _KIND_NAMES.get(kind, f"a list of numbers, {kind} of them")
    for row in rows:
        for v, low, high in zip(row, lo, hi):
            if not (low <= v <= high or v == also):
                bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                return f"must be {bounds}" + ("" if also is None else f" or {also}")
    return None


def validate_config(cfg: dict):
    """Every leaf against its rule in ``_RULES``, then the rules that tie
    keys together. A value any run could not use is a ConfigError."""
    for path, rule in _RULES.items():
        keys = path.split(".")
        value = functools.reduce(dict.__getitem__, keys, cfg)
        if value is None and functools.reduce(dict.__getitem__, keys, DEFAULT_CONFIG) is None:
            continue
        problem = _rule_problem(*rule, value=value)
        if problem:
            raise ConfigError(path, problem)
    ts, mpc = cfg["run"]["Ts_inner"], cfg["mpc"]
    ratio = mpc["Ts_mpc"] / ts
    if abs(ratio - round(ratio)) > 1e-9 or not 1 <= round(ratio) <= _MAX_RATE_RATIO:
        raise ConfigError("mpc.Ts_mpc", f"must be 1 to {_MAX_RATE_RATIO} whole run.Ts_inner ticks")
    if not mpc["filter_fc_hz"] < 0.5 / ts:
        raise ConfigError("mpc.filter_fc_hz", f"must lie below half the inner rate, {0.5 / ts} Hz")
    for name in cfg["run"]["durations"]:
        _duration(cfg, name, None)
    try:
        if cfg["plant"]["physical"] is not None:
            PhysicalParams(**cfg["plant"]["physical"])
    except (TypeError, ValueError, MassMatrixSingularError) as exc:
        raise ConfigError("plant.physical", str(exc)) from exc
    try:  # the truth's transition at the inner tick, and the LQR on it
        with np.errstate(all="ignore"):
            _design(cfg, None)
    except ValueError as exc:
        key = ("plant.physical" if cfg["plant"]["mode"] == "nonlinear" else
               "plant.linear.r" if cfg["plant"]["linear"]["p"] is None else "plant.linear.p")
        raise ConfigError(key, f"no finite truth model at run.Ts_inner: {exc}") from exc
    except (StabilizabilityError, np.linalg.LinAlgError) as exc:
        raise ConfigError("lqr", f"no stabilizing LQR for the truth model: {exc}") from exc


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config -> objects

def _plant_model(cfg):
    """The truth the plants step: PhysicalParams in the nonlinear mode, else
    LinearParams (the reference table scaled by r, unless p is given)."""
    sec = cfg["plant"]
    if sec["mode"] == "nonlinear":
        phys = sec["physical"]
        return PhysicalParams.reference() if phys is None else PhysicalParams(**phys)
    lin = sec["linear"]
    if lin["p"] is None:
        return LinearParams.reference(r=lin["r"])
    return LinearParams.from_array(lin["p"], r=lin["r"])


def _balance_gains(cfg) -> FeedbackGains:
    return FeedbackGains(**{f.name: cfg["gains"][f.name] for f in fields(FeedbackGains)})


def _identification_gains(cfg) -> FeedbackGains:
    return replace(_balance_gains(cfg),
                   k_thetadot=cfg["gains"]["k_thetadot_identification"],
                   k_ydot=cfg["gains"]["k_ydot_identification"])


def _mpc_section(cfg):
    """The MPC's config and the Butterworth filter on its output."""
    sec = cfg["mpc"]
    mpc_cfg = MpcConfig(
        N=sec["N"],
        Q=np.diag(sec["Q"]),
        Q_N=None if sec["Q_N"] is None else np.diag(sec["Q_N"]),
        R=sec["R"],
        theta_max=sec["theta_max"],
        ydot_max=sec["ydot_max"],
        thetadot_max=sec["thetadot_max"],
        u_max=sec["u_max"],
        Ts_mpc=sec["Ts_mpc"],
    )
    return mpc_cfg, design_butterworth2(sec["filter_fc_hz"], 1.0 / cfg["run"]["Ts_inner"])


def _id_config(cfg) -> sysid.IdConfig:
    sec = cfg["id"]
    p0 = sec["initial_guess"]
    if p0 is None:
        p0 = _truth_model(cfg).as_array() * sec["initial_guess_scale"]
    return sysid.IdConfig(
        initial_guess=p0,
        lm_lambda0=sec["lm_lambda0"],
        lm_tolerance=sec["lm_tolerance"],
        max_iterations=sec["max_iterations"],
    )


def _make_planes(cfg):
    """Two (plant, sensor) pairs at the loop's tick, with independent seeded
    noise streams."""
    Ts = cfg["run"]["Ts_inner"]
    model = _plant_model(cfg)
    spec = (SensorSpec(**cfg["plant"]["sensor"], Ts_sensor=Ts) if cfg["run"]["noise"]
            else SensorSpec(0.0, 0.0, 0.0, Ts))
    seeds = np.random.SeedSequence(cfg["run"]["seed"]).spawn(2)
    return [(Plant(model, Ts), Sensor(spec, np.random.default_rng(ss))) for ss in seeds]


def _truth_model(cfg) -> LinearParams:
    """The truth as a linear model: the configured table, or the rigid body
    linearized."""
    model = _plant_model(cfg)
    return linearize(model) if isinstance(model, PhysicalParams) else model


def _design(cfg, model_lp):
    """The ZOH model and LQR design of ``model_lp``, or of the truth if None."""
    model = _truth_model(cfg) if model_lp is None else model_lp
    dss = zoh_discretize(build_linear_ss(model), cfg["run"]["Ts_inner"])
    return dss, design_lqr(dss, np.diag(cfg["lqr"]["Q"]), [[cfg["lqr"]["R"]]])


# The shortest identification record the fit takes: 1 s fits at seeds 0-7,
# while 0.5 s leaves a measured channel constant at every one of them.
_MIN_IDENTIFY_S = 1.0
# The longest run: 5,000 s at the default 5 ms tick, a 232 MB telemetry array.
_MAX_TICKS = 1_000_000


def _duration(cfg, name, duration) -> float:
    """Simulated seconds of a run: ``duration``, or the config's if None.

    A run must cover at least one tick and at most ``_MAX_TICKS``, and an
    identification record at least ``_MIN_IDENTIFY_S``; anything else is a
    configuration error at the ``duration`` argument or the config key.
    """
    key = "duration"
    if duration is None:
        key, duration = f"run.durations.{name}", cfg["run"]["durations"][name]
    if not 0.0 < duration < math.inf:
        raise ConfigError(key, "must be a positive, finite number of seconds")
    if name == "identify" and duration < _MIN_IDENTIFY_S:
        raise ConfigError(key, f"an identify run must last at least {_MIN_IDENTIFY_S} s")
    Ts = cfg["run"]["Ts_inner"]
    if not 1 <= round(duration / Ts) <= _MAX_TICKS:
        raise ConfigError(key, f"must cover at least one tick of {Ts} s, at most {_MAX_TICKS}")
    return duration


# ---------------------------------------------------------------------------
# results and output files

@dataclass
class RunResult:
    """One experiment's outcome.

    ``telemetry`` is a structured array of ``TELEMETRY_DTYPE``, one row per
    logged tick (cut to the ticks actually logged when the run aborted), so
    ``res.telemetry[k]["u_y_ticks"]`` reads one entry and
    ``res.telemetry["y_cm"]`` a whole column.
    """

    experiment: str
    telemetry: np.ndarray
    summary: dict
    extra: dict = field(default_factory=dict)


def write_telemetry_csv(path, telemetry, cfg_hash: str):
    """Write the hash line, the header and one ``%.9g`` line per row.

    ``telemetry`` is a ``TELEMETRY_DTYPE`` array. Rows are formatted in
    chunks of ``_CSV_CHUNK_ROWS``, so only one chunk is ever held as Python
    floats; the bytes equal ``",".join(f"{v:.9g}" for v in row)`` per row.
    """
    telemetry = np.asarray(telemetry)
    if telemetry.dtype != TELEMETRY_DTYPE:
        raise ValueError("telemetry must be an array of TELEMETRY_DTYPE")
    buf = np.ascontiguousarray(telemetry).view(np.float64).reshape(
        len(telemetry), len(TELEMETRY_COLUMNS))
    line = ",".join(["%.9g"] * len(TELEMETRY_COLUMNS)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write(",".join(TELEMETRY_COLUMNS) + "\n")
        for start in range(0, len(buf), _CSV_CHUNK_ROWS):
            chunk = buf[start:start + _CSV_CHUNK_ROWS].tolist()
            fh.write("".join([line % tuple(row) for row in chunk]))


def write_summary_json(path, summary: dict):
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_summary(cfg, name, duration, abort) -> dict:
    return {
        "experiment": name,
        "seed": cfg["run"]["seed"],
        "config_hash": config_hash(cfg),
        "duration_s": duration,
        "Ts_inner": cfg["run"]["Ts_inner"],
        "aborted": abort is not None,
        "abort_reason": None if abort is None else str(abort),
        "abort_time_s": None if abort is None else abort.t,
        "metrics": {},
    }


def _settling_time(t, err, t0, band):
    """Time after t0 from which err stays below band for good, or None.

    The first tick at or after t0 that follows the last tick where err is not
    below band; one linear pass instead of testing every suffix.
    """
    start = int(np.searchsorted(t, t0))
    outside = np.flatnonzero(~(err[start:] < band))
    idx = start + (int(outside[-1]) + 1 if outside.size else 0)
    return float(t[idx] - t0) if idx < len(t) else None


# ---------------------------------------------------------------------------
# the tick loop

def _simulate(cfg, duration, theta0_deg, control):
    """Run both planes of ``cfg`` through ``duration`` s of the digital loop.

    Both planes start at rest with tilt ``theta0_deg``. Each tick measures
    both planes, asks ``control(k, xm0, xm1, row)`` for the two planar
    commands (it may write its own columns into the tick's telemetry
    ``row``), logs each plane's state, measurement and command, and steps
    both plants, the tracking plane first. States and measurements stay
    lists of Python floats between the calls.

    Returns the telemetry, cut to the logged ticks and with the wheel
    commands mixed in; the two planes' states, as lists, after the last
    completed tick (the initial states when the first tick aborts); and the
    error that ended the run or None: a fall, a non-finite state or a
    singular mass matrix, each with the time ``t`` of its tick's end. An
    abort leaves its tick logged but not completed: a tracking-plane step
    taken before the mirror plane fell is dropped.
    """
    Ts = cfg["run"]["Ts_inner"]
    n_ticks = int(round(duration / Ts))
    tel = np.zeros(n_ticks, dtype=TELEMETRY_DTYPE)
    buf = tel.view(np.float64).reshape(n_ticks, len(TELEMETRY_COLUMNS))
    buf[:, _COL["t_s"]] = np.arange(n_ticks) * Ts
    (plant0, sensor0), (plant1, sensor1) = _make_planes(cfg)
    x0 = [0.0, float(theta0_deg), 0.0, 0.0]
    x1 = x0.copy()
    s0, s1 = _STATE
    n_logged, abort = n_ticks, None
    try:
        for k in range(n_ticks):
            row = buf[k]
            xm0 = sensor0.measure(x0)
            xm1 = sensor1.measure(x1)
            u0, u1 = control(k, xm0, xm1, row)
            row[_PLANES] = x0 + xm0 + x1 + xm1
            row[_CMD] = u0
            row[_CMD + 1] = u1
            x0 = plant0.step(x0, u0)
            x1 = plant1.step(x1, u1)
    except (PlantFellOverError, PlantBlowUpError, MassMatrixSingularError) as exc:
        n_logged, abort = k + 1, exc
        abort.t = getattr(exc, "t", (k + 1) * Ts)  # a fall carries its plant's time
        x0, x1 = row[s0:s0 + 4].tolist(), row[s1:s1 + 4].tolist()
    buf = buf[:n_logged]
    buf[:, _WHEELS:_WHEELS + 3] = np.column_stack(
        mix_to_wheels(buf[:, _CMD], buf[:, _CMD + 1], 0.0))
    return tel[:n_logged], (x0, x1), abort


def _after_steps(tel, plane, final, abort):
    """One plane's state after each completed tick, one row per tick.

    The logged states followed by ``final`` trace the whole run; dropping
    the initial state leaves the state after each tick. After an abort
    ``final`` is the last logged state already, so it is not appended again.
    When no tick completed, the one row is the state the run started from,
    so maxima over the rows still describe the run.
    """
    col = _STATE[plane]
    logged = tel.view(np.float64).reshape(len(tel), len(TELEMETRY_COLUMNS))
    states = logged[:, col:col + 4]
    if abort is None:
        states = np.vstack([states, final])
    return states[1:] if len(states) > 1 else states


# ---------------------------------------------------------------------------
# experiments

def _outer_references(k_outer, xm0, xm1, row):
    """Both planes' speed references from the outer loop, logged in ``row``."""
    r0 = outer_reference(k_outer, xm0)
    r1 = outer_reference(k_outer, xm1)
    row[_VEL_REF] = r0
    row[_VEL_REF + 1] = r1
    return r0, r1


def _lqr_input(k, x):
    """-K x for the gain row ``k``, a tuple of floats, summed as outer_reference sums."""
    return -(k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + k[3] * x[3])


def run_balance(cfg, duration=None) -> RunResult:
    """Double-loop PID balancing on both planes from an initial tilt."""
    Ts = cfg["run"]["Ts_inner"]
    duration = _duration(cfg, "balance", duration)
    gains = _balance_gains(cfg)
    k_outer = tuple(gains.outer_vector().tolist())
    pid0, pid1 = PidState(), PidState()

    def control(k, xm0, xm1, row):
        r0, r1 = _outer_references(k_outer, xm0, xm1, row)
        return (pid_step(pid0, r0 - xm0[2], gains, Ts),
                pid_step(pid1, r1 - xm1[2], gains, Ts))

    tel, states, abort = _simulate(cfg, duration, cfg["run"]["theta0_deg"], control)
    # the larger tilt of the two planes after each completed tick
    tilt = np.maximum(np.abs(_after_steps(tel, 0, states[0], abort)[:, 1]),
                      np.abs(_after_steps(tel, 1, states[1], abort)[:, 1]))
    # |theta| < 0.1 deg after every tick that starts after 10 s
    late = tel["t_s"] > 10.0
    if abort is not None:
        held = False
    elif late.any():
        held = not np.any(tilt[late] >= 0.1)
    else:
        held = None  # a run of 10 s or less has no tick to check
    summary = _base_summary(cfg, "balance", duration, abort)
    summary["metrics"] = {
        "balanced_after_10s": held,
        "max_abs_theta_deg": float(np.max(tilt)),
        "final_theta_x_deg": float(states[0][1]),
        "final_theta_y_deg": float(states[1][1]),
    }
    return RunResult("balance", tel, summary)


def _identification_loop(cfg, duration):
    """The P-only loop with the multisine added on the tracking plane.

    Runs from rest for ``duration`` s. Returns the telemetry with
    ``d_cms`` filled, the last states, the abort or None, and the sampled
    excitation.
    """
    Ts = cfg["run"]["Ts_inner"]
    gains = _identification_gains(cfg)
    k_outer = tuple(gains.outer_vector().tolist())
    sec = cfg["excitation"]
    exc_seq = sample_sequence(MultisineSpec(sec["alpha"], sec["components"]), Ts, duration)
    d = exc_seq.d

    def control(k, xm0, xm1, row):
        r0, r1 = _outer_references(k_outer, xm0, xm1, row)
        # the mirror plane's excitation is 0.0, which also turns a -0.0
        # error into 0.0 in the logged command
        return (p_step(gains.kp, r0 - xm0[2] + d[k]),
                p_step(gains.kp, r1 - xm1[2] + 0.0))

    tel, states, abort = _simulate(cfg, duration, 0.0, control)
    tel["d_cms"] = d[:len(tel)]
    return tel, states, abort, exc_seq


def run_identify(cfg, duration=None) -> RunResult:
    """Excite the P-only loop, fit the model constants, and validate them."""
    Ts = cfg["run"]["Ts_inner"]
    duration = _duration(cfg, "identify", duration)
    tel, _, abort, exc_seq = _identification_loop(cfg, duration)
    summary = _base_summary(cfg, "identify", duration, abort)
    if abort is not None:
        return RunResult("identify", tel, summary)
    gains = _identification_gains(cfg)

    def logged(name):
        return np.ascontiguousarray(tel[name])

    dataset = sysid.IdDataset(Ts=Ts, d=logged("d_cms"),
                              theta=logged("theta_x_meas_deg"),
                              ydot=logged("ydot_meas_cms"),
                              thetadot=logged("thetadot_x_meas_degs"))
    fit_ds, holdout = dataset.split_halves()
    truth = _truth_model(cfg)
    try:
        result = sysid.identify(fit_ds, gains, _id_config(cfg))
        result.fit_rates = sysid.validate(result.p_hat, holdout, gains)
    except IdentificationFailedError as exc:  # reported as a fall is, with no time
        summary.update(aborted=True, abort_reason=str(exc))
        return RunResult("identify", tel, summary)

    full = build_linear_ss(result.linear_params(r=truth.r))

    truth_p = truth.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(result.p_hat - truth_p) / np.abs(truth_p)
    summary["metrics"] = {
        "fit_rates_percent": result.fit_rates,
        "final_cost": result.final_cost,
        "converged": result.converged,
        "iterations": result.iterations,
        "p_hat": result.p_hat.tolist(),
        "p_truth": truth_p.tolist(),
        "rel_error_vs_truth": rel.tolist(),
        "max_abs_theta_deg": float(np.max(np.abs(tel["theta_x_deg"]))),
        "excitation_peak_cms": exc_seq.peak,
        "excitation_rms_cms": exc_seq.rms,
    }
    model_doc = {
        "p_hat": result.p_hat.tolist(),
        "r": truth.r,
        "A": full.A.tolist(),
        "B": full.B.tolist(),
        "fit_rates_percent": result.fit_rates,
        "final_cost": result.final_cost,
        "converged": result.converged,
        "iterations": result.iterations,
        "diagnostics": result.diagnostics,
    }
    return RunResult("identify", tel, summary,
                     extra={"model": model_doc, "id_result": result})


def run_lqr(cfg, duration=None, model_lp: LinearParams = None) -> RunResult:
    """Regulator-only balancing from an initial tilt; position drifts."""
    duration = _duration(cfg, "lqr", duration)
    _, lqr = _design(cfg, model_lp)
    k_lqr = tuple(lqr.K[0].tolist())
    u_lqr_col = _COL["u_lqr_y_ticks"]

    def control(k, xm0, xm1, row):
        u0 = row[u_lqr_col] = _lqr_input(k_lqr, xm0)
        return u0, _lqr_input(k_lqr, xm1)

    tel, states, abort = _simulate(cfg, duration, cfg["run"]["theta0_deg"], control)
    # the start time of the first tick after which |theta_x| < 0.05 deg
    settled = np.flatnonzero(np.abs(_after_steps(tel, 0, states[0], abort)[:, 1]) < 0.05)
    summary = _base_summary(cfg, "lqr", duration, abort)
    summary["metrics"] = {
        "theta_settle_time_s": float(tel["t_s"][settled[0]]) if settled.size else None,
        "final_y_cm": float(states[0][0]),
        "final_theta_x_deg": float(states[0][1]),
        "K": lqr.K.tolist(),
        "closed_loop_eig_mags": [abs(e) for e in lqr.closed_loop_eigs],
        "spectral_radius": max(abs(e) for e in lqr.closed_loop_eigs),
    }
    return RunResult("lqr", tel, summary, extra={"lqr": lqr})


def run_track(cfg, duration=None, model_lp: LinearParams = None) -> RunResult:
    """Smooth-step tracking: LQR + filtered MPC correction on the y plane."""
    Ts = cfg["run"]["Ts_inner"]
    duration = _duration(cfg, "track", duration)
    m = int(round(cfg["mpc"]["Ts_mpc"] / Ts))
    dss, lqr = _design(cfg, model_lp)
    pred = build_predictor(dss, lqr.K, m=m)
    mpc_cfg, filt = _mpc_section(cfg)
    controller = MpcController(pred, mpc_cfg)
    ref_spec = SmoothStepRef(**cfg["reference"])
    latency = cfg["run"]["latency_mpc_periods"]
    k_lqr = tuple(lqr.K[0].tolist())
    n_ticks = int(round(duration / Ts))
    y_ref = smooth_step(ref_spec, np.arange(n_ticks) * Ts)[:, 0]
    # the MPC's reference preview at each solve's tick k, k * Ts + j * Ts_mpc
    preview_lag = np.arange(mpc_cfg.N + 1) * mpc_cfg.Ts_mpc
    previews = smooth_step(ref_spec, np.arange(0, n_ticks, m)[:, None] * Ts + preview_lag)
    # u_lqr_y_ticks, u_mpc_raw_ticks, u_mpc_filt_ticks, y_ref_cm are adjacent
    mpc_cols = slice(_COL["u_lqr_y_ticks"], _COL["y_ref_cm"] + 1)
    u_mpc_raw = 0.0
    pending = None
    clamped = 0
    iter_counts = []

    def control(k, xm0, xm1, row):
        nonlocal u_mpc_raw, pending, clamped
        if k % m == 0:
            u_new, info = controller.mpc_step(xm0, previews[k // m])
            iter_counts.append(info["iterations"])
            # a capped solve applies 0; this catches a solved input that
            # overshoots u_max within the solver's tolerance
            u_box = min(max(u_new, -mpc_cfg.u_max), mpc_cfg.u_max)
            clamped += u_box != u_new
            if latency == 0:
                u_mpc_raw = u_box
            else:
                if pending is not None:
                    u_mpc_raw = pending
                pending = u_box
        u_mpc_filt = filt.step(u_mpc_raw)
        u_lqr_y = _lqr_input(k_lqr, xm0)
        row[mpc_cols] = (u_lqr_y, u_mpc_raw, u_mpc_filt, y_ref[k])
        return u_lqr_y + u_mpc_filt, _lqr_input(k_lqr, xm1)

    tel, states, abort = _simulate(cfg, duration, 0.0, control)

    # the tracking plane after each completed tick, with that tick's MPC input
    y, th, yd, thd = _after_steps(tel, 0, states[0], abort).T
    u_raw = tel["u_mpc_raw_ticks"][:len(y)]
    viol = np.count_nonzero((np.abs(th) > mpc_cfg.theta_max)
                            | (np.abs(yd) > mpc_cfg.ydot_max)
                            | (np.abs(thd) > mpc_cfg.thetadot_max)
                            | (np.abs(u_raw) > mpc_cfg.u_max))
    # y after each completed step, scored against the reference logged at
    # the start of that tick
    target = ref_spec.amplitude
    t_arr = np.arange(len(y)) * Ts
    err = np.abs(y - target)
    tail = y[t_arr >= t_arr[-1] - 5.0]
    tracking_cost = float(np.sum((y - tel["y_ref_cm"][:len(y)]) ** 2) * Ts)
    summary = _base_summary(cfg, "track", duration, abort)
    summary["metrics"] = {
        "steady_state_error_cm": float(np.mean(np.abs(tail - target))),
        "final_y_cm": float(y[-1]),
        # settled: within 5 % of the step's size for good
        "settling_time_s": _settling_time(t_arr, err, ref_spec.t0,
                                          0.05 * abs(target)),
        "max_abs_theta_deg": float(np.max(np.abs(th))),
        "max_abs_ydot_cms": float(np.max(np.abs(yd))),
        "max_abs_thetadot_degs": float(np.max(np.abs(thd))),
        "max_abs_u_mpc_ticks": float(np.max(np.abs(u_raw))),
        "constraint_violation_count": int(viol),
        "infeasible_event_count": controller.infeasible_events,
        "degraded_event_count": controller.degraded_events,
        "clamped_event_count": clamped,
        "solver_iterations_mean": float(np.mean(iter_counts)) if iter_counts else 0.0,
        "solver_iterations_max": int(np.max(iter_counts)) if iter_counts else 0,
        # solves whose unconstrained optimum met every box (0 steps)
        "unconstrained_solve_count": iter_counts.count(0),
        "tracking_cost": tracking_cost,
    }
    return RunResult("track", tel, summary, extra={"controller": controller})
