"""Experiment executive: wires the modules into the four standard runs.

Every experiment simulates BOTH vertical planes at the fast inner rate,
logs one telemetry row per tick, and emits a summary document. The tracking
plane carries the position y and tilt theta_x; the mirror plane carries x
and theta_y. Motor commands are mixed to the three omniwheels with the yaw
channel pinned to zero.

Determinism contract: a fixed (config, seed) pair reproduces telemetry
byte for byte. All randomness flows from the run seed through spawned
generators, and CSV floats are formatted with nine significant digits.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sysid
from .control import (MpcConfig, MpcController, SmoothStepRef,
                      build_predictor, design_lqr, smooth_step)
from .errors import ConfigError, MassMatrixSingularError, PlantFellOverError
from .excitation import MultisineSpec, sample_sequence
from .numerics import ContinuousSS, design_butterworth2, zoh_discretize
from .plant import (LinearParams, PhysicalParams, Plant, Sensor, SensorSpec,
                    build_linear_ss, linearize, mix_to_wheels)
from .stabilizer import (FeedbackGains, PidState, closed_loop_matrices,
                         outer_reference, p_step, pid_step)

__all__ = [
    "DEFAULT_CONFIG", "load_config", "validate_config", "config_hash",
    "RunResult", "run_balance", "run_identify", "run_lqr", "run_track",
    "over_excitation_sweep", "write_telemetry_csv", "write_summary_json",
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
            "Ts_sensor": 0.005,
        },
    },
    "gains": {
        "k_y": 0.0,
        "k_theta": 1.2,
        "k_ydot": 1.1,
        "k_thetadot": 0.005,
        "kp": 300.0,
        "KP": 180.0,
        "KI": 830.0,
        "KD": 50.0,
        # The plain-P identification loop is not stabilized by the balancing
        # k_thetadot on the reference model (the PID derivative term supplied
        # that damping), so identification runs with this retuned value.
        "k_thetadot_identification": 0.12,
        # Identification-loop velocity gain. At 1.0 the net velocity feedback
        # (k_ydot - 1) vanishes, which keeps the heavily quantized trackball
        # velocity out of the loop; the measured channel is still logged and
        # fitted. See the README identification notes.
        "k_ydot_identification": 1.0,
    },
    "excitation": {
        "alpha": 1.0,
        "components": [[0.14, 0.43], [1.0, 0.64], [0.27, 0.7],
                       [0.14, 3.4], [0.125, 5.1]],
    },
    "id": {
        "initial_guess": None,         # explicit [p1..p8]; default scales truth
        "initial_guess_scale": 1.3,
        "multistart_count": 4,
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
# its command at _CMD + i.
_COL = {c: j for j, c in enumerate(TELEMETRY_COLUMNS)}
_STATE = (_COL["y_cm"], _COL["x_cm"])
_VEL_REF = _COL["ydot_ref_cms"]
_CMD = _COL["u_y_ticks"]
_WHEELS = _COL["u1_ticks"]
_CSV_CHUNK_ROWS = 2048


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, val in override.items():
        kp = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(kp, "unknown key")
        if isinstance(base[key], dict) and base[key] is not None:
            if not isinstance(val, dict):
                raise ConfigError(kp, "expected a section")
            out[key] = _merge(base[key], val, kp)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None, overrides=None) -> dict:
    """Defaults, optionally merged with a JSON file and override dict."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("<file>", "top level must be an object")
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    """Cross-field checks that the section dataclasses cannot express."""
    if cfg["plant"]["mode"] not in ("linear", "nonlinear"):
        raise ConfigError("plant.mode", "must be 'linear' or 'nonlinear'")
    ts = cfg["run"]["Ts_inner"]
    if ts <= 0:
        raise ConfigError("run.Ts_inner", "must be positive")
    ratio = cfg["mpc"]["Ts_mpc"] / ts
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError("mpc.Ts_mpc", "must be an integral multiple of run.Ts_inner")
    if cfg["run"]["latency_mpc_periods"] not in (0, 1):
        raise ConfigError("run.latency_mpc_periods", "must be 0 or 1")
    for name, dur in cfg["run"]["durations"].items():
        if dur <= 0:
            raise ConfigError(f"run.durations.{name}", "must be positive")
    if len(cfg["lqr"]["Q"]) != 4:
        raise ConfigError("lqr.Q", "must have four diagonal entries")
    if len(cfg["mpc"]["Q"]) != 4:
        raise ConfigError("mpc.Q", "must have four diagonal entries")
    qn = cfg["mpc"]["Q_N"]
    if qn is not None and len(qn) != 4:
        raise ConfigError("mpc.Q_N", "must have four diagonal entries")
    p = cfg["plant"]["linear"].get("p")
    if p is not None and len(p) != 8:
        raise ConfigError("plant.linear.p", "must have eight entries")
    phys = cfg["plant"]["physical"]
    if phys is not None:
        try:
            PhysicalParams(**phys)
        except (TypeError, ValueError, MassMatrixSingularError) as exc:
            raise ConfigError("plant.physical", str(exc)) from exc


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config -> objects

def _truth_linear_params(cfg) -> LinearParams:
    sec = cfg["plant"]["linear"]
    if sec.get("p") is not None:
        return LinearParams.from_array(np.asarray(sec["p"], dtype=float), r=sec["r"])
    return LinearParams.reference(r=sec["r"])


def _physical_params(cfg) -> PhysicalParams:
    sec = cfg["plant"]["physical"]
    if sec is None:
        return PhysicalParams.reference()
    return PhysicalParams(**sec)


def _balance_gains(cfg) -> FeedbackGains:
    g = cfg["gains"]
    return FeedbackGains(k_y=g["k_y"], k_theta=g["k_theta"], k_ydot=g["k_ydot"],
                         k_thetadot=g["k_thetadot"], kp=g["kp"],
                         KP=g["KP"], KI=g["KI"], KD=g["KD"])


def _identification_gains(cfg) -> FeedbackGains:
    g = _balance_gains(cfg)
    g.k_thetadot = cfg["gains"]["k_thetadot_identification"]
    g.k_ydot = cfg["gains"]["k_ydot_identification"]
    return g


def _sensor_spec(cfg) -> SensorSpec:
    s = cfg["plant"]["sensor"]
    if not cfg["run"]["noise"]:
        return SensorSpec(0.0, 0.0, 0.0, s["Ts_sensor"])
    return SensorSpec(s["sigma_theta"], s["sigma_thetadot"],
                      s["trackball_quantum"], s["Ts_sensor"])


def _make_planes(cfg):
    """Two (plant, sensor) pairs with independent seeded noise streams."""
    mode = cfg["plant"]["mode"]
    spec = _sensor_spec(cfg)
    seeds = np.random.SeedSequence(cfg["run"]["seed"]).spawn(2)
    planes = []
    for ss in seeds:
        if mode == "linear":
            plant = Plant("linear", linear_params=_truth_linear_params(cfg))
        else:
            plant = Plant("nonlinear", physical_params=_physical_params(cfg))
        planes.append((plant, Sensor(spec, np.random.default_rng(ss))))
    return planes


def _model_for_design(cfg, model_lp) -> LinearParams:
    if model_lp is not None:
        return model_lp
    if cfg["plant"]["mode"] == "nonlinear":
        return linearize(_physical_params(cfg))
    return _truth_linear_params(cfg)


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


def _new_telemetry(n_ticks: int, Ts: float):
    """Zeroed telemetry with ``t_s`` filled, and its (ticks, 29) float view."""
    tel = np.zeros(n_ticks, dtype=TELEMETRY_DTYPE)
    buf = tel.view(np.float64).reshape(n_ticks, len(TELEMETRY_COLUMNS))
    buf[:, _COL["t_s"]] = np.arange(n_ticks) * Ts
    return tel, buf


def _finish_telemetry(tel, buf, n_logged: int):
    """Cut to the logged ticks and mix both planar commands to the wheels."""
    buf = buf[:n_logged]
    buf[:, _WHEELS:_WHEELS + 3] = np.column_stack(
        mix_to_wheels(buf[:, _CMD], buf[:, _CMD + 1], 0.0))
    return tel[:n_logged]


def _log_plane(row, plane_idx, x, xm, u, vel_ref=0.0):
    """Write one plane's state, measurement, command and velocity reference."""
    col = _STATE[plane_idx]
    row[col:col + 4] = x
    row[col + 4:col + 8] = xm
    row[_VEL_REF + plane_idx] = vel_ref
    row[_CMD + plane_idx] = u


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
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)}")


def _base_summary(cfg, name, duration) -> dict:
    return {
        "experiment": name,
        "seed": cfg["run"]["seed"],
        "config_hash": config_hash(cfg),
        "duration_s": duration,
        "Ts_inner": cfg["run"]["Ts_inner"],
        "aborted": False,
        "abort_reason": None,
        "abort_time_s": None,
        "metrics": {},
    }


def _mark_aborted(summary, exc: PlantFellOverError):
    summary["aborted"] = True
    summary["abort_reason"] = str(exc)
    summary["abort_time_s"] = exc.t


def _settling_time(t, err, t0):
    """Time after t0 from which err stays below 1 for good, or None.

    The first tick at or after t0 that follows the last tick where err is not
    below 1; one linear pass instead of testing every suffix.
    """
    start = int(np.searchsorted(t, t0))
    outside = np.flatnonzero(~(err[start:] < 1.0))
    idx = start + (int(outside[-1]) + 1 if outside.size else 0)
    return float(t[idx] - t0) if idx < len(t) else None


# ---------------------------------------------------------------------------
# experiments

def run_balance(cfg, duration=None) -> RunResult:
    """Double-loop PID balancing on both planes from an initial tilt."""
    Ts = cfg["run"]["Ts_inner"]
    duration = duration or cfg["run"]["durations"]["balance"]
    gains = _balance_gains(cfg)
    planes = _make_planes(cfg)
    theta0 = cfg["run"]["theta0_deg"]
    states = [np.array([0.0, theta0, 0.0, 0.0]), np.array([0.0, theta0, 0.0, 0.0])]
    pids = [PidState(), PidState()]
    summary = _base_summary(cfg, "balance", duration)
    max_abs_theta = 0.0
    held = True  # |theta| < 0.1 deg for every t > 10 s
    n_ticks = n_logged = int(round(duration / Ts))
    tel, buf = _new_telemetry(n_ticks, Ts)
    try:
        for k in range(n_ticks):
            row = buf[k]
            cmds = []
            for i, ((plant, sensor), x) in enumerate(zip(planes, states)):
                xm = sensor.measure(x)
                ydot_ref = outer_reference(gains, xm)
                e = ydot_ref - xm[2]
                u = pid_step(pids[i], e, gains, Ts)
                cmds.append(u)
                _log_plane(row, i, x, xm, u, ydot_ref)
            for i in range(2):
                states[i] = planes[i][0].step(states[i], cmds[i], Ts)
            max_abs_theta = max(max_abs_theta, abs(states[0][1]), abs(states[1][1]))
            if k * Ts > 10.0 and (abs(states[0][1]) >= 0.1 or abs(states[1][1]) >= 0.1):
                held = False
    except PlantFellOverError as exc:
        _mark_aborted(summary, exc)
        n_logged = k + 1
        held = False
    summary["metrics"] = {
        "balanced_after_10s": bool(held and not summary["aborted"]),
        "max_abs_theta_deg": max_abs_theta,
        "final_theta_x_deg": float(states[0][1]),
        "final_theta_y_deg": float(states[1][1]),
    }
    return RunResult("balance", _finish_telemetry(tel, buf, n_logged), summary)


def run_identify(cfg, duration=None) -> RunResult:
    """Excite the P-only loop, then fit, extract, augment, and validate."""
    Ts = cfg["run"]["Ts_inner"]
    duration = duration or cfg["run"]["durations"]["identify"]
    gains = _identification_gains(cfg)
    planes = _make_planes(cfg)
    spec = MultisineSpec(alpha_scale=cfg["excitation"]["alpha"],
                         components=tuple(tuple(c) for c in cfg["excitation"]["components"]))
    states = [np.zeros(4), np.zeros(4)]
    summary = _base_summary(cfg, "identify", duration)
    n_ticks = int(round(duration / Ts))
    exc_seq = sample_sequence(spec, Ts, duration)
    tel, buf = _new_telemetry(n_ticks, Ts)
    buf[:, _COL["d_cms"]] = exc_seq.d[:n_ticks]
    try:
        for k in range(n_ticks):
            row = buf[k]
            d = exc_seq.d[k]
            cmds = []
            for i, ((plant, sensor), x) in enumerate(zip(planes, states)):
                xm = sensor.measure(x)
                ydot_ref = outer_reference(gains, xm)
                e = ydot_ref - xm[2] + (d if i == 0 else 0.0)
                u = p_step(gains.kp, e)
                cmds.append(u)
                _log_plane(row, i, x, xm, u, ydot_ref)
            for i in range(2):
                states[i] = planes[i][0].step(states[i], cmds[i], Ts)
    except PlantFellOverError as exc:
        _mark_aborted(summary, exc)
        return RunResult("identify", _finish_telemetry(tel, buf, k + 1), summary)
    tel = _finish_telemetry(tel, buf, n_ticks)

    def logged(name):
        return np.ascontiguousarray(tel[name])

    dataset = sysid.IdDataset(Ts=Ts, d=logged("d_cms"),
                              theta=logged("theta_x_meas_deg"),
                              ydot=logged("ydot_meas_cms"),
                              thetadot=logged("thetadot_x_meas_degs"),
                              y=logged("y_meas_cm"))
    fit_ds, holdout = dataset.split_halves()
    truth = _model_for_design(cfg, None)
    id_sec = cfg["id"]
    if id_sec["initial_guess"] is not None:
        p0 = np.asarray(id_sec["initial_guess"], dtype=float)
    else:
        p0 = truth.as_array() * id_sec["initial_guess_scale"]
    id_cfg = sysid.IdConfig(
        initial_guess=p0,
        multistart_count=id_sec["multistart_count"],
        lm_lambda0=id_sec["lm_lambda0"],
        lm_tolerance=id_sec["lm_tolerance"],
        max_iterations=id_sec["max_iterations"],
        seed=cfg["run"]["seed"],
    )
    result = sysid.identify(fit_ds, gains, id_cfg)
    result.fit_rates = sysid.validate(result.p_hat, holdout, gains)

    # recover the open loop from the fitted closed loop, then re-attach the
    # position integrator: the round trip back to p_hat is the consistency
    # check of the composition algebra
    lp_hat = result.linear_params(r=truth.r)
    _, _, A_cl_r, B_cl_r = closed_loop_matrices(lp_hat, gains)
    A_r, B_r = sysid.extract_open_loop(A_cl_r, B_cl_r, gains)
    full = sysid.augment_position(ContinuousSS(A_r, B_r))

    truth_p = truth.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(result.p_hat - truth_p) / np.abs(truth_p)
    summary["metrics"] = {
        "fit_rates_percent": result.fit_rates,
        "final_cost": result.final_cost,
        "converged": result.converged,
        "iterations": result.iterations,
        "best_start": result.start_index,
        "p_hat": result.p_hat.tolist(),
        "p_truth": truth_p.tolist(),
        "rel_error_vs_truth": rel.tolist(),
        "max_abs_theta_deg": float(np.max(np.abs(dataset.theta))),
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
                     extra={"model": model_doc, "id_result": result,
                            "dataset": dataset})


def run_lqr(cfg, duration=None, model_lp: LinearParams = None) -> RunResult:
    """Regulator-only balancing from an initial tilt; position drifts."""
    Ts = cfg["run"]["Ts_inner"]
    duration = duration or cfg["run"]["durations"]["lqr"]
    design_model = _model_for_design(cfg, model_lp)
    dss = zoh_discretize(build_linear_ss(design_model), Ts)
    lqr = design_lqr(dss, np.diag(cfg["lqr"]["Q"]), [[cfg["lqr"]["R"]]])
    planes = _make_planes(cfg)
    theta0 = cfg["run"]["theta0_deg"]
    states = [np.array([0.0, theta0, 0.0, 0.0]), np.array([0.0, theta0, 0.0, 0.0])]
    summary = _base_summary(cfg, "lqr", duration)
    settle_t = None
    n_ticks = n_logged = int(round(duration / Ts))
    tel, buf = _new_telemetry(n_ticks, Ts)
    u_lqr_col = _COL["u_lqr_y_ticks"]
    try:
        for k in range(n_ticks):
            t = k * Ts
            row = buf[k]
            cmds = []
            for i, ((plant, sensor), x) in enumerate(zip(planes, states)):
                xm = sensor.measure(x)
                u = -(lqr.K @ xm)[0]
                cmds.append(u)
                _log_plane(row, i, x, xm, u)
            row[u_lqr_col] = cmds[0]
            for i in range(2):
                states[i] = planes[i][0].step(states[i], cmds[i], Ts)
            if settle_t is None and abs(states[0][1]) < 0.05:
                settle_t = t
    except PlantFellOverError as exc:
        _mark_aborted(summary, exc)
        n_logged = k + 1
    summary["metrics"] = {
        "theta_settle_time_s": settle_t,
        "final_y_cm": float(states[0][0]),
        "final_theta_x_deg": float(states[0][1]),
        "K": lqr.K.tolist(),
        "closed_loop_eig_mags": [abs(e) for e in lqr.closed_loop_eigs],
        "spectral_radius": max(abs(e) for e in lqr.closed_loop_eigs),
    }
    return RunResult("lqr", _finish_telemetry(tel, buf, n_logged), summary,
                     extra={"lqr": lqr})


def run_track(cfg, duration=None, model_lp: LinearParams = None) -> RunResult:
    """Smooth-step tracking: LQR + filtered MPC correction on the y plane."""
    Ts = cfg["run"]["Ts_inner"]
    duration = duration or cfg["run"]["durations"]["track"]
    m = int(round(cfg["mpc"]["Ts_mpc"] / Ts))
    design_model = _model_for_design(cfg, model_lp)
    dss = zoh_discretize(build_linear_ss(design_model), Ts)
    lqr = design_lqr(dss, np.diag(cfg["lqr"]["Q"]), [[cfg["lqr"]["R"]]])
    pred = build_predictor(dss, lqr.K, m=m)
    mpc_cfg = MpcConfig(
        N=cfg["mpc"]["N"],
        Q=np.diag(cfg["mpc"]["Q"]),
        Q_N=None if cfg["mpc"]["Q_N"] is None else np.diag(cfg["mpc"]["Q_N"]),
        R=cfg["mpc"]["R"],
        theta_max=cfg["mpc"]["theta_max"],
        ydot_max=cfg["mpc"]["ydot_max"],
        thetadot_max=cfg["mpc"]["thetadot_max"],
        u_max=cfg["mpc"]["u_max"],
        Ts_mpc=cfg["mpc"]["Ts_mpc"],
    )
    controller = MpcController(pred, mpc_cfg)
    ref_spec = SmoothStepRef(t0=cfg["reference"]["t0"],
                             amplitude=cfg["reference"]["amplitude"],
                             T_rise=cfg["reference"]["T_rise"])
    filt = design_butterworth2(cfg["mpc"]["filter_fc_hz"], 1.0 / Ts)
    latency = cfg["run"]["latency_mpc_periods"]
    planes = _make_planes(cfg)
    states = [np.zeros(4), np.zeros(4)]
    summary = _base_summary(cfg, "track", duration)
    target = ref_spec.amplitude
    u_mpc_raw = 0.0
    pending = None
    viol = clamped = 0
    max_th = max_yd = max_thd = max_u_mpc = 0.0
    iter_counts = []
    y_trace = []
    n_ticks = n_logged = int(round(duration / Ts))
    tel, buf = _new_telemetry(n_ticks, Ts)
    # u_lqr_y_ticks, u_mpc_raw_ticks, u_mpc_filt_ticks, y_ref_cm are adjacent
    mpc_cols = slice(_COL["u_lqr_y_ticks"], _COL["y_ref_cm"] + 1)
    try:
        for k in range(n_ticks):
            t = k * Ts
            xm = [planes[i][1].measure(states[i]) for i in range(2)]
            if k % m == 0:
                preview = np.stack([smooth_step(ref_spec, t + j * mpc_cfg.Ts_mpc)
                                    for j in range(mpc_cfg.N + 1)])
                u_new, info = controller.mpc_step(xm[0], preview)
                iter_counts.append(info["iterations"])
                # a solve stopped at its cap may return an input off the box
                u_box = min(max(u_new, -mpc_cfg.u_max), mpc_cfg.u_max)
                clamped += u_box != u_new
                u_new = u_box
                if latency == 0:
                    u_mpc_raw = u_new
                else:
                    if pending is not None:
                        u_mpc_raw = pending
                    pending = u_new
            u_mpc_filt = filt.step(u_mpc_raw)
            u_lqr_y = -(lqr.K @ xm[0])[0]
            u_y = u_lqr_y + u_mpc_filt
            u_x = -(lqr.K @ xm[1])[0]
            row = buf[k]
            _log_plane(row, 0, states[0], xm[0], u_y)
            _log_plane(row, 1, states[1], xm[1], u_x)
            row[mpc_cols] = (u_lqr_y, u_mpc_raw, u_mpc_filt,
                             smooth_step(ref_spec, t)[0])
            states[0] = planes[0][0].step(states[0], u_y, Ts)
            states[1] = planes[1][0].step(states[1], u_x, Ts)
            x0 = states[0]
            y_trace.append(x0[0])
            max_th = max(max_th, abs(x0[1]))
            max_yd = max(max_yd, abs(x0[2]))
            max_thd = max(max_thd, abs(x0[3]))
            max_u_mpc = max(max_u_mpc, abs(u_mpc_raw))
            if (abs(x0[1]) > mpc_cfg.theta_max or abs(x0[2]) > mpc_cfg.ydot_max
                    or abs(x0[3]) > mpc_cfg.thetadot_max
                    or abs(u_mpc_raw) > mpc_cfg.u_max):
                viol += 1
    except PlantFellOverError as exc:
        _mark_aborted(summary, exc)
        n_logged = k + 1
    tel = _finish_telemetry(tel, buf, n_logged)

    # y after each completed step, scored against the reference logged at
    # the start of that tick
    y_arr = np.array(y_trace) if y_trace else np.zeros(1)
    t_arr = np.arange(len(y_arr)) * Ts
    err = np.abs(y_arr - target)
    tail = y_arr[t_arr >= t_arr[-1] - 5.0] if len(y_arr) > 1 else y_arr
    tracking_cost = float(np.sum((y_arr - tel["y_ref_cm"][:len(y_arr)]) ** 2) * Ts)
    summary["metrics"] = {
        "steady_state_error_cm": float(np.mean(np.abs(tail - target))),
        "final_y_cm": float(y_arr[-1]),
        "settling_time_s": _settling_time(t_arr, err, ref_spec.t0),
        "max_abs_theta_deg": max_th,
        "max_abs_ydot_cms": max_yd,
        "max_abs_thetadot_degs": max_thd,
        "max_abs_u_mpc_ticks": max_u_mpc,
        "constraint_violation_count": viol,
        "infeasible_event_count": controller.infeasible_events,
        "degraded_event_count": controller.degraded_events,
        "clamped_event_count": clamped,
        "solver_iterations_mean": float(np.mean(iter_counts)) if iter_counts else 0.0,
        "solver_iterations_max": int(np.max(iter_counts)) if iter_counts else 0,
        "tracking_cost": tracking_cost,
    }
    return RunResult("track", tel, summary, extra={"controller": controller})


def over_excitation_sweep(cfg, alphas, duration=30.0):
    """Largest excitation scale that keeps the loop within the tilt box.

    Runs the noiseless identification loop for each scale and reports the
    peak tilt; the usable scale is the largest one with max |theta| <= 3 deg
    and no fall-over.
    """
    results = []
    for alpha in alphas:
        sub = copy.deepcopy(cfg)
        sub["excitation"]["alpha"] = float(alpha)
        sub["run"]["noise"] = False
        res = run_identify_loop_only(sub, duration)
        results.append(res)
    usable = [r["alpha"] for r in results
              if not r["fell_over"] and r["max_abs_theta_deg"] <= 3.0]
    return {"sweep": results, "largest_usable_alpha": max(usable) if usable else None}


def run_identify_loop_only(cfg, duration) -> dict:
    """Simulate the identification loop without fitting (sweep helper)."""
    Ts = cfg["run"]["Ts_inner"]
    gains = _identification_gains(cfg)
    planes = _make_planes(cfg)
    spec = MultisineSpec(alpha_scale=cfg["excitation"]["alpha"],
                         components=tuple(tuple(c) for c in cfg["excitation"]["components"]))
    exc_seq = sample_sequence(spec, Ts, duration)
    x = np.zeros(4)
    max_th = 0.0
    fell = False
    try:
        for k in range(int(round(duration / Ts))):
            xm = planes[0][1].measure(x)
            e = outer_reference(gains, xm) - xm[2] + exc_seq.d[k]
            u = p_step(gains.kp, e)
            x = planes[0][0].step(x, u, Ts)
            max_th = max(max_th, abs(x[1]))
    except PlantFellOverError:
        fell = True
    return {"alpha": cfg["excitation"]["alpha"], "max_abs_theta_deg": max_th,
            "fell_over": fell}
