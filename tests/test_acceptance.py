"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Three target clauses are provably unattainable with the reference model
constants taken at face value; they are implemented exactly as stated and
marked xfail(strict=True) so the expected failure is itself machine-checked.
The full analysis is in the README's "Known limitations" section:

  * C2  - the identification-loop composition with the hand-tuned balancing
          gains has eigenvalues +2.32 +/- 9.55j (the PID derivative term,
          absent from the P-only loop, was supplying that damping);
  * C5  - the 10 percent parameter-recovery clause: at the default sensor
          noise the fitted cost at the true parameters exceeds the cost at
          the (wrong) estimate, so no optimizer can land within 10 percent;
  * C9  - the tracking clauses: the model's own velocity damping caps the
          sustainable ball speed at ~0.12 cm/s under the tilt/input boxes,
          so a 20 cm transfer needs >= ~160 s for ANY controller.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from ballbot_lab import cli
from ballbot_lab.control import build_predictor, design_lqr
from ballbot_lab.harness import load_config, run_identify, run_track
from ballbot_lab.numerics import (design_butterworth2, eigenvalues,
                                  nrmse_fit, solve_dare, zoh_discretize)
from ballbot_lab.plant import LinearParams, build_linear_ss
from ballbot_lab.qp import QpProblem, QpSolver
from ballbot_lab.stabilizer import (FeedbackGains, closed_loop, feedback_row,
                                    outer_reference, p_step)

from oracles import (biquad_gain, eig_via_char_poly, enumerate_box_qp,
                     expm_series, extract_open_loop, literal_lift, objective,
                     simulate_discrete)

TS = 0.005
LP = LinearParams.reference()


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- expensive shared runs ---------------------------------------------------

@pytest.fixture(scope="module")
def noiseless_identify():
    cfg = load_config()
    cfg["run"]["noise"] = False
    t0 = time.time()
    res = run_identify(cfg)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def noisy_identify():
    cfg = load_config()  # default SensorSpec, fixed seed 0
    t0 = time.time()
    res = run_identify(cfg)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def track_n40():
    cfg = load_config()
    cfg["run"]["noise"] = False
    t0 = time.time()
    res = run_track(cfg)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def track_n5():
    cfg = load_config()
    cfg["run"]["noise"] = False
    cfg["mpc"]["N"] = 5
    t0 = time.time()
    res = run_track(cfg)
    return res, time.time() - t0


# -- criterion 1 -------------------------------------------------------------

def test_c01_open_loop_instability():
    t0 = time.time()
    A = build_linear_ss(LP).A
    qr_eigs = np.sort_complex(np.array(eigenvalues(A)))
    oracle = np.sort_complex(eig_via_char_poly(A))
    agreement = float(np.max(np.abs(qr_eigs - oracle)))
    max_re = max(e.real for e in qr_eigs)
    elapsed = time.time() - t0
    ok = max_re > 0 and agreement < 1e-8 and elapsed < 1.0
    report("C1", ok, f"open-loop max Re = {max_re:+.4f} (> 0), "
                     f"QR vs char-poly agreement {agreement:.2e} (< 1e-8), "
                     f"runtime {elapsed:.2f} s (< 1)")
    assert max_re > 0
    assert agreement < 1e-8
    assert elapsed < 1.0


# -- criterion 2 -------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="known-unattainable target: composing the reference model with "
           "the hand-tuned balancing gains gives eigenvalues +2.32 +/- 9.55j "
           "(not Hurwitz); the P-only loop lacks the damping the PID "
           "derivative term was providing. See README known limitations. "
           "The lab's identification loop uses a retuned tilt-rate gain and "
           "IS Hurwitz (next test).")
def test_c02_identification_loop_hurwitz_as_stated():
    gains = FeedbackGains()  # kp=300, F = [0, 1.2, 0.1, 0.005]
    ss = build_linear_ss(LP)
    A_r = closed_loop(ss.A, ss.B, feedback_row(gains), gains.kp)[0][1:, 1:]
    max_re = max(e.real for e in eigenvalues(A_r))
    report("C2", max_re < 0,
           f"A_CL with published gains: max Re = {max_re:+.4f} "
           f"(target demands Hurwitz; expected failure, see README)")
    assert max_re < 0


def test_c02_supplementary_artifact_identification_loop_is_hurwitz():
    t0 = time.time()
    gains = FeedbackGains.identification()
    gains.k_ydot = 1.0  # the experiment default; see README
    ss = build_linear_ss(LP)
    A_r = closed_loop(ss.A, ss.B, feedback_row(gains), gains.kp)[0][1:, 1:]
    max_re = max(e.real for e in eigenvalues(A_r))
    elapsed = time.time() - t0
    report("C2*", max_re < 0,
           f"artifact identification loop (retuned gains): "
           f"max Re = {max_re:+.4f} (< 0), runtime {elapsed:.2f} s")
    assert max_re < 0
    assert elapsed < 1.0


# -- criterion 3 -------------------------------------------------------------

def test_c03_composition_roundtrip_and_simulation_consistency():
    ss = build_linear_ss(LP)
    worst_rt = 0.0
    for gains in (FeedbackGains(), FeedbackGains.identification()):
        A, B = extract_open_loop(*closed_loop(ss.A, ss.B, feedback_row(gains), gains.kp),
                                 gains)
        worst_rt = max(worst_rt, np.max(np.abs(A - ss.A)), np.max(np.abs(B - ss.B)))
    # componentwise loop vs composed system over 1000 steps
    gains = FeedbackGains.identification()
    dss = zoh_discretize(ss, TS)
    A_cl, B_cl = closed_loop(dss.A_d, dss.B_d, feedback_row(gains), gains.kp)
    rng = np.random.default_rng(123)
    d = rng.normal(size=1000)
    x = np.zeros(4)
    component = np.empty((1000, 4))
    for k in range(1000):
        component[k] = x
        u = p_step(gains.kp, outer_reference(gains.outer_vector(), x) - x[2] + d[k])
        x = dss.A_d @ x + dss.B_d[:, 0] * u
    composed = simulate_discrete(A_cl, B_cl, np.zeros(4), d)
    sim_gap = float(np.max(np.abs(component - composed)))
    ok = worst_rt < 1e-12 and sim_gap < 1e-9
    report("C3", ok, f"extraction round trip {worst_rt:.2e} (< 1e-12), "
                     f"componentwise vs composed over 1000 steps {sim_gap:.2e} (< 1e-9)")
    assert worst_rt < 1e-12
    assert sim_gap < 1e-9


# -- criterion 4 -------------------------------------------------------------

def test_c04_noiseless_identification(noiseless_identify):
    res, elapsed = noiseless_identify
    m = res.summary["metrics"]
    rel = np.array(m["rel_error_vs_truth"])
    fits = m["fit_rates_percent"]
    ok = (not res.summary["aborted"] and np.max(rel) < 1e-3
          and all(v >= 99.9 for v in fits.values()) and elapsed < 60.0)
    report("C4", ok,
           f"noiseless recovery: max rel err {np.max(rel) * 100:.2e} % (< 0.1 %), "
           f"fits {fits['theta']:.2f}/{fits['ydot']:.2f}/{fits['thetadot']:.2f} % "
           f"(>= 99.9), runtime {elapsed:.0f} s (< 60)")
    assert not res.summary["aborted"]
    assert np.max(rel) < 1e-3
    assert all(v >= 99.9 for v in fits.values())
    assert elapsed < 60.0


# -- criterion 5 -------------------------------------------------------------

def test_c05_noisy_identification_fit_structure(noisy_identify):
    res, elapsed = noisy_identify
    m = res.summary["metrics"]
    fits = m["fit_rates_percent"]
    theta_highest = (fits["theta"] > fits["ydot"]
                     and fits["theta"] > fits["thetadot"])
    below_100 = all(v < 100.0 for v in fits.values())
    ok = below_100 and theta_highest and elapsed < 120.0
    report("C5a", ok,
           f"noisy fits {fits['theta']:.1f}/{fits['ydot']:.1f}/"
           f"{fits['thetadot']:.1f} % (all < 100, theta highest), "
           f"runtime {elapsed:.0f} s (< 120)")
    assert below_100
    assert theta_highest
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="known-unattainable target: at the default sensor noise the "
           "prediction-error cost at the TRUE parameters exceeds the cost at "
           "the biased estimate, so no optimizer can satisfy the 10% clause; "
           "the model's quasi-static ball velocity carries almost no "
           "information about the velocity-row parameters. See README.")
def test_c05_noisy_identification_ten_percent_recovery(noisy_identify):
    res, _ = noisy_identify
    rel = np.array(res.summary["metrics"]["rel_error_vs_truth"])
    report("C5b", np.max(rel) < 0.10,
           f"noisy recovery max rel err {np.max(rel) * 100:.1f} % "
           f"(target demands < 10 %; expected failure, see README)")
    assert np.max(rel) < 0.10


# -- criterion 6 -------------------------------------------------------------

def test_c06_lqr_design():
    t0 = time.time()
    dss = zoh_discretize(build_linear_ss(LP), TS)
    Q = np.diag([20.0, 100.0, 10.0, 50.0])
    R = np.array([[200.0]])
    P, K = solve_dare(dss.A_d, dss.B_d, Q, R)
    rho = max(abs(e) for e in eigenvalues(dss.A_d - dss.B_d @ K))
    resid = dss.A_d.T @ P @ dss.A_d - P + Q - dss.A_d.T @ P @ dss.B_d @ \
        np.linalg.solve(R + dss.B_d.T @ P @ dss.B_d, dss.B_d.T @ P @ dss.A_d)
    residual = float(np.max(np.abs(resid)))
    _, K10 = solve_dare(dss.A_d, dss.B_d, Q, 10.0 * R)
    k_change = float(np.linalg.norm(K10 - K) / np.linalg.norm(K))
    elapsed = time.time() - t0
    ok = rho < 1.0 and residual < 1e-8 and k_change < 0.5 and elapsed < 5.0
    report("C6", ok, f"spectral radius {rho:.7f} (< 1), "
                     f"DARE residual {residual:.2e} (< 1e-8), "
                     f"Rx10 gain change {k_change * 100:.2f} % (< 50), "
                     f"runtime {elapsed:.2f} s (< 5)")
    assert rho < 1.0
    assert residual < 1e-8
    assert k_change < 0.5
    assert elapsed < 5.0


# -- criterion 7 -------------------------------------------------------------

def test_c07_qp_solver_vs_enumeration_oracle():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        P = M @ M.T + (0.1 + rng.uniform()) * np.eye(n)
        q = rng.normal(scale=3.0, size=n)
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.2, 3.0, size=n)
        prob = QpProblem(P=P, q=q, A=np.eye(n), l=lo, u=hi)
        obj_star, _ = enumerate_box_qp(P, q, lo, hi)
        sol = QpSolver(prob).solve()
        assert sol.status == "solved"
        gap = abs(objective(prob, sol.z) - obj_star) / max(1.0, abs(obj_star))
        worst_obj = max(worst_obj, gap)
        r_prim = float(np.max(np.maximum(lo - sol.z, sol.z - hi).clip(min=0.0)))
        r_dual = float(np.max(np.abs(P @ sol.z + q + sol.y)))
        worst_kkt = max(worst_kkt, r_prim, r_dual)
    elapsed = time.time() - t0
    ok = worst_obj <= 1e-6 and worst_kkt <= 1e-4 and elapsed < 30.0
    report("C7", ok, f"100 random QPs: worst objective gap {worst_obj:.2e} "
                     f"(<= 1e-6), worst KKT residual {worst_kkt:.2e} (<= 1e-4), "
                     f"runtime {elapsed:.1f} s (< 30)")
    assert worst_obj <= 1e-6
    assert worst_kkt <= 1e-4
    assert elapsed < 30.0


# -- criterion 8 -------------------------------------------------------------

def test_c08_dual_mode_predictor_exactness():
    t0 = time.time()
    dss = zoh_discretize(build_linear_ss(LP), TS)
    lqr = design_lqr(dss, np.diag([20.0, 100.0, 10.0, 50.0]), [[200.0]])
    pred = build_predictor(lqr, m=20)
    A_cl = dss.A_d - dss.B_d @ lqr.K
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        x0 = rng.normal(size=4)
        u = rng.normal(scale=100.0)
        lifted = pred.A_bar @ x0 + pred.B_bar[:, 0] * u
        literal = literal_lift(A_cl, dss.B_d, x0, u, 20)
        worst = max(worst, np.max(np.abs(lifted - literal))
                    / max(1.0, np.max(np.abs(literal))))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report("C8", ok, f"lifted vs 20 literal steps over 100 trials: "
                     f"worst gap {worst:.2e} (< 1e-12), runtime {elapsed:.2f} s (< 1)")
    assert worst < 1e-12
    assert elapsed < 1.0


# -- criterion 9 -------------------------------------------------------------

def test_c09_tracking_holding_clauses(track_n40):
    res, elapsed = track_n40
    m = res.summary["metrics"]
    ok = (m["max_abs_ydot_cms"] <= 15.0 and m["max_abs_u_mpc_ticks"] <= 1000.0
          and not res.summary["aborted"] and elapsed < 120.0)
    report("C9a", ok,
           f"tracking run: max|ydot| {m['max_abs_ydot_cms']:.2f} cm/s (<= 15), "
           f"max|u_MPC| {m['max_abs_u_mpc_ticks']:.0f} ticks/s (<= 1000), "
           f"infeasible events {m['infeasible_event_count']}, "
           f"runtime {elapsed:.0f} s (< 120)")
    assert m["max_abs_ydot_cms"] <= 15.0
    assert m["max_abs_u_mpc_ticks"] <= 1000.0
    assert not res.summary["aborted"]
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="known-unattainable target: with the reference constants the "
           "sustainable ball speed under the tilt/input boxes is ~0.12 cm/s "
           "(the p2 velocity damping), so a 20 cm transfer needs >= ~160 s "
           "for any controller; settling/steady-state inside 15 s and the "
           "executed 3-degree tilt ceiling cannot be met. See README.")
def test_c09_tracking_performance_as_stated(track_n40):
    res, _ = track_n40
    m = res.summary["metrics"]
    settle = m["settling_time_s"]
    report("C9b", False,
           f"steady-state err {m['steady_state_error_cm']:.2f} cm (< 0.5 "
           f"required), settling {settle} (<= 15 s required), max|theta| "
           f"{m['max_abs_theta_deg']:.2f} deg (<= 3 required), violations "
           f"{m['constraint_violation_count']} (0 required) "
           f"(expected failure, see README)")
    assert m["steady_state_error_cm"] < 0.5
    assert settle is not None and settle <= 15.0
    assert m["max_abs_theta_deg"] <= 3.0
    assert m["constraint_violation_count"] == 0


# -- criterion 10 ------------------------------------------------------------

def test_c10_horizon_sensitivity(track_n40, track_n5):
    res40, t40 = track_n40
    res5, t5 = track_n5
    c40 = res40.summary["metrics"]["tracking_cost"]
    c5 = res5.summary["metrics"]["tracking_cost"]
    infeas5 = res5.summary["metrics"]["infeasible_event_count"]
    degraded = c5 > c40 or infeas5 >= 1
    elapsed = t5
    ok = degraded and elapsed < 120.0
    report("C10", ok,
           f"N=5 tracking cost {c5:.0f} vs N=40 cost {c40:.0f} "
           f"(strictly worse: {c5 > c40}), infeasible events {infeas5}, "
           f"runtime {elapsed:.0f} s (< 120)")
    assert degraded
    assert elapsed < 120.0


# -- criterion 11 ------------------------------------------------------------

def test_c11_numerics_suite():
    t0 = time.time()
    # ZOH vs series oracle on the reference plant
    ss = build_linear_ss(LP)
    d = zoh_discretize(ss, TS)
    aug = np.zeros((5, 5))
    aug[:4, :4] = ss.A
    aug[:4, 4:] = ss.B
    E = expm_series(aug * TS, terms=50)
    zoh_gap = max(float(np.max(np.abs(d.A_d - E[:4, :4]))),
                  float(np.max(np.abs(d.B_d - E[:4, 4:]))))
    # double integrator closed form
    from ballbot_lab.numerics import ContinuousSS
    di = zoh_discretize(ContinuousSS(A=[[0, 1], [0, 0]], B=[[0], [1]]), 0.1)
    di_err = max(float(np.max(np.abs(di.A_d - [[1, 0.1], [0, 1]]))),
                 float(np.max(np.abs(di.B_d - [[0.005], [0.1]]))))
    # Butterworth
    f = design_butterworth2(1.0, 200.0)
    dc_err = abs(biquad_gain(f, 0.0, 200.0) - 1.0)
    db_at_fc = 20.0 * np.log10(biquad_gain(f, 1.0, 200.0))
    # NRMSE trivial cases
    y = np.array([0.0, 1.0, 2.0, 5.0])
    fit_perfect = nrmse_fit(y, y)
    fit_mean = nrmse_fit(y, np.full(4, y.mean()))
    elapsed = time.time() - t0
    ok = (zoh_gap < 1e-10 and di_err < 1e-14 and dc_err < 1e-9
          and abs(db_at_fc + 3.01) < 0.1 and fit_perfect == 100.0
          and abs(fit_mean) < 1e-12 and elapsed < 5.0)
    report("C11", ok, f"ZOH vs series {zoh_gap:.2e} (< 1e-10), "
                      f"double integrator {di_err:.1e} (exact), "
                      f"DC gain err {dc_err:.1e} (< 1e-9), "
                      f"|H| at fc {db_at_fc:.3f} dB (-3.01 +/- 0.1), "
                      f"NRMSE {fit_perfect:.0f} %/{fit_mean:.1e} %, "
                      f"runtime {elapsed:.2f} s (< 5)")
    assert zoh_gap < 1e-10
    assert di_err < 1e-14
    assert dc_err < 1e-9
    assert abs(db_at_fc + 3.01) < 0.1
    assert fit_perfect == 100.0
    assert abs(fit_mean) < 1e-12
    assert elapsed < 5.0


# -- criterion 12 ------------------------------------------------------------

def test_c12_pipeline_determinism(tmp_path, manifest_runs):
    # the first run is the manifest's default pipeline (tests/manifest.py)
    first = manifest_runs["pipeline"]
    t0 = time.time()
    rc = cli.main(["pipeline", "--out", str(tmp_path)])
    assert first["exit_code"] == 0 and rc == 0
    outs = [first["dir"], tmp_path]
    names = ["balance_telemetry.csv", "identify_telemetry.csv",
             "lqr_telemetry.csv", "track_telemetry.csv"]
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    elapsed = first["seconds"] + time.time() - t0
    ok = identical and elapsed < 300.0
    report("C12", ok, f"two default pipelines byte-identical across "
                      f"{len(names)} telemetry files: {identical}, "
                      f"total runtime {elapsed:.0f} s (< 300)")
    assert identical
    assert elapsed < 300.0
