import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ballbot_lab
from ballbot_lab import sysid
from ballbot_lab.errors import IdentificationFailedError
from ballbot_lab.excitation import sample_sequence
from ballbot_lab.numerics import ContinuousSS, sum_squares, zoh_discretize
from ballbot_lab.plant import LinearParams, build_linear_ss
from ballbot_lab.stabilizer import FeedbackGains, closed_loop, feedback_row
from ballbot_lab.sysid import (IdConfig, IdDataset, identify, simulate_syscl,
                               validate)

from oracles import (default_multisine, extract_open_loop, fd_jacobian,
                     first_order_recursion, simulate_discrete)

GAINS = FeedbackGains.identification()
TRUTH = LinearParams.reference().as_array()


def reduced_model(p) -> ContinuousSS:
    """The planar model of parameters p without its position state."""
    ss = build_linear_ss(LinearParams.from_array(p))
    return ContinuousSS(ss.A[1:, 1:], ss.B[1:])


def _closed_loop(p, Ts=0.005):
    """The sampled identification loop of parameters p, without position."""
    dss = zoh_discretize(reduced_model(p), Ts)
    return closed_loop(dss.A_d, dss.B_d, feedback_row(GAINS)[1:], GAINS.kp)


def pe_cost(p, ds, gains):
    """The fit's cost at p: its sum of squared residuals, inf if divergent."""
    r = sysid._residual_fn(ds, gains)[0](p)
    return float("inf") if r is None else sum_squares(r)


def make_dataset(duration=30.0, Ts=0.005, p=None, x0=None):
    """Noiseless closed-loop data generated by the literal discrete loop."""
    p = TRUTH if p is None else p
    d = sample_sequence(default_multisine(), Ts, duration).d[:-1]
    A_cl, B_cl = _closed_loop(p, Ts)
    X = simulate_discrete(A_cl, B_cl, np.zeros(3) if x0 is None else x0, d)
    return IdDataset(Ts=Ts, d=d, theta=X[:, 0], ydot=X[:, 1], thetadot=X[:, 2])


class TestSimulateSyscl:
    def test_zero_everything(self):
        pred = simulate_syscl(TRUTH, GAINS, np.zeros(100), 0.005)
        assert_allclose(pred, np.zeros((100, 3)), atol=0)

    def test_self_consistency_on_truth(self):
        ds = make_dataset(duration=10.0)
        pred = simulate_syscl(TRUTH, GAINS, ds.d, ds.Ts,
                              x0=ds.measured_matrix()[0])
        assert np.max(np.abs(pred - ds.measured_matrix())) < 1e-9

    def test_divergent_candidate_flagged(self):
        bad = TRUTH.copy()
        bad[3] = 5000.0  # runaway tilt stiffness the loop cannot hold
        ds = make_dataset(duration=5.0)
        assert pe_cost(bad, ds, GAINS) == float("inf")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residual_norm_is_divergent(self):
        # |lam| = 1.04 passes the 1.05 divergence guard and the simulation
        # stays finite, but over the 12,000 samples of a fit its squared
        # residual norm overflows: that is a divergent candidate, not a warning
        bad = TRUTH.copy()
        bad[3] = 200.0
        ds = make_dataset(duration=60.0)
        assert len(ds) == 12_000
        assert pe_cost(bad, ds, GAINS) == float("inf")

    @pytest.mark.parametrize("tilt_stiffness, complex_pair",
                             [(TRUTH[3], True), (100.0, False)],
                             ids=["complex-pair", "all-real"])
    def test_matches_literal_recursion_at_fit_length(self, tilt_stiffness,
                                                      complex_pair):
        # 12,000 samples is the fit half of the default 120 s record, long
        # enough for the slow modes to matter; x0 != 0 exercises the free
        # response through the same filter as the forced one
        p = TRUTH.copy()
        p[3] = tilt_stiffness
        A_cl, B_cl = _closed_loop(p)
        assert np.any(np.linalg.eigvals(A_cl).imag != 0) == complex_pair
        rng = np.random.default_rng(4)
        d = rng.normal(size=12_000)
        x0 = np.array([0.02, -1.5, 0.3])
        lit = simulate_discrete(A_cl, B_cl, x0, d)
        fast = simulate_syscl(p, GAINS, d, 0.005, x0=x0)
        assert fast.shape == (12_000, 3)
        assert np.max(np.abs(lit - fast)) <= 1e-9

    def test_single_sample_is_initial_state(self):
        x0 = np.array([0.02, -1.5, 0.3])
        pred = simulate_syscl(TRUTH, GAINS, [0.7], 0.005, x0=x0)
        assert pred.shape == (1, 3)
        assert_allclose(pred[0], x0, rtol=0, atol=1e-12)

    def test_matches_literal_recursion_on_random_params(self):
        rng = np.random.default_rng(3)
        p = TRUTH * rng.uniform(0.8, 1.2, size=8)
        d = rng.normal(size=500)
        A_cl, B_cl = _closed_loop(p)
        x0 = rng.normal(size=3) * 0.1
        lit = simulate_discrete(A_cl, B_cl, x0, d)
        fast = simulate_syscl(p, GAINS, d, 0.005, x0=x0)
        assert np.max(np.abs(lit - fast)) < 1e-9


def _assert_matches_literal(p, d, x0, rel=1e-12):
    """simulate_syscl against the literal recursion, relative to its peak."""
    lit = simulate_discrete(*_closed_loop(p), x0, d)
    fast = simulate_syscl(p, GAINS, d, 0.005, x0=x0)
    assert fast.shape == lit.shape
    assert np.max(np.abs(lit - fast)) <= rel * np.max(np.abs(lit))


class TestModalKernelEdges:
    """Each mode is its own forward solve; nothing may leak between them."""

    X0 = np.array([0.02, -1.5, 0.3])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tilt_stiffness", [TRUTH[3], 100.0],
                             ids=["complex-pair", "all-real"])
    def test_one_and_two_sample_records(self, n, tilt_stiffness):
        p = TRUTH.copy()
        p[3] = tilt_stiffness
        _assert_matches_literal(p, np.array([0.7, -0.4])[:n], self.X0)

    @pytest.mark.parametrize("tilt_stiffness", [TRUTH[3], 100.0],
                             ids=["complex-pair", "all-real"])
    def test_free_response_of_all_three_modes(self, tilt_stiffness):
        # d = 0, so every sample comes from x0; x0 excites every mode and
        # the slow ones are still well away from zero at the end of the
        # record, so a recursion that ran on from one mode's last sample
        # into the next mode's first would show
        p = TRUTH.copy()
        p[3] = tilt_stiffness
        lam, V = np.linalg.eig(_closed_loop(p)[0])
        assert np.all(np.abs(np.linalg.solve(V, self.X0)) > 1e-3)
        n = 200
        assert np.all(np.abs(lam[np.abs(lam) > 0.9]) ** n > 5e-3)
        _assert_matches_literal(p, np.zeros(n), self.X0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4097])
    @pytest.mark.parametrize("lam", [0.87, -0.9, 0.95 + 0.1j, 0.9999, 1e-200, 0.0])
    def test_scan_matches_the_literal_loop(self, lam, n):
        # 4097 = 2^12 + 1: the last pass has shift 4096 and moves one sample;
        # 1e-200 squares to zero after one pass, 0 stops before the first
        rng = np.random.default_rng(6)
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if isinstance(lam, complex) else 0)
        z = x.copy()
        sysid._modal_solve(lam, z, np.empty_like(z))
        lit = first_order_recursion(lam, x)
        assert np.max(np.abs(z - lit)) <= 1e-13 * np.max(np.abs(lit))

    @pytest.mark.parametrize("tilt_stiffness", [TRUTH[3], 100.0],
                             ids=["complex-pair", "all-real"])
    def test_record_length_not_a_power_of_two(self, tilt_stiffness):
        p = TRUTH.copy()
        p[3] = tilt_stiffness
        d = np.random.default_rng(7).normal(size=3001)
        _assert_matches_literal(p, d, self.X0)

    def test_growing_mode_below_the_divergence_guard(self):
        p = TRUTH.copy()
        p[3] = 200.0
        mags = np.abs(np.linalg.eigvals(_closed_loop(p)[0]))
        assert 1.0 < mags.max() <= 1.05
        d = np.random.default_rng(5).normal(size=300)
        _assert_matches_literal(p, d, self.X0)


class TestPeCost:
    def test_zero_at_truth_noiseless(self):
        ds = make_dataset(duration=10.0)
        assert pe_cost(TRUTH, ds, GAINS) < 1e-18

    def test_mean_predictor_normalization(self):
        # the variance normalization prices a channel-mean prediction at
        # (N-1)/N per channel, about 3 in total
        ds = make_dataset(duration=10.0)
        meas = ds.measured_matrix()
        n = len(ds)
        var = meas.var(axis=0, ddof=1)
        cost_of_mean = float(np.sum(meas.var(axis=0, ddof=0) / var))
        assert_allclose(cost_of_mean, 3.0 * (n - 1) / n, rtol=1e-12)

    def test_unit_rescaling_invariance(self):
        # rescaling a channel's units (data and model would rescale alike)
        # cannot change the cost because of the variance normalization:
        # check by rescaling the excitation instead, which scales all
        # channels linearly
        ds = make_dataset(duration=10.0)
        ds2 = IdDataset(Ts=ds.Ts, d=2.0 * ds.d, theta=2.0 * ds.theta,
                        ydot=2.0 * ds.ydot, thetadot=2.0 * ds.thetadot)
        p_off = TRUTH * 1.05
        assert_allclose(pe_cost(p_off, ds, GAINS), pe_cost(p_off, ds2, GAINS),
                        rtol=1e-9)

    def test_truth_beats_random_perturbations_noiseless(self):
        ds = make_dataset(duration=10.0)
        c0 = pe_cost(TRUTH, ds, GAINS)
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = TRUTH * rng.uniform(0.7, 1.3, size=8)
            assert pe_cost(p, ds, GAINS) >= c0


class TestIdentify:
    def test_fixed_point_at_truth(self):
        ds = make_dataset(duration=20.0)
        cfg = IdConfig(initial_guess=TRUTH.copy())
        res = identify(ds, GAINS, cfg)
        assert res.final_cost < 1e-16
        assert_allclose(res.p_hat, TRUTH, rtol=1e-6)

    def test_recovers_from_offset_guess(self):
        ds = make_dataset(duration=30.0)
        cfg = IdConfig(initial_guess=TRUTH * 1.3)
        res = identify(ds, GAINS, cfg)
        rel = np.abs(res.p_hat - TRUTH) / np.abs(TRUTH)
        assert np.max(rel) < 1e-3

    def test_deterministic(self):
        ds = make_dataset(duration=10.0)
        cfg = IdConfig(initial_guess=TRUTH * 1.2)
        r1 = identify(ds, GAINS, cfg)
        cfg2 = IdConfig(initial_guess=TRUTH * 1.2)
        r2 = identify(ds, GAINS, cfg2)
        assert_allclose(r1.p_hat, r2.p_hat, atol=0)
        assert r1.final_cost == r2.final_cost

    def test_all_divergent_raises(self):
        ds = make_dataset(duration=5.0)
        hopeless = np.array([1e8, 1e8, 1e8, 1e8, 1e8, 1e8, 1e8, 1e8])
        cfg = IdConfig(initial_guess=hopeless, max_iterations=3,
                       parameter_bounds=(hopeless * 0.5, hopeless * 1.5))
        with pytest.raises(IdentificationFailedError) as exc:
            identify(ds, GAINS, cfg)
        assert exc.value.diagnostics["starts"] == [
            {"start": 0, "cost": float("inf"), "iterations": 0, "converged": False}]

    def test_guess_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            IdConfig(initial_guess=TRUTH,
                     parameter_bounds=(TRUTH + 1.0, TRUTH + 2.0))


def noisy_dataset(duration=20.0, seed=0):
    """Closed-loop data from x0 != 0 with white noise on every channel, so
    the residuals, the free response and the scales are all non-trivial."""
    ds = make_dataset(duration=duration, x0=np.array([0.3, -0.2, 1.5]))
    rng = np.random.default_rng(seed)
    return IdDataset(Ts=ds.Ts, d=ds.d,
                     theta=ds.theta + 0.01 * rng.normal(size=len(ds)),
                     ydot=ds.ydot + 0.01 * rng.normal(size=len(ds)),
                     thetadot=ds.thetadot + 0.1 * rng.normal(size=len(ds)))


def _with(index, value):
    p = TRUTH.copy()
    p[index] = value
    return p


class TestModalJacobian:
    """The LM Jacobian from modal sensitivities against central differences."""

    @pytest.mark.parametrize("p, n_real", [
        (TRUTH, 1),
        (TRUTH * 1.3, 1),
        (TRUTH * np.random.default_rng(11).uniform(0.7, 1.3, size=8), 1),
        (_with(3, 100.0), 3),
        # real mode 0.69: its impulse response underflows within the record
        (_with(1, 0.5 * TRUTH[1]), 1),
    ], ids=["truth", "offset", "random", "three-real", "underflowing-mode"])
    def test_matches_central_differences(self, p, n_real):
        lam = np.linalg.eigvals(_closed_loop(p)[0])
        assert np.sum(lam.imag == 0) == n_real
        ds = noisy_dataset()
        residuals, jacobian = sysid._residual_fn(ds, GAINS)
        J = jacobian(p)
        # relative steps: differentiate along p * s at s = 1
        J_fd = fd_jacobian(lambda s: residuals(p * s), np.ones(8), h=1e-6) / p
        assert J.shape == (3 * len(ds), 8)
        err = np.linalg.norm(J - J_fd, axis=0) / np.linalg.norm(J_fd, axis=0)
        assert np.max(err) <= 1e-5

    @pytest.mark.parametrize("lam", [0.3, 0.69, -0.9, 0.99 + 0.05j])
    def test_impulse_response_cut_where_it_leaves_the_normal_range(self, lam):
        k = sysid._normal_length(lam, 10**6)
        assert abs(lam) ** (k - 1) >= np.exp(-708.0) > abs(lam) ** k
        assert sysid._normal_length(lam, 5) == 5

    def test_impulse_response_of_unit_and_zero_modes(self):
        assert sysid._normal_length(1.0, 7) == 7
        assert sysid._normal_length(1.02j, 7) == 7
        assert sysid._normal_length(0.0, 7) == 1

    def test_near_defective_basis_ends_the_start_unconverged(self, monkeypatch):
        ds = noisy_dataset(duration=5.0)
        monkeypatch.setattr(sysid, "_DEFECTIVE_COND", 1.0)
        assert sysid._residual_fn(ds, GAINS)[1](TRUTH * 1.1) is None
        res = identify(ds, GAINS, IdConfig(initial_guess=TRUTH * 1.1))
        assert res.diagnostics["starts"] == [
            {"start": 0, "cost": res.final_cost, "iterations": 1,
             "converged": False}]
        assert_allclose(res.p_hat, TRUTH * 1.1, rtol=0)

    def test_at_most_two_simulations_per_lm_iteration(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return simulate_syscl(*args, **kwargs)

        monkeypatch.setattr(sysid, "simulate_syscl", counting)
        ds = noisy_dataset(duration=20.0)
        # three fits, so that the count covers enough iterations
        iterations = sum(identify(ds, GAINS, IdConfig(initial_guess=TRUTH * g)).iterations
                         for g in (1.3, 0.7, 1.8))
        assert iterations >= 10
        assert len(calls) <= 2 * iterations


class TestLmStopping:
    def test_a_stalled_start_is_not_converged(self):
        # no step ever lowers the cost: every trial is rejected until the
        # damping passes its cap, and that is a stall, not convergence
        r0 = np.array([1.0, -2.0, 0.5])
        J = np.arange(24.0).reshape(3, 8) / 10.0
        cfg = IdConfig(initial_guess=TRUTH.copy())
        p, cost, iters, converged = sysid._levenberg_marquardt(
            TRUTH.copy(), lambda p: r0.copy(), lambda p: J, *cfg.parameter_bounds, cfg)
        assert converged is False
        assert iters == 1
        assert cost == float(r0 @ r0)
        assert_allclose(p, TRUTH, rtol=0)

    def test_a_small_relative_drop_is_converged(self):
        res = identify(noisy_dataset(duration=10.0), GAINS,
                       IdConfig(initial_guess=TRUTH * 1.05))
        assert res.converged is True


SRC = Path(ballbot_lab.__file__).resolve().parents[1]


def outputs_under_blas_threads(tmp_path, args):
    """The output files, name to bytes, of one CLI run under 1 and 2 BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "ballbot_lab.cli", *args, "--seed", "0",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    return outputs


def test_identify_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the LM accepts and stops on cost comparisons in the last bits, so a
    # threaded BLAS reduction there would move p_hat with the thread count.
    # The default 120 s run, not a shorter one: its 12,000-sample holdout is
    # long enough for a BLAS dot in the fit rates to be split across threads
    outputs = outputs_under_blas_threads(tmp_path, ["identify"])
    assert sorted(outputs[0]) == ["identified_model.json", "identify_summary.json",
                                  "identify_telemetry.csv"]
    assert outputs[0] == outputs[1]


def test_track_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the track telemetry feeds last-bit differences of the QP and the
    # BLAS dots of the regulator back through the loop; 5 s holds 50 solves
    outputs = outputs_under_blas_threads(tmp_path, ["track", "--duration", "5"])
    assert sorted(outputs[0]) == ["track_summary.json", "track_telemetry.csv"]
    assert outputs[0] == outputs[1]


class TestExtractOpenLoop:
    def test_roundtrip_full_state(self):
        lp = LinearParams.reference()
        ss = build_linear_ss(lp)
        for gains in (FeedbackGains(), GAINS):
            A, B = extract_open_loop(*closed_loop(ss.A, ss.B, feedback_row(gains), gains.kp),
                                     gains)
            assert np.max(np.abs(A - ss.A)) < 1e-12
            assert np.max(np.abs(B - ss.B)) < 1e-12

    def test_roundtrip_reduced(self):
        lp = LinearParams.reference()
        ss = build_linear_ss(lp)
        A_cl, B_cl = closed_loop(ss.A, ss.B, feedback_row(GAINS), GAINS.kp)
        A, B = extract_open_loop(A_cl[1:, 1:], B_cl[1:], GAINS)
        open_loop = reduced_model(lp.as_array())
        assert np.max(np.abs(A - open_loop.A)) < 1e-12
        assert np.max(np.abs(B - open_loop.B)) < 1e-12

    def test_zero_feedback_row(self):
        g = FeedbackGains(k_theta=0, k_ydot=1.0, k_thetadot=0, kp=250.0)
        assert_allclose(feedback_row(g), np.zeros(4), atol=0)
        A_cl = np.arange(16.0).reshape(4, 4)
        B_cl = np.arange(4.0).reshape(4, 1)
        A, B = extract_open_loop(A_cl, B_cl, g)
        assert_allclose(A, A_cl, atol=0)
        assert_allclose(B, B_cl / 250.0, atol=0)

    def test_kp_zero_rejected(self):
        with pytest.raises(ValueError):
            extract_open_loop(np.eye(4), np.ones((4, 1)), FeedbackGains(kp=0.0))


class TestValidate:
    def test_perfect_model_scores_100(self):
        ds = make_dataset(duration=10.0)
        fits = validate(TRUTH, ds, GAINS)
        for name in ("theta", "ydot", "thetadot"):
            assert_allclose(fits[name], 100.0, atol=1e-6)

    def test_wrong_model_scores_below_100(self):
        ds = make_dataset(duration=10.0)
        fits = validate(TRUTH * 1.2, ds, GAINS)
        assert all(v < 100.0 for v in fits.values())

    def test_constant_holdout_channel_has_no_fit_rate(self):
        ds = make_dataset(duration=10.0)
        ds.ydot = np.zeros(len(ds))
        fits = validate(TRUTH, ds, GAINS)
        assert fits["ydot"] is None
        assert_allclose([fits["theta"], fits["thetadot"]], 100.0, atol=1e-6)
