import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab import harness
from ballbot_lab.control import (MpcConfig, MpcController, SmoothStepRef,
                                 _condense, build_predictor, design_lqr,
                                 smooth_step)
from ballbot_lab.errors import StabilizabilityError
from ballbot_lab.numerics import eigenvalues, zoh_discretize
from ballbot_lab.plant import LinearParams, build_linear_ss
from ballbot_lab.qp import QpProblem, QpSettings, QpSolver

from oracles import (InteriorPointQp, condensed_tracking_qp, literal_lift,
                     objective, residuals, stacked_tracking_qp)

TS = 0.005
Q_LQR = np.diag([20.0, 100.0, 10.0, 50.0])
R_LQR = [[200.0]]


@pytest.fixture(scope="module")
def dss():
    return zoh_discretize(build_linear_ss(LinearParams.reference()), TS)


@pytest.fixture(scope="module")
def lqr(dss):
    return design_lqr(dss, Q_LQR, R_LQR)


@pytest.fixture(scope="module")
def pred(dss, lqr):
    return build_predictor(dss, lqr.K, m=20)


class TestDesignLqr:
    def test_closed_loop_in_unit_circle(self, dss, lqr):
        assert max(abs(e) for e in eigenvalues(dss.A_d - dss.B_d @ lqr.K)) < 1.0
        assert max(abs(e) for e in lqr.closed_loop_eigs) < 1.0

    def test_control_weight_insensitivity(self, dss, lqr):
        bigger_r = design_lqr(dss, Q_LQR, [[2000.0]])
        change = np.linalg.norm(bigger_r.K - lqr.K) / np.linalg.norm(lqr.K)
        assert change < 0.5

    def test_tilt_weight_speeds_settling(self, dss):
        times = []
        for q_theta in (100.0, 1000.0, 10000.0):
            d = design_lqr(dss, np.diag([20.0, q_theta, 10.0, 50.0]), R_LQR)
            x = np.array([0.0, 2.0, 0.0, 0.0])
            settle = None
            for k in range(4000):
                x = dss.A_d @ x - dss.B_d[:, 0] * (d.K @ x)[0]
                if settle is None and abs(x[1]) < 0.05:
                    settle = k * TS
            times.append(settle)
        assert times[0] >= times[1] >= times[2]

    def test_unstabilizable_propagates(self):
        from ballbot_lab.numerics import DiscreteSS
        bad = DiscreteSS(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), TS)
        with pytest.raises(StabilizabilityError):
            design_lqr(bad, np.eye(2), [[1.0]])


class TestBuildPredictor:
    def test_m_equals_one(self, dss, lqr):
        p = build_predictor(dss, lqr.K, m=1)
        assert_allclose(p.A_bar, dss.A_d - dss.B_d @ lqr.K, atol=1e-14)
        assert_allclose(p.B_bar, dss.B_d, atol=1e-14)

    def test_lift_matches_literal_composition(self, dss, lqr, pred):
        A_cl = dss.A_d - dss.B_d @ lqr.K
        rng = np.random.default_rng(17)
        for _ in range(100):
            x0 = rng.normal(size=4)
            u = rng.normal()
            lifted = pred.A_bar @ x0 + pred.B_bar[:, 0] * u
            literal = literal_lift(A_cl, dss.B_d, x0, u, 20)
            assert np.max(np.abs(lifted - literal)) < 1e-12 * max(
                1.0, np.max(np.abs(literal)))

    def test_spectral_radius_power_rule(self, dss, lqr, pred):
        rho_inner = max(abs(e) for e in eigenvalues(dss.A_d - dss.B_d @ lqr.K))
        assert_allclose(max(abs(e) for e in eigenvalues(pred.A_bar)), rho_inner ** 20,
                        rtol=1e-9)

    def test_unstable_inner_loop_refused(self, dss):
        with pytest.raises(StabilizabilityError):
            build_predictor(dss, np.zeros((1, 4)), m=20)  # open loop unstable


def boxes(cfg):
    return (cfg.theta_max, cfg.ydot_max, cfg.thetadot_max, cfg.u_max)


def assembled(pred, cfg, x0, ref):
    """The condensed QP at (x0, ref), assembled by the oracle."""
    return condensed_tracking_qp(pred.A_bar, pred.B_bar, cfg.Q, cfg.Q_N, cfg.R,
                                 boxes(cfg), x0, ref)


def planned_states(pred, ctrl, x0):
    """x_1..x_N that the last solve's inputs give on the lifted model."""
    x, states = np.asarray(x0, dtype=float), []
    for u_k in ctrl.last_solution.z:
        x = pred.A_bar @ x + pred.B_bar[:, 0] * u_k
        states.append(x)
    return np.array(states)


class TestBuildQp:
    def test_structural_counts(self, pred):
        # condensed: one variable per input, no equality rows, 3 state boxes
        # per predicted state then the input box, and u = z on the last N rows
        qp = _condense(pred, MpcConfig(N=7))
        assert qp.P.shape == (7, 7)
        assert qp.A.shape == (4 * 7, 7)
        assert np.all(qp.box > 1e-12)
        assert_allclose(qp.A[3 * 7:], np.eye(7), atol=0)
        # the state rows are causal: x_{k+1} does not depend on u_{k+1}..
        assert np.all(np.triu(qp.A[0:3 * 7:3], k=1) == 0.0)

    def test_equilibrium_reference_gives_zero_input(self, pred):
        cfg = MpcConfig(N=10)
        ref = np.zeros((11, 4))
        ctrl = MpcController(pred, cfg)
        _, info = ctrl.mpc_step(np.zeros(4), ref)
        z = ctrl.last_solution.z
        assert info["status"] == "solved"
        assert np.max(np.abs(z)) < 1e-6
        assert abs(objective(assembled(pred, cfg, np.zeros(4), ref), z)) < 1e-9

    def test_single_step_matches_hand_kkt(self, pred):
        # unconstrained single-step problem: u* = (B'QB + R)^-1 B'Q (r - A x0)
        cfg = MpcConfig(N=1, theta_max=1e9, ydot_max=1e9,
                        thetadot_max=1e9, u_max=1e9)
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=4) * 0.1
        r = np.array([5.0, 0.0, 0.0, 0.0])
        u, _ = MpcController(pred, cfg).mpc_step(x0, np.stack([np.zeros(4), r]))
        Q = cfg.Q_N
        Bb = pred.B_bar
        Ax = pred.A_bar @ x0
        u_hand = np.linalg.solve(Bb.T @ Q @ Bb + cfg.R,
                                 Bb.T @ Q @ (r - Ax))
        assert_allclose(u, u_hand[0], rtol=1e-5)

    def test_reference_shape_checked(self, pred):
        with pytest.raises(ValueError):
            _condense(pred, MpcConfig(N=3)).theta(np.zeros(4), np.zeros((3, 4)))

    @staticmethod
    def _both_forms(pred, cfg, x0, ref):
        """The oracle's condensed problem, the controller's solve and the
        interior-point solve of the stacked problem, both tight."""
        tight = QpSettings(eps_abs=1e-12, eps_rel=1e-12)
        ctrl = MpcController(pred, cfg, tight)
        ctrl.mpc_step(x0, ref)
        P, q, A, l, u = stacked_tracking_qp(pred.A_bar, pred.B_bar, cfg.Q,
                                            cfg.Q_N, cfg.R, boxes(cfg), x0, ref)
        # Q weights only the position, so the stacked P is singular and the
        # interior-point oracle solves it
        return (assembled(pred, cfg, x0, ref), ctrl.last_solution,
                InteriorPointQp(QpProblem(P=P, q=q, A=A, l=l, u=u), tight).solve())

    def test_condensed_matches_stacked_formulation(self, pred):
        # states near the boxes and smooth-step previews, as the controller
        # sees them; both forms solved tightly must give the same inputs
        cfg = MpcConfig()
        rng = np.random.default_rng(41)
        binding = 0
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 4) * [5.0, 3.0, 12.0, 20.0]
            spec = SmoothStepRef(t0=rng.uniform(-2.0, 3.0),
                                 amplitude=rng.uniform(-30.0, 30.0), T_rise=2.0)
            ref = np.stack([smooth_step(spec, 0.1 * j) for j in range(cfg.N + 1)])
            prob, condensed, stacked = self._both_forms(pred, cfg, x0, ref)
            assert stacked.status == "solved"
            assert_allclose(condensed.z, stacked.z[4 * cfg.N:], rtol=0, atol=1e-6)
            Az = prob.A @ condensed.z
            binding += bool(np.any((Az > prob.u - 1e-6) | (Az < prob.l + 1e-6)))
        assert binding >= 5

    def test_unconstrained_exit_matches_stacked_formulation(self, pred):
        # small states and previews whose unconstrained optimum meets every
        # box: the controller returns it at 0 iterations, inside the boxes,
        # and it is the tight stacked solution
        cfg = MpcConfig()
        rng = np.random.default_rng(43)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 4) * [2.0, 0.5, 2.0, 3.0]
            spec = SmoothStepRef(t0=rng.uniform(-2.0, 3.0),
                                 amplitude=rng.uniform(-10.0, 10.0), T_rise=2.0)
            ref = np.stack([smooth_step(spec, 0.1 * j) for j in range(cfg.N + 1)])
            ctrl = MpcController(pred, cfg)
            u, info = ctrl.mpc_step(x0, ref)
            assert info["status"] == "solved" and info["iterations"] == 0
            prob, _, stacked = self._both_forms(pred, cfg, x0, ref)
            z = ctrl.last_solution.z
            Az = prob.A @ z
            assert np.all(prob.l <= Az) and np.all(Az <= prob.u)
            assert stacked.status == "solved"
            assert_allclose(z, stacked.z[4 * cfg.N:], rtol=0, atol=1e-6)
            assert u == z[0]

    def test_tight_solve_with_many_binding_boxes(self, pred):
        cfg = MpcConfig()
        rng = np.random.default_rng(41)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 4) * [5.0, 2.0, 8.0, 15.0]
            ref = np.zeros((cfg.N + 1, 4))
            ref[1:, 0] = rng.uniform(-150.0, 150.0)
            _, condensed, stacked = self._both_forms(pred, cfg, x0, ref)
            assert stacked.status == "solved"
            assert condensed.status == "solved"
            assert_allclose(condensed.z, stacked.z[4 * cfg.N:], rtol=0, atol=1e-4)


class TestMpcController:
    def test_zero_reference_zero_output(self, pred):
        ctrl = MpcController(pred, MpcConfig())
        ref = np.zeros((41, 4))
        u, info = ctrl.mpc_step(np.zeros(4), ref)
        assert info["status"] == "solved"
        assert abs(u) <= 1e-3

    def test_deterministic(self, pred):
        ref = np.zeros((41, 4))
        ref[:, 0] = 5.0
        x0 = np.array([0.0, 0.5, 0.0, 0.0])
        u1, _ = MpcController(pred, MpcConfig()).mpc_step(x0, ref)
        u2, _ = MpcController(pred, MpcConfig()).mpc_step(x0, ref)
        assert u1 == u2

    def test_warm_resolve_is_cheap(self, pred):
        # the controller keeps no iterate between steps; a second solve of
        # the same (x0, ref) must cost no more than the first, stay within
        # the iteration bound of a track solve and give the same input
        ctrl = MpcController(pred, MpcConfig())
        ref = np.zeros((41, 4))
        ref[:, 0] = np.linspace(0, 10, 41)
        x0 = np.zeros(4)
        u1, info1 = ctrl.mpc_step(x0, ref)
        u2, info2 = ctrl.mpc_step(x0, ref)
        assert info1["status"] == info2["status"] == "solved"
        assert info2["iterations"] <= info1["iterations"]
        assert info2["iterations"] <= 25
        assert u2 == u1

    def test_capped_solve_is_flagged_degraded(self, pred):
        ctrl = MpcController(pred, MpcConfig(), QpSettings(max_iter=2))
        ref = np.zeros((41, 4))
        ref[:, 0] = np.linspace(0, 50, 41)  # a ramp that puts a box in play
        u, info = ctrl.mpc_step(np.zeros(4), ref)
        assert info["status"] == "max-iter"
        assert info["iterations"] == 2
        assert info["degraded"] and not info["infeasible"]
        assert ctrl.degraded_events == 1
        assert u == 0.0  # a capped dual iterate may leave a box: no correction

    def test_step_reference_pushes_toward_target_within_tilt_box(self, pred):
        ctrl = MpcController(pred, MpcConfig())
        ref_spec = SmoothStepRef(t0=0.0, amplitude=20.0, T_rise=2.0)
        ref = np.stack([smooth_step(ref_spec, 0.1 * j) for j in range(41)])
        u, info = ctrl.mpc_step(np.zeros(4), ref)
        assert info["status"] in ("solved", "max-iter")
        states = planned_states(pred, ctrl, np.zeros(4))
        assert np.max(np.abs(states[:, 1])) <= 3.0 + 1e-6
        # the plan moves toward the target; the step size is small because
        # the identified model's velocity damping makes the ball crawl
        # (see the README tracking notes)
        assert states[-1, 0] > 0.0
        assert states[-1, 0] > states[0, 0]

    def test_predicted_states_roll_the_lifted_model(self, pred):
        # the rows the controller boxes are the tilt, speed and tilt rate of
        # the states its inputs give on the lifted model: they meet every
        # box, and a solve that binds holds some of them on a bound
        cfg = MpcConfig()
        ctrl = MpcController(pred, cfg)
        ref = np.zeros((41, 4))
        ref[:, 0] = np.linspace(0.0, 50.0, 41)
        x = np.array([0.5, 1.5, -3.0, 4.0])
        _, info = ctrl.mpc_step(x, ref)
        assert info["status"] == "solved" and info["iterations"] > 0
        slack = np.asarray(boxes(cfg)[:3]) - np.abs(planned_states(pred, ctrl, x)[:, 1:])
        assert slack.min() >= -1e-6
        assert np.count_nonzero(slack <= 1e-6) >= 1

    def test_infeasible_event_returns_zero(self, pred):
        # an unreachable first-step state box makes the QP infeasible
        cfg = MpcConfig(theta_max=1e-9, ydot_max=1e-9, thetadot_max=1e-9,
                        u_max=1e-9)
        ctrl = MpcController(pred, cfg)
        ref = np.zeros((41, 4))
        x0 = np.array([0.0, 2.9, 0.0, 0.0])
        u, info = ctrl.mpc_step(x0, ref)
        assert info["infeasible"]
        assert u == 0.0
        assert ctrl.infeasible_events == 1


def recorded_track_solves(cfg, model_lp=None):
    """Run one track and return its predictor, its MPC config and every
    (x0, ref, u, info)."""
    solves = []
    step = MpcController.mpc_step

    def recording(ctrl, x0, ref):
        u, info = step(ctrl, x0, ref)
        solves.append((np.array(x0), np.array(ref), u, info))
        return u, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MpcController, "mpc_step", recording)
        res = harness.run_track(cfg, model_lp=model_lp)
    dss, lqr = harness._design(cfg, model_lp)
    return build_predictor(dss, lqr.K, m=20), res.extra["controller"].cfg, solves


class TestParametricMaps:
    """r = R theta, z0 its input rows, stand in for assembling and solving the QP."""

    def test_maps_match_the_assembled_problem(self, pred):
        cfg = MpcConfig()
        qp = _condense(pred, cfg)
        rng = np.random.default_rng(47)
        for _ in range(50):
            x0 = rng.uniform(-1.0, 1.0, 4) * [30.0, 5.0, 20.0, 40.0]
            ref = rng.uniform(-30.0, 30.0, (cfg.N + 1, 4))
            prob = assembled(pred, cfg, x0, ref)
            theta = qp.theta(x0, ref)[qp.used]
            z0 = np.linalg.solve(prob.P, -prob.q)
            # the rows' shift: tilt, speed and tilt rate of the free response
            x, shift = x0, np.zeros(4 * cfg.N)
            for k in range(cfg.N):
                x = pred.A_bar @ x
                shift[3 * k:3 * k + 3] = x[1:]
            r = prob.A @ z0 + shift
            # the input rows of R are Z
            assert np.max(np.abs(qp.R[-cfg.N:] @ theta - z0)) <= 1e-12 * np.max(np.abs(z0))
            assert np.max(np.abs(qp.R @ theta - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("model", ["truth", "identified"])
    def test_replayed_track_solves_match_the_generic_solver(self, model):
        # every solve of the noisy 40 s track at seed 0, on the truth and on
        # the model the seed-0 pipeline identifies, against a fresh solver
        # on the assembled problem
        cfg = harness.load_config()
        model_lp = None
        if model == "identified":
            fit = harness.run_identify(cfg).extra["id_result"]
            model_lp = fit.linear_params(r=cfg["plant"]["linear"]["r"])
        pred, mpc_cfg, solves = recorded_track_solves(cfg, model_lp)
        assert len(solves) == 400
        binding = 0
        for x0, ref, u, info in solves:
            prob = assembled(pred, mpc_cfg, x0, ref)
            fresh = QpSolver(prob).solve()
            assert (info["status"], info["iterations"]) == (fresh.status, fresh.iterations)
            if fresh.status == "solved":
                assert abs(u - fresh.z[0]) <= 1e-9 * max(1.0, abs(fresh.z[0]))
                assert max(residuals(prob, fresh)) <= 1e-9
            binding += info["iterations"] > 0
        assert binding >= 50


class TestDualModeEquivalence:
    def test_lifted_prediction_matches_fast_loop(self, dss, lqr, pred):
        # run the real two-rate loop (no filter) with a random slow input
        # sequence; the lifted model must land on the same states at every
        # slow tick
        rng = np.random.default_rng(31)
        u_seq = rng.normal(scale=20.0, size=12)
        x_fast = rng.normal(size=4) * 0.2
        x_slow = x_fast.copy()
        for u_slow in u_seq:
            for _ in range(20):
                u = -(lqr.K @ x_fast)[0] + u_slow
                x_fast = dss.A_d @ x_fast + dss.B_d[:, 0] * u
            x_slow = pred.A_bar @ x_slow + pred.B_bar[:, 0] * u_slow
            assert np.max(np.abs(x_fast - x_slow)) < 1e-9


class TestSmoothStep:
    def test_before_step(self):
        ref = SmoothStepRef(t0=5.0, amplitude=20.0, T_rise=2.0)
        assert_allclose(smooth_step(ref, 4.999), np.zeros(4), atol=0)

    def test_midpoint(self):
        ref = SmoothStepRef(t0=5.0, amplitude=20.0, T_rise=2.0)
        assert_allclose(smooth_step(ref, 6.0)[0], 10.0, rtol=1e-12)

    def test_after_rise(self):
        ref = SmoothStepRef(t0=5.0, amplitude=20.0, T_rise=2.0)
        assert smooth_step(ref, 7.0)[0] == 20.0
        assert smooth_step(ref, 100.0)[0] == 20.0
        assert_allclose(smooth_step(ref, 8.3)[1:], np.zeros(3), atol=0)

    def test_array_of_times_is_bitwise_the_stacked_rows(self):
        # the MPC preview built in one call, against the per-time rows and
        # against the per-phase formula evaluated on scalars
        def literal(ref, t):
            if t < ref.t0:
                return 0.0
            if t < ref.t0 + ref.T_rise:
                return ref.amplitude * (1.0 - np.cos(np.pi * (t - ref.t0) / ref.T_rise)) / 2.0
            return ref.amplitude

        for ref in (SmoothStepRef(t0=5.0, amplitude=20.0, T_rise=2.0),
                    SmoothStepRef(t0=0.35, amplitude=-7.3, T_rise=1.3)):
            for k in range(0, 2000, 20):
                t = k * 0.005
                preview = smooth_step(ref, t + np.arange(41) * 0.1)
                rows = np.stack([smooth_step(ref, t + j * 0.1) for j in range(41)])
                assert preview.shape == (41, 4)
                assert np.array_equal(preview, rows)
                assert np.array_equal(preview[:, 0],
                                      [literal(ref, t + j * 0.1) for j in range(41)])
                assert not preview[:, 1:].any()

    def test_monotone_rise(self):
        ref = SmoothStepRef(t0=1.0, amplitude=20.0, T_rise=2.0)
        ts = np.linspace(0.5, 3.5, 200)
        vals = [smooth_step(ref, t)[0] for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
