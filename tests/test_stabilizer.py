import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab.numerics import eigenvalues, zoh_discretize
from ballbot_lab.plant import LinearParams, build_linear_ss
from ballbot_lab.stabilizer import (FeedbackGains, PidState, closed_loop,
                                    feedback_row, outer_reference, p_step,
                                    pid_step)

from oracles import dot_order_bound, plain_dot, simulate_discrete


class TestOuterReference:
    def test_zero_state(self):
        assert outer_reference(FeedbackGains().outer_vector(), np.zeros(4)) == 0.0

    def test_hand_value(self):
        # 0*5 + 1.2*1 + 1.1*2 + 0.005*10
        ref = outer_reference(FeedbackGains().outer_vector(),
                              np.array([5.0, 1.0, 2.0, 10.0]))
        assert_allclose(ref, 3.45, rtol=1e-12)

    def test_linearity(self):
        g = FeedbackGains().outer_vector()
        x = np.array([1.0, -2.0, 0.5, 4.0])
        assert_allclose(outer_reference(g, 2 * x), 2 * outer_reference(g, x), rtol=1e-12)

    def test_sums_in_the_documented_order(self):
        # the left-to-right float sum bit for bit, and the BLAS dot, whose
        # order the kernel picks, within two summation orders' error bound:
        # the two loops' gains and random ones, over random states
        rng = np.random.default_rng(26)
        gains = [FeedbackGains().outer_vector(), FeedbackGains.identification().outer_vector()]
        gains += list(rng.normal(size=(8, 4)))
        for g in gains:
            k = tuple(g.tolist())
            for x in rng.normal(scale=[10.0, 5.0, 20.0, 50.0], size=(500, 4)):
                ref = outer_reference(k, x.tolist())
                assert ref == plain_dot(k, x)
                assert abs(ref - g.dot(x)) <= dot_order_bound(k, x)


class TestPidStep:
    def test_zero_error(self):
        st = PidState()
        assert pid_step(st, 0.0, FeedbackGains(), 0.005) == 0.0
        assert st.e_y_accum == 0.0

    def test_first_step_hand_value(self):
        st = PidState()
        u = pid_step(st, 1.0, FeedbackGains(), 0.005)
        # 180*1 + 830*0.005 + 50*(1/0.005)
        assert_allclose(u, 180.0 + 4.15 + 10000.0, rtol=1e-12)

    def test_second_step_constant_error(self):
        st = PidState()
        pid_step(st, 1.0, FeedbackGains(), 0.005)
        u2 = pid_step(st, 1.0, FeedbackGains(), 0.005)
        # 180 + 830*0.01 + 0
        assert_allclose(u2, 188.3, rtol=1e-12)

    def test_reduces_to_p_when_only_kp(self):
        g = FeedbackGains(KP=123.0, KI=0.0, KD=0.0)
        st = PidState()
        rng = np.random.default_rng(2)
        for e in rng.normal(size=100):
            assert_allclose(pid_step(st, e, g, 0.005), p_step(123.0, e), rtol=1e-12)

    def test_bad_ts(self):
        with pytest.raises(ValueError):
            pid_step(PidState(), 1.0, FeedbackGains(), 0.0)


class TestPStep:
    def test_values(self):
        assert p_step(300.0, 0.0) == 0.0
        assert p_step(300.0, 0.5) == 150.0
        assert p_step(300.0, -2.0) == -600.0


class TestClosedLoop:
    def test_feedback_row(self):
        assert_allclose(feedback_row(FeedbackGains()), [0.0, 1.2, 0.1, 0.005])
        # the fit's row is the loop's own outer vector less the measured
        # speed, and position has no gain in either gain set
        for g in (FeedbackGains(), FeedbackGains.identification()):
            assert_allclose(feedback_row(g), g.outer_vector() - [0, 0, 1, 0], atol=0)
            assert g.outer_vector()[0] == 0.0

    def test_open_loop_when_kp_zero(self):
        ss = build_linear_ss(LinearParams.reference())
        A_cl, B_cl = closed_loop(ss.A, ss.B, feedback_row(FeedbackGains()), 0.0)
        assert_allclose(A_cl, ss.A, atol=0)
        assert_allclose(B_cl, np.zeros((4, 1)), atol=0)

    def test_reduced_is_submatrix(self):
        # position feeds neither the plant nor F, so the closed loop's
        # position column is zero and dropping position leaves a submatrix
        ss = build_linear_ss(LinearParams.reference())
        g = FeedbackGains.identification()
        A_cl, B_cl = closed_loop(ss.A, ss.B, feedback_row(g), g.kp)
        A_r, B_r = closed_loop(ss.A[1:, 1:], ss.B[1:], feedback_row(g)[1:], g.kp)
        assert not A_cl[:, 0].any()
        assert_allclose(A_r, A_cl[1:, 1:], atol=0)
        assert_allclose(B_r, B_cl[1:, :], atol=0)

    @pytest.mark.parametrize("gains", [FeedbackGains(), FeedbackGains.identification()],
                             ids=["balancing", "identification"])
    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "zoh"])
    def test_three_state_loop_is_four_state_loop_without_position(self, gains,
                                                                   discrete):
        # F has a zero position entry, so closing the loop on the 3-state
        # model with F[1:] must give the same floats as closing it with
        # position and then dropping the position row and column
        ss = build_linear_ss(LinearParams.reference())
        A, B = ss.A, ss.B
        if discrete:
            dss = zoh_discretize(ss, 0.005)
            A, B = dss.A_d, dss.B_d
        F = feedback_row(gains)
        A_cl, B_cl = closed_loop(A, B, F, gains.kp)
        A_r, B_r = closed_loop(A[1:, 1:], B[1:], F[1:], gains.kp)
        assert_allclose(A_r, A_cl[1:, 1:], rtol=0, atol=0)
        assert_allclose(B_r, B_cl[1:], rtol=0, atol=0)
        # the composition is the documented one, A + kp (B F) and kp B
        assert_allclose(A_cl, A + gains.kp * (B @ F[None, :]), rtol=0, atol=0)
        assert_allclose(B_cl, gains.kp * B, rtol=0, atol=0)

    def test_identification_loop_is_hurwitz_with_retuned_gain(self):
        ss = build_linear_ss(LinearParams.reference())
        g = FeedbackGains.identification()
        A_r = closed_loop(ss.A, ss.B, feedback_row(g), g.kp)[0][1:, 1:]
        assert max(e.real for e in eigenvalues(A_r)) < 0

    def test_balancing_gain_set_does_not_stabilize_p_loop(self):
        # characterization: the hand-tuned balancing k_thetadot leaves the
        # plain-P loop unstable on the reference model (the PID derivative
        # term was supplying that damping); this is why identification runs
        # with the retuned gain. See the README identification notes.
        ss = build_linear_ss(LinearParams.reference())
        g = FeedbackGains()
        A_r = closed_loop(ss.A, ss.B, feedback_row(g), g.kp)[0][1:, 1:]
        assert max(e.real for e in eigenvalues(A_r)) > 0

    def test_composition_matches_componentwise_simulation(self):
        # simulating plant + outer feedback + P controller step by step must
        # equal simulating the composed discrete closed loop on the same d
        lp = LinearParams.reference()
        g = FeedbackGains.identification()
        dss = zoh_discretize(build_linear_ss(lp), 0.005)
        A_cl, B_cl = closed_loop(dss.A_d, dss.B_d, feedback_row(g), g.kp)
        rng = np.random.default_rng(11)
        d = rng.normal(size=1000)
        x = np.zeros(4)
        componentwise = np.empty((1000, 4))
        for k in range(1000):
            componentwise[k] = x
            e = outer_reference(g.outer_vector(), x) - x[2] + d[k]
            u = p_step(g.kp, e)
            x = dss.A_d @ x + dss.B_d[:, 0] * u
        composed = simulate_discrete(A_cl, B_cl, np.zeros(4), d)
        assert np.max(np.abs(componentwise - composed)) < 1e-9

    def test_composition_exact_even_for_unstable_gains(self):
        lp = LinearParams.reference()
        g = FeedbackGains()  # unstable P-loop; equality is still algebraic
        dss = zoh_discretize(build_linear_ss(lp), 0.005)
        A_cl, B_cl = closed_loop(dss.A_d, dss.B_d, feedback_row(g), g.kp)
        rng = np.random.default_rng(12)
        d = rng.normal(size=300)
        x = np.zeros(4)
        for k in range(300):
            e = outer_reference(g.outer_vector(), x) - x[2] + d[k]
            x = dss.A_d @ x + dss.B_d[:, 0] * p_step(g.kp, e)
        composed = simulate_discrete(A_cl, B_cl, np.zeros(4), d)
        xc = composed[-1]
        xc = A_cl @ xc + B_cl[:, 0] * d[-1]  # advance to step 300
        denom = np.maximum(np.abs(x), 1.0)
        assert np.max(np.abs(x - xc) / denom) < 1e-9


class TestPidStabilizesReferencePlant:
    def test_balance_from_two_degrees(self):
        # the double-loop PID with the hand-tuned gains balances the
        # reference linear plant: |theta| < 0.1 deg for all t > 10 s
        lp = LinearParams.reference()
        g = FeedbackGains()
        dss = zoh_discretize(build_linear_ss(lp), 0.005)
        x = np.array([0.0, 2.0, 0.0, 0.0])
        st = PidState()
        for k in range(int(20.0 / 0.005)):
            e = outer_reference(g.outer_vector(), x) - x[2]
            u = pid_step(st, e, g, 0.005)
            x = dss.A_d @ x + dss.B_d[:, 0] * u
            assert abs(x[1]) < 45.0
            if k * 0.005 > 10.0:
                assert abs(x[1]) < 0.1
