import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab.errors import PlantBlowUpError, StabilizabilityError
from ballbot_lab.numerics import (ContinuousSS,
                                  design_butterworth2, eigenvalues,
                                  nrmse_fit, rk4_step, solve_dare,
                                  zoh_discretize)
from ballbot_lab.plant import LinearParams, build_linear_ss

from oracles import biquad_gain, eig_via_char_poly, expm_series


class TestZohDiscretize:
    def test_double_integrator_closed_form(self):
        sys = ContinuousSS(A=[[0, 1], [0, 0]], B=[[0], [1]])
        d = zoh_discretize(sys, 0.1)
        assert_allclose(d.A_d, [[1, 0.1], [0, 1]], atol=1e-14)
        assert_allclose(d.B_d, [[0.005], [0.1]], atol=1e-14)

    def test_scalar_closed_form(self):
        a, b, Ts = -2.3, 1.7, 0.37
        d = zoh_discretize(ContinuousSS(A=[[a]], B=[[b]]), Ts)
        assert_allclose(d.A_d[0, 0], math.exp(a * Ts), rtol=1e-12)
        assert_allclose(d.B_d[0, 0], b * (math.exp(a * Ts) - 1) / a, rtol=1e-12)

    def test_reference_plant_matches_series_oracle(self):
        ss = build_linear_ss(LinearParams.reference())
        Ts = 0.005
        d = zoh_discretize(ss, Ts)
        aug = np.zeros((5, 5))
        aug[:4, :4] = ss.A
        aug[:4, 4:] = ss.B
        E = expm_series(aug * Ts, terms=50)
        assert np.max(np.abs(d.A_d - E[:4, :4])) < 1e-10
        assert np.max(np.abs(d.B_d - E[:4, 4:])) < 1e-10

    def test_zero_dynamics(self):
        sys = ContinuousSS(A=np.zeros((3, 3)), B=np.arange(3.0).reshape(3, 1))
        d = zoh_discretize(sys, 0.25)
        assert_allclose(d.A_d, np.eye(3), atol=1e-12)
        assert_allclose(d.B_d, sys.B * 0.25, atol=1e-12)

    def test_semigroup_property(self):
        ss = build_linear_ss(LinearParams.reference())
        d1 = zoh_discretize(ss, 0.005)
        d2 = zoh_discretize(ss, 0.01)
        assert np.max(np.abs(d1.A_d @ d1.A_d - d2.A_d)) < 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ContinuousSS(A=[[np.nan]], B=[[1.0]])
        with pytest.raises(ValueError):
            zoh_discretize(ContinuousSS(A=[[0.0]], B=[[1.0]]), -1.0)


class TestSolveDare:
    def test_deadbeat(self):
        P, K = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert_allclose(P, [[1.0]], atol=1e-12)
        assert_allclose(K, [[0.0]], atol=1e-12)

    def test_scalar_golden_ratio(self):
        # fixed point of p = 1 + p - p^2/(1+p)
        P, K = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        golden = (1 + math.sqrt(5)) / 2
        assert_allclose(P[0, 0], golden, rtol=1e-12)
        assert_allclose(K[0, 0], golden / (1 + golden), rtol=1e-12)

    def test_reference_plant_stabilized(self):
        d = zoh_discretize(build_linear_ss(LinearParams.reference()), 0.005)
        Q = np.diag([20.0, 100.0, 10.0, 50.0])
        R = np.array([[200.0]])
        P, K = solve_dare(d.A_d, d.B_d, Q, R)
        assert max(abs(e) for e in eigenvalues(d.A_d - d.B_d @ K)) < 1.0
        resid = d.A_d.T @ P @ d.A_d - P + Q \
            - d.A_d.T @ P @ d.B_d @ np.linalg.solve(
                R + d.B_d.T @ P @ d.B_d, d.B_d.T @ P @ d.A_d)
        assert np.max(np.abs(resid)) < 1e-8

    def test_random_stabilizable_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = rng.integers(2, 5)
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 1))
            P, K = solve_dare(A, B, np.eye(n), [[1.0]])
            assert max(abs(e) for e in eigenvalues(A - B @ K)) < 1.0

    def test_unstabilizable_raises(self):
        # unreachable unstable mode: B has no component on it
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(StabilizabilityError):
            solve_dare(A, B, np.eye(2), [[1.0]])


class TestEigenvalues:
    def test_identity(self):
        ev = eigenvalues(np.eye(3))
        assert_allclose(sorted(e.real for e in ev), [1, 1, 1], atol=1e-12)
        assert all(abs(e.imag) < 1e-12 for e in ev)

    def test_companion_2x2(self):
        ev = eigenvalues([[0, 1], [-2, -3]])
        assert_allclose(sorted(e.real for e in ev), [-2, -1], atol=1e-10)

    def test_complex_pair(self):
        ev = eigenvalues([[0, 1], [-1, 0]])
        ev = sorted(ev, key=lambda z: z.imag)
        assert_allclose([ev[0].real, ev[0].imag], [0, -1], atol=1e-10)
        assert_allclose([ev[1].real, ev[1].imag], [0, 1], atol=1e-10)

    def test_reference_plant_unstable_and_matches_char_poly(self):
        A = build_linear_ss(LinearParams.reference()).A
        ev = np.sort_complex(np.array(eigenvalues(A)))
        oracle = np.sort_complex(eig_via_char_poly(A))
        assert np.max(np.abs(ev - oracle)) < 1e-8
        assert max(e.real for e in ev) > 0

    def test_random_residuals(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 6, 8):
            M = rng.normal(size=(n, n))
            for lam in eigenvalues(M):
                # residual via the smallest singular direction of (M - lam I)
                _, s, vh = np.linalg.svd(M - lam * np.eye(n))
                v = vh[-1].conj()
                assert np.linalg.norm(M @ v - lam * v) < 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))


class TestButterworth:
    def test_dc_gain_exact(self):
        f = design_butterworth2(1.0, 200.0)
        assert abs(f.b0 + f.b1 + f.b2 - (1.0 + f.a1 + f.a2)) < 1e-15
        assert abs(biquad_gain(f, 0.0, 200.0) - 1.0) < 1e-12

    def test_minus_3db_at_cutoff(self):
        f = design_butterworth2(1.0, 200.0)
        db = 20 * math.log10(biquad_gain(f, 1.0, 200.0))
        assert abs(db - (-3.01)) < 0.1

    def test_rolloff_at_decade(self):
        f = design_butterworth2(1.0, 200.0)
        assert 20 * math.log10(biquad_gain(f, 10.0, 200.0)) <= -38.0

    def test_stability(self):
        f = design_butterworth2(1.0, 200.0)
        poles = np.roots([1.0, f.a1, f.a2])
        assert np.all(np.abs(poles) < 1.0)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError):
            design_butterworth2(120.0, 200.0)

    def test_linearity(self):
        f1 = design_butterworth2(2.0, 100.0)
        f2 = design_butterworth2(2.0, 100.0)
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        alpha = 3.7
        for xk in x:
            y1 = alpha * f1.step(xk)
            y2 = f2.step(alpha * xk)
            assert abs(y1 - y2) <= 1e-12 * max(1.0, abs(y1))


class TestBiquadStep:
    def test_zero_state_zero_input(self):
        f = design_butterworth2(1.0, 200.0)
        assert f.step(0.0) == 0.0

    def test_constant_input_converges_to_one(self):
        f = design_butterworth2(1.0, 200.0)
        y = 0.0
        for _ in range(5000):
            y = f.step(1.0)
        assert abs(y - 1.0) < 1e-9

    def test_impulse_response_sums_to_one(self):
        f = design_butterworth2(1.0, 200.0)
        total = f.step(1.0)
        for _ in range(9999):
            total += f.step(0.0)
        assert abs(total - 1.0) < 1e-9


class TestNrmseFit:
    def test_perfect(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert nrmse_fit(y, y) == 100.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        yhat = np.full(4, y.mean())
        assert abs(nrmse_fit(y, yhat)) < 1e-12

    def test_hand_example(self):
        fit = nrmse_fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert_allclose(fit, 100.0 * (1.0 - 1.0 / math.sqrt(2.0)), rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        yhat = y + rng.normal(size=50) * 0.1
        assert_allclose(nrmse_fit(y, yhat), nrmse_fit(y + 5.0, yhat + 5.0), rtol=1e-10)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            nrmse_fit([1.0, 1.0, 1.0], [1.0, 2.0, 1.0])


class TestRk4:
    def test_zero_field(self):
        x = rk4_step(lambda s, u: np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.0, 0.1)
        assert_allclose(x, [1.0, 2.0, 3.0], atol=0)

    def test_exponential_taylor(self):
        x = rk4_step(lambda s, u: s, np.array([1.0]), 0.0, 0.1)
        taylor4 = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
        assert_allclose(x[0], taylor4, rtol=1e-14)
        assert abs(x[0] - math.exp(0.1)) < 1e-6

    def test_input_held(self):
        x = rk4_step(lambda s, u: np.array([u]), np.array([0.0]), 2.0, 0.5)
        assert_allclose(x[0], 1.0, rtol=1e-14)

    def test_blowup_carries_state(self):
        state = np.array([1.0, 2.0])
        with pytest.raises(PlantBlowUpError) as exc:
            rk4_step(lambda s, u: np.array([np.inf, 0.0]), state, 0.0, 0.1)
        assert_allclose(exc.value.state, state)
