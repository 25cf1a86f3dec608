import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab.qp import QpProblem, QpSettings, QpSolver, solve

from oracles import enumerate_box_qp


def random_box_qp(rng, n=None):
    """Strictly convex box-constrained QP with a random center and width."""
    n = n or int(rng.integers(1, 7))
    M = rng.normal(size=(n, n))
    P = M @ M.T + (0.1 + rng.uniform()) * np.eye(n)
    q = rng.normal(scale=3.0, size=n)
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.2, 3.0, size=n)
    return QpProblem(P=P, q=q, A=np.eye(n), l=lo, u=hi)


class TestBasics:
    def test_unconstrained_stationary_point(self):
        prob = QpProblem(P=[[1.0]], q=[-1.0], A=np.zeros((0, 1)), l=[], u=[])
        sol = solve(prob)
        assert sol.status == "solved"
        assert_allclose(sol.z, [1.0], atol=1e-9)

    def test_active_bound(self):
        prob = QpProblem(P=[[1.0]], q=[-1.0], A=[[1.0]], l=[0.0], u=[0.5])
        sol = solve(prob)
        assert sol.status == "solved"
        assert_allclose(sol.z, [0.5], atol=1e-9)
        assert sol.y[0] > 0  # upper bound pushes back

    def test_equality_row(self):
        prob = QpProblem(P=np.eye(2), q=[0.0, 0.0],
                         A=[[1.0, 1.0]], l=[1.0], u=[1.0])
        sol = solve(prob)
        assert sol.status == "solved"
        assert_allclose(sol.z, [0.5, 0.5], atol=1e-8)

    def test_objective_reported(self):
        prob = QpProblem(P=[[2.0]], q=[0.0], A=[[1.0]], l=[1.0], u=[3.0])
        sol = solve(prob)
        assert_allclose(sol.objective, 1.0, atol=1e-8)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            QpProblem(P=[[1.0, 0.5], [0.0, 1.0]], q=[0, 0],
                      A=np.zeros((0, 2)), l=[], u=[])
        with pytest.raises(ValueError):
            QpProblem(P=[[1.0]], q=[0.0], A=[[1.0]], l=[2.0], u=[1.0])


class TestAgainstEnumerationOracle:
    def test_hundred_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            prob = random_box_qp(rng)
            obj_star, z_star = enumerate_box_qp(prob.P, prob.q, prob.l, prob.u)
            sol = solve(prob)
            assert sol.status == "solved"
            assert sol.objective - obj_star <= 1e-6 * max(1.0, abs(obj_star))
            assert abs(sol.objective - obj_star) <= 1e-6 * max(1.0, abs(obj_star))
            # KKT residuals on the reported solution
            r_prim = np.max(np.maximum(prob.l - prob.A @ sol.z,
                                       prob.A @ sol.z - prob.u).clip(min=0.0))
            r_dual = np.max(np.abs(prob.P @ sol.z + prob.q + prob.A.T @ sol.y))
            assert r_prim <= 1e-7
            assert r_dual <= 1e-7


class TestOptimalityStructure:
    def test_dual_signs_and_interior_duals(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            prob = random_box_qp(rng, n=4)
            sol = solve(prob)
            assert sol.status == "solved"
            Az = prob.A @ sol.z
            scale = max(1.0, np.max(np.abs(sol.y)))
            slack_lo = Az - prob.l
            slack_hi = prob.u - Az
            width = prob.u - prob.l
            for i in range(prob.m):
                interior = slack_lo[i] > 0.05 * width[i] and slack_hi[i] > 0.05 * width[i]
                if interior:
                    assert abs(sol.y[i]) <= 1e-6 * scale
                elif slack_lo[i] < 1e-7:
                    assert sol.y[i] <= 1e-8 * scale  # lower bound: push up
                elif slack_hi[i] < 1e-7:
                    assert sol.y[i] >= -1e-8 * scale


class TestWarmStart:
    def test_resolve_in_few_iterations(self):
        # the interior-point solver carries no iterate from one solve to the
        # next; a re-solve reuses only the cached ordering and band map, so
        # it must repeat the cold solve exactly and stay within a few
        # iterations, also after a vector update
        rng = np.random.default_rng(5)
        prob = random_box_qp(rng, n=5)
        solver = QpSolver(prob)
        first = solver.solve()
        again = solver.solve()
        assert first.status == again.status == "solved"
        assert again.iterations == first.iterations
        assert again.iterations <= 10
        assert_allclose(again.z, first.z, atol=0)
        q = 1.01 * prob.q
        fresh = solve(QpProblem(P=prob.P, q=q, A=prob.A, l=prob.l, u=prob.u))
        solver.update_vectors(q=q)
        moved = solver.solve()
        assert moved.status == "solved"
        assert moved.iterations <= 10
        assert_allclose(moved.z, fresh.z, atol=1e-12)


    def test_update_leaves_callers_problem_unchanged(self):
        rng = np.random.default_rng(6)
        prob = random_box_qp(rng, n=4)
        q, l, u = prob.q, prob.l, prob.u
        saved = (q.copy(), l.copy(), u.copy())
        solver = QpSolver(prob)
        solver.update_vectors(q=2.0 * q, l=l - 1.0, u=u + 1.0)
        assert prob.q is q and prob.l is l and prob.u is u
        for now, before in zip((prob.q, prob.l, prob.u), saved):
            assert_allclose(now, before, atol=0)
        assert_allclose(solver.prob.q, 2.0 * q, atol=0)


class TestBandedKkt:
    def test_band_solve_matches_dense_kkt(self):
        # equality rows, one- and two-sided boxes, a free row and a coupled
        # row: the permuted band storage must reproduce the dense matrix
        rng = np.random.default_rng(3)
        n = 6
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        A = np.vstack([np.eye(n), [[1.0, -2.0, 0.0, 0.5, 0.0, 3.0]],
                       [[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]]])
        l = np.array([-1.0, 0.3, -np.inf, -2.0, -np.inf, -1.0, -0.5, 0.7])
        u = np.array([1.0, 0.3, 2.0, np.inf, np.inf, 1.5, 4.0, 0.7])
        solver = QpSolver(QpProblem(P=P, q=np.zeros(n), A=A, l=l, u=u))
        eq = [1, 7]
        up = [0, 2, 5, 6]
        lo = [0, 3, 5, 6]
        G = np.vstack([A[up], -A[lo]])
        assert_allclose(solver._G, G, atol=0)
        assert_allclose(solver._AE, A[eq], atol=0)
        w = rng.uniform(0.01, 100.0, size=G.shape[0])
        delta = 1e-9
        K = np.block([[P + G.T @ np.diag(w) @ G + delta * np.eye(n), A[eq].T],
                      [A[eq], -delta * np.eye(len(eq))]])
        rhs = rng.normal(size=n + len(eq))
        solver._factor(w)
        x = solver._kkt_solve(rhs)
        ref = np.linalg.solve(K, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


    def test_update_keeps_row_pattern(self):
        solver = QpSolver(QpProblem(P=np.eye(2), q=[0.0, 0.0], A=np.eye(2),
                                    l=[1.0, -1.0], u=[1.0, 1.0]))
        solver.update_vectors(l=[2.0, -3.0], u=[2.0, 0.5])
        assert_allclose(solver.solve().z, [2.0, 0.0], atol=1e-8)
        with pytest.raises(ValueError):
            solver.update_vectors(l=[0.0, -1.0], u=[1.0, np.inf])


class TestScalingInvariance:
    def test_minimizer_unchanged_by_common_cost_scale(self):
        rng = np.random.default_rng(9)
        prob = random_box_qp(rng, n=4)
        sol1 = solve(prob)
        scaled = QpProblem(P=10.0 * prob.P, q=10.0 * prob.q,
                           A=prob.A, l=prob.l, u=prob.u)
        sol2 = solve(scaled)
        assert_allclose(sol1.z, sol2.z, atol=1e-6)


class TestStatuses:
    def test_primal_infeasible_certificate(self):
        prob = QpProblem(P=[[1.0]], q=[0.0],
                         A=[[1.0], [1.0]], l=[-np.inf, 1.0], u=[-1.0, np.inf])
        sol = solve(prob)
        assert sol.status == "primal-infeasible"

    def test_max_iter_carries_best_iterate(self):
        rng = np.random.default_rng(11)
        prob = random_box_qp(rng, n=6)
        sol = solve(prob, QpSettings(max_iter=3))
        assert sol.status == "max-iter"
        assert sol.iterations == 3
        assert np.all(np.isfinite(sol.z))
        assert np.isfinite(sol.primal_residual)


class TestSettingsValidation:
    def test_bad_settings(self):
        for bad in ({"eps_abs": 0.0}, {"eps_rel": -1e-8}, {"eps_prim_inf": 0.0},
                    {"max_iter": 0}):
            with pytest.raises(ValueError):
                QpSettings(**bad)
