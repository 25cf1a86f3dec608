import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab.qp import QpProblem, QpSettings, QpSolver

from oracles import (InteriorPointQp, enumerate_box_qp, kkt_violation, objective,
                     residuals)


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
        sol = QpSolver(prob).solve()
        assert sol.status == "solved"
        assert_allclose(sol.z, [1.0], atol=1e-9)

    def test_active_bound(self):
        prob = QpProblem(P=[[1.0]], q=[-1.0], A=[[1.0]], l=[0.0], u=[0.5])
        sol = QpSolver(prob).solve()
        assert sol.status == "solved"
        assert_allclose(sol.z, [0.5], atol=1e-9)
        assert sol.y[0] > 0  # upper bound pushes back

    def test_equality_row(self):
        # a QpProblem may pose l == u (the test oracles do); the solver
        # takes box rows only
        for l, u in (([1.0], [1.0]), ([0.0, 1.0], [1.0, 1.0])):
            prob = QpProblem(P=np.eye(2), q=[0.0, 0.0],
                             A=np.ones((len(l), 2)), l=l, u=u)
            with pytest.raises(ValueError, match="box rows only"):
                QpSolver(prob)

    def test_objective_reported(self):
        prob = QpProblem(P=[[2.0]], q=[0.0], A=[[1.0]], l=[1.0], u=[3.0])
        sol = QpSolver(prob).solve()
        assert_allclose(objective(prob, sol.z), 1.0, atol=1e-8)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            QpProblem(P=[[1.0, 0.5], [0.0, 1.0]], q=[0, 0],
                      A=np.zeros((0, 2)), l=[], u=[])
        with pytest.raises(ValueError):
            QpProblem(P=[[1.0]], q=[0.0], A=[[1.0]], l=[2.0], u=[1.0])

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(P=[[1.0, 0.0], [0.0, -1e-6]], q=[0.0, 0.0],
                      A=np.eye(2), l=[-1.0, -1.0], u=[1.0, 1.0])
        # a rank-3 Gram matrix has rounding-level negative eigenvalues; it passes
        G = np.random.default_rng(1).normal(size=(3, 6))
        P = G.T @ G
        P = 0.5 * (P + P.T)
        assert np.linalg.eigvalsh(P)[0] < 0
        # such a singular problem is valid, but the solver needs P's
        # Cholesky factor, as it does for P = 0
        for P in (P, np.zeros((6, 6))):
            prob = QpProblem(P=P, q=np.zeros(6), A=np.zeros((0, 6)), l=[], u=[])
            with pytest.raises(ValueError, match="positive definite"):
                QpSolver(prob)


class TestAgainstEnumerationOracle:
    def test_hundred_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            prob = random_box_qp(rng)
            obj_star, z_star = enumerate_box_qp(prob.P, prob.q, prob.l, prob.u)
            sol = QpSolver(prob).solve()
            assert sol.status == "solved"
            obj = objective(prob, sol.z)
            assert obj - obj_star <= 1e-6 * max(1.0, abs(obj_star))
            assert abs(obj - obj_star) <= 1e-6 * max(1.0, abs(obj_star))
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
            sol = QpSolver(prob).solve()
            assert sol.status == "solved"
            Az = prob.A @ sol.z
            scale = max(1.0, np.max(np.abs(sol.y)))
            slack_lo = Az - prob.l
            slack_hi = prob.u - Az
            width = prob.u - prob.l
            for i in range(prob.l.size):
                interior = slack_lo[i] > 0.05 * width[i] and slack_hi[i] > 0.05 * width[i]
                if interior:
                    assert abs(sol.y[i]) <= 1e-6 * scale
                elif slack_lo[i] < 1e-7:
                    assert sol.y[i] <= 1e-8 * scale  # lower bound: push up
                elif slack_hi[i] < 1e-7:
                    assert sol.y[i] >= -1e-8 * scale


class TestWarmStart:
    def test_resolve_in_few_iterations(self):
        # the solver carries no iterate from one solve to the next; a
        # re-solve reuses only P^-1, H and S, so it must repeat the cold
        # solve exactly and stay within a few steps, also from the start of
        # a moved q
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
        fresh = QpSolver(QpProblem(P=prob.P, q=q, A=prob.A, l=prob.l, u=prob.u)).solve()
        z0 = np.linalg.solve(prob.P, -q)
        moved = solver.solve(z0, prob.A @ z0)
        assert moved.status == "solved"
        assert moved.iterations <= 10
        assert_allclose(moved.z, fresh.z, atol=1e-12)


    def test_binding_solves_in_a_row_repeat_fresh_solvers(self):
        # the widened bounds are built once per solver and each solve masks
        # a copy of them, so binding solves in a row on one solver give bit
        # for bit what a fresh solver gives for the same start
        rng = np.random.default_rng(8)
        prob = random_box_qp(rng, n=6)
        solver = QpSolver(prob)
        for _ in range(6):
            z0 = np.linalg.solve(prob.P, -rng.normal(scale=3.0, size=6))
            sol = solver.solve(z0, prob.A @ z0)
            fresh = QpSolver(prob).solve(z0, prob.A @ z0)
            assert sol.iterations >= 2
            assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
            assert sol.z.tobytes() == fresh.z.tobytes()
            assert sol.y.tobytes() == fresh.y.tobytes()


class TestDenseKkt:
    def test_kkt_solve_matches_numpy_solve(self):
        # equality rows, one- and two-sided boxes, a free row and a coupled
        # row: the interior-point oracle's KKT matrix, formed from A_in and
        # the summed weights of each row's two sides, must solve like the
        # literal [[P + G'WG, A_E'], ..]
        rng = np.random.default_rng(3)
        n = 6
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        A = np.vstack([np.eye(n), [[1.0, -2.0, 0.0, 0.5, 0.0, 3.0]],
                       [[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]]])
        l = np.array([-1.0, 0.3, -np.inf, -2.0, -np.inf, -1.0, -0.5, 0.7])
        u = np.array([1.0, 0.3, 2.0, np.inf, np.inf, 1.5, 4.0, 0.7])
        solver = InteriorPointQp(QpProblem(P=P, q=np.zeros(n), A=A, l=l, u=u))
        eq = [1, 7]
        up = [0, 2, 5, 6]
        lo = [0, 3, 5, 6]
        G = np.vstack([A[up], -A[lo]])
        assert_allclose(solver.G, G, atol=0)
        assert_allclose(solver.AE, A[eq], atol=0)
        w = rng.uniform(0.01, 100.0, size=G.shape[0])
        delta = 1e-9
        K = np.block([[P + G.T @ np.diag(w) @ G + delta * np.eye(n), A[eq].T],
                      [A[eq], -delta * np.eye(len(eq))]])
        rhs = rng.normal(size=n + len(eq))
        solver.assemble(w)
        x = solver.kkt_solve(rhs)
        ref = np.linalg.solve(K, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def interior_qp(rng, n):
    """Random QP whose unconstrained minimizer lies inside its boxes.

    Returns the problem and the minimizer; the rows are the identity, two
    random two-sided rows and a random row with only an upper side, each
    with a margin around the minimizer.
    """
    M = rng.normal(size=(n, n))
    P = M @ M.T + (0.1 + rng.uniform()) * np.eye(n)
    q = rng.normal(scale=3.0, size=n)
    z_star = np.linalg.solve(P, -q)
    A = np.vstack([np.eye(n), rng.normal(size=(3, n))])
    Az = A @ z_star
    l = Az - rng.uniform(0.1, 2.0, size=Az.size)
    u = Az + rng.uniform(0.1, 2.0, size=Az.size)
    l[-1] = -np.inf
    return QpProblem(P=P, q=q, A=A, l=l, u=u), z_star


class TestUnconstrainedExit:
    """A minimizer that meets every box is returned before any iteration."""

    @staticmethod
    def _check_exit(prob, sol, z_star):
        assert sol.status == "solved"
        assert sol.iterations == 0
        assert np.max(np.abs(sol.z - z_star)) <= 1e-12 * np.max(np.abs(z_star))
        # the boxes hold exactly
        Az = prob.A @ sol.z
        assert np.all(prob.l <= Az) and np.all(Az <= prob.u)

    def test_interior_box_minimizer(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            prob, z_star = interior_qp(rng, n=int(rng.integers(1, 7)))
            sol = QpSolver(prob).solve()
            self._check_exit(prob, sol, z_star)
            assert np.all(sol.y == 0)

    def test_minimizer_just_outside_a_box_goes_to_the_iterations(self):
        rng = np.random.default_rng(33)
        for side in ("l", "u"):
            prob, z_star = interior_qp(rng, n=4)
            bounds = getattr(prob, side)
            # the first box row is 1e-12 on the wrong side of the minimizer
            bounds[0] = z_star[0] + (1e-12 if side == "l" else -1e-12)
            sol = QpSolver(prob).solve()
            assert sol.status == "solved"
            assert sol.iterations > 0

    def test_start_inside_every_box_is_returned_itself(self):
        # a caller's start (z0, r) for rows shifted by s: r = A z0 + s
        rng = np.random.default_rng(32)
        prob, z_star = interior_qp(rng, n=4)
        solver = QpSolver(prob)
        s = rng.uniform(-0.05, 0.05, prob.l.size)
        z0 = z_star + rng.uniform(-0.01, 0.01, z_star.size)
        r = prob.A @ z0 + s
        assert np.all((prob.l < r) & (r < prob.u))
        sol = solver.solve(z0, r)
        assert sol.z is z0
        assert sol.status == "solved" and sol.iterations == 0
        assert sol.y.shape == prob.l.shape and not sol.y.any()

    def test_zero_hessian_never_takes_the_exit(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            q = rng.normal(size=n)
            prob = QpProblem(P=np.zeros((n, n)), q=q, A=np.eye(n),
                             l=-np.ones(n), u=np.ones(n))
            sol = InteriorPointQp(prob).solve()
            assert sol.status == "solved"
            assert sol.iterations > 0
            assert_allclose(sol.z, -np.sign(q), atol=1e-6)


class TestDualActiveSet:
    """A positive definite P is solved by the dual active-set method."""

    def test_agrees_with_interior_point_and_enumeration(self):
        rng = np.random.default_rng(2024)
        steps = []
        for _ in range(100):
            prob = random_box_qp(rng)
            sol = QpSolver(prob).solve()
            ipm = InteriorPointQp(prob).solve()
            obj_star, z_star = enumerate_box_qp(prob.P, prob.q, prob.l, prob.u)
            assert sol.status == ipm.status == "solved"
            assert abs(objective(prob, sol.z) - obj_star) <= 1e-12 * max(1.0, abs(obj_star))
            assert_allclose(sol.z, z_star, rtol=0, atol=1e-9)
            assert_allclose(sol.z, ipm.z, rtol=0, atol=1e-6)
            assert kkt_violation(prob, sol) <= 1e-12
            assert max(residuals(prob, sol)) <= 1e-12
            steps.append(sol.iterations)
        assert max(steps) <= 2 * 6 and 0 < np.mean(steps)

    def test_binding_boxes_get_their_multipliers(self):
        # narrow boxes on general rows plus the identity's boxes: the
        # multipliers match the literal KKT system on the rows the solution
        # holds at a bound
        rng = np.random.default_rng(52)
        binding = 0
        for _ in range(30):
            n = int(rng.integers(3, 7))
            n_g = int(rng.integers(1, n))
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.5 * np.eye(n)
            AG = rng.normal(size=(n_g, n))
            c = AG @ rng.uniform(-0.2, 0.2, n)  # feasible inside the boxes
            A = np.vstack([AG, np.eye(n)])
            prob = QpProblem(P=P, q=rng.normal(scale=3.0, size=n), A=A,
                             l=np.concatenate([c - 0.05, np.full(n, -0.3)]),
                             u=np.concatenate([c + 0.05, np.full(n, 0.3)]))
            sol = QpSolver(prob).solve()
            assert sol.status == "solved"
            assert kkt_violation(prob, sol) <= 1e-10
            active = np.flatnonzero(sol.y)
            binding += active.size > 0
            Aw = A[active]
            K = np.block([[P, Aw.T], [Aw, np.zeros((active.size, active.size))]])
            ref = np.linalg.solve(K, np.concatenate([-prob.q, prob.l[active] * (
                sol.y[active] < 0) + prob.u[active] * (sol.y[active] > 0)]))
            assert_allclose(sol.z, ref[:n], rtol=0, atol=1e-9)
            assert_allclose(sol.y[active], ref[n:], rtol=1e-9,
                            atol=1e-9 * np.max(np.abs(ref[n:]), initial=0.0))
            ipm = InteriorPointQp(prob).solve()
            assert_allclose(sol.z, ipm.z, rtol=0, atol=1e-6)
        assert binding >= 10

    @staticmethod
    def _with_rows(prob, rows, l, u):
        return QpProblem(P=prob.P, q=prob.q, A=np.vstack([prob.A, rows]),
                         l=np.concatenate([prob.l, l]), u=np.concatenate([prob.u, u]))

    def test_duplicated_and_summed_rows(self):
        # rows that repeat a box or add two of them leave the feasible set as
        # it is; at a corner they bind together with the rows they depend on
        rng = np.random.default_rng(53)
        for _ in range(50):
            prob = random_box_qp(rng, n=int(rng.integers(2, 6)))
            n = prob.q.size
            i, j = rng.choice(n, size=2, replace=False)
            I = np.eye(n)
            extra = self._with_rows(
                prob, [I[i], I[j], I[i] + I[j]],
                [prob.l[i], prob.l[j], prob.l[i] + prob.l[j]],
                [prob.u[i], prob.u[j], prob.u[i] + prob.u[j]])
            obj_star, z_star = enumerate_box_qp(prob.P, prob.q, prob.l, prob.u)
            sol = QpSolver(extra, QpSettings(max_iter=20)).solve()
            assert sol.status == "solved"
            assert sol.iterations < 20
            assert_allclose(sol.z, z_star, rtol=0, atol=1e-9)
            assert kkt_violation(extra, sol) <= 1e-12
            # a sum row whose lower side lies beyond the two upper sides
            infeasible = self._with_rows(extra, [I[i] + I[j]],
                                         [prob.u[i] + prob.u[j] + 0.5], [np.inf])
            sol = QpSolver(infeasible, QpSettings(max_iter=20)).solve()
            assert sol.status == "primal-infeasible"
            assert sol.iterations < 20

    def test_summed_general_rows_agree_with_interior_point(self):
        # general rows, the third the sum of the first two: once it depends
        # on the active set, only multipliers that really shrink may leave;
        # rounding noise in the others must not, or an infeasible problem
        # comes back "solved"
        rng = np.random.default_rng(1)
        statuses = []
        for _ in range(200):
            n, m = int(rng.integers(2, 7)), int(rng.integers(3, 8))
            M = rng.normal(size=(n, n))
            A = rng.normal(size=(m, n))
            A[2] = A[0] + A[1]
            l = rng.uniform(-2.0, 0.0, m)
            u = l + rng.uniform(0.0, 2.0, m)
            l[rng.uniform(size=m) < 0.3] = -np.inf
            u[rng.uniform(size=m) < 0.3] = np.inf
            prob = QpProblem(P=M @ M.T + 0.5 * np.eye(n), q=rng.normal(scale=5.0, size=n),
                             A=A, l=l, u=u)
            sol = QpSolver(prob).solve()
            ipm = InteriorPointQp(prob, QpSettings(eps_abs=1e-10, eps_rel=1e-10)).solve()
            assert sol.status == ipm.status
            if sol.status == "solved":
                assert kkt_violation(prob, sol) <= 1e-9
            statuses.append(sol.status)
        assert 20 <= statuses.count("primal-infeasible") <= 180

    def test_box_row_repeated(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.5 * np.eye(n)
            a = rng.normal(size=n)
            base = QpProblem(P=P, q=rng.normal(scale=3.0, size=n),
                             A=np.vstack([a, np.eye(n)]),
                             l=np.concatenate([[0.1], np.full(n, -1.0)]),
                             u=np.concatenate([[0.15], np.full(n, 1.0)]))
            plain = QpSolver(base).solve()
            # a wider box on the same row, one that shares its upper side,
            # and one that excludes it
            for lo, hi, status in ((-0.5, 0.4, "solved"), (-1.0, 0.15, "solved"),
                                   (0.2, 0.6, "primal-infeasible")):
                sol = QpSolver(self._with_rows(base, [a], [lo], [hi]),
                               QpSettings(max_iter=20)).solve()
                assert sol.status == status
                assert sol.iterations < 20
                if status == "solved":
                    assert_allclose(sol.z, plain.z, rtol=0, atol=1e-12)


class TestCholeskyInverse:
    """The active-set path multiplies by P^-1 built once from the inverted
    Cholesky factor; LAPACK's Cholesky solve (dpotrs) is the oracle."""

    def test_agrees_with_lapack_cholesky_solves(self):
        from scipy.linalg.lapack import dpotrf, dpotrs

        def close(x, ref):
            return np.max(np.abs(x - ref), initial=0.0) <= 1e-13 * np.max(np.abs(ref), initial=1.0)

        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            M = rng.normal(size=(n, n))
            P = M @ M.T / n + rng.uniform(0.5, 2.0) * np.eye(n)
            A = np.vstack([np.eye(n), rng.normal(size=(2, n))])
            l = np.concatenate([rng.uniform(-2.0, -0.1, size=n), [-1.0, -np.inf]])
            u = np.concatenate([rng.uniform(0.1, 2.0, size=n), [1.0, 0.5]])
            prob = QpProblem(P=P, q=rng.normal(scale=3.0, size=n), A=A, l=l, u=u)
            chol, info = dpotrf(P)
            assert info == 0
            z0 = -dpotrs(chol, prob.q)[0]
            H = dpotrs(chol, A.T)[0]
            solver = QpSolver(prob)
            assert close(-solver._P_inv @ prob.q, z0)
            assert close(solver._H, H)
            assert close(solver._S, 0.5 * (A @ H + (A @ H).T))
            # the solution on the final active set, rebuilt from the oracle
            sol = solver.solve()
            assert sol.status == "solved"
            W = np.flatnonzero(sol.y)
            b = np.where(sol.y[W] > 0, u[W], l[W])
            S_W = A[W] @ H[:, W]
            assert close(sol.z, z0 - H[:, W] @ np.linalg.solve(S_W, A[W] @ z0 - b))


class TestScalingInvariance:
    def test_minimizer_unchanged_by_common_cost_scale(self):
        rng = np.random.default_rng(9)
        prob = random_box_qp(rng, n=4)
        sol1 = QpSolver(prob).solve()
        scaled = QpProblem(P=10.0 * prob.P, q=10.0 * prob.q,
                           A=prob.A, l=prob.l, u=prob.u)
        sol2 = QpSolver(scaled).solve()
        assert_allclose(sol1.z, sol2.z, atol=1e-6)


class TestStatuses:
    def test_primal_infeasible_certificate(self):
        prob = QpProblem(P=[[1.0]], q=[0.0],
                         A=[[1.0], [1.0]], l=[-np.inf, 1.0], u=[-1.0, np.inf])
        sol = QpSolver(prob).solve()
        assert sol.status == "primal-infeasible"

    def test_row_dependent_on_no_active_row_is_forgiven_at_rounding_level(self):
        # a zero row of A depends on the empty active set. If the start lies
        # outside its box by rounding only, the row never binds and the solve
        # goes on; outside by more, no step can reach the box
        prob = QpProblem(P=np.eye(2), q=[-0.5, 0.0], A=[[0.0, 0.0], [1.0, 0.0]],
                         l=[1e-12, -1.0], u=[1.0, 1.0])
        sol = QpSolver(prob).solve()
        assert (sol.status, sol.iterations) == ("solved", 0)
        assert sol.y[0] == 0.0
        assert_allclose(sol.z, [0.5, 0.0], rtol=0, atol=0)
        far = QpProblem(P=prob.P, q=prob.q, A=prob.A, l=[1e-6, -1.0], u=prob.u)
        assert QpSolver(far).solve().status == "primal-infeasible"

    def test_max_iter_carries_best_iterate(self):
        rng = np.random.default_rng(11)
        prob = random_box_qp(rng, n=6)
        sol = QpSolver(prob, QpSettings(max_iter=3)).solve()
        assert sol.status == "max-iter"
        assert sol.iterations == 3
        assert np.all(np.isfinite(sol.z))
        assert np.isfinite(residuals(prob, sol)[0])


class TestSettingsValidation:
    def test_bad_settings(self):
        for bad in ({"eps_abs": 0.0}, {"eps_rel": -1e-8}, {"max_iter": 0}):
            with pytest.raises(ValueError):
                QpSettings(**bad)
