"""Independent reference computations used to pin expected test values.

Each helper is deliberately implemented along a different algorithmic path
than the library code it checks: plain series summation instead of
scaling-and-squaring, characteristic-polynomial root finding instead of QR,
brute-force active-set enumeration and a Mehrotra interior-point method
(``InteriorPointQp``, which also takes the singular P of the stacked MPC
problem) instead of the dual active-set method, literal step-by-step
recursions instead of lifted or modal forms, and the stacked MPC problem
(states kept as variables) instead of the condensed one. The plant's
mechanical energy, the biquad's frequency response and the algebraic
inverse of the loop composition (``extract_open_loop``) are checks that the
library itself never needs.
"""

import itertools
import math

import numpy as np

from ballbot_lab.plant import DEG
from ballbot_lab.qp import QpSettings, QpSolution


def expm_series(M, terms=60):
    """Plain truncated-series matrix exponential, no scaling tricks."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def char_poly_coeffs(M):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion.

    Returns [1, c_{n-1}, ..., c_0] such that det(sI - M) = s^n + c_{n-1}
    s^{n-1} + ... + c_0.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * np.eye(n)
        ck = -np.trace(M @ Mk) / k
        coeffs.append(ck)
    return np.array(coeffs)


def durand_kerner(coeffs, iters=400, tol=1e-14):
    """All roots of a monic polynomial by the Durand-Kerner iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    if n == 0:
        return np.array([])
    radius = 1.0 + np.max(np.abs(coeffs[1:]))
    roots = radius * np.exp(2j * np.pi * (np.arange(n) / n + 0.13))

    def poly(z):
        out = np.zeros_like(z)
        for c in coeffs:
            out = out * z + c
        return out

    for _ in range(iters):
        delta = np.zeros_like(roots)
        for i in range(n):
            denom = np.prod(roots[i] - np.delete(roots, i))
            delta[i] = poly(np.array([roots[i]]))[0] / denom
        roots = roots - delta
        if np.max(np.abs(delta)) < tol:
            break
    return roots


def eig_via_char_poly(M):
    """Eigenvalues from the characteristic polynomial (independent of QR)."""
    return durand_kerner(char_poly_coeffs(M))


def enumerate_box_qp(P, q, lo, hi):
    """Global minimum of 1/2 z'Pz + q'z subject to lo <= z <= hi.

    Brute force over all lower/free/upper assignments of each coordinate:
    solve the reduced stationarity system, then keep candidates that are
    primal feasible with correctly signed multipliers. P must be positive
    definite so the valid KKT point is the unique optimum.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = q.size
    best = None
    for assignment in itertools.product((-1, 0, 1), repeat=n):
        a = np.array(assignment)
        z = np.where(a < 0, lo, np.where(a > 0, hi, 0.0)).astype(float)
        free = np.flatnonzero(a == 0)
        fixed = np.flatnonzero(a != 0)
        if free.size:
            Pff = P[np.ix_(free, free)]
            rhs = -q[free] - P[np.ix_(free, fixed)] @ z[fixed]
            try:
                z[free] = np.linalg.solve(Pff, rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(z < lo - 1e-9) or np.any(z > hi + 1e-9):
            continue
        g = P @ z + q
        # lower-active needs g >= 0, upper-active needs g <= 0
        if np.any(g[a < 0] < -1e-8) or np.any(g[a > 0] > 1e-8):
            continue
        obj = 0.5 * z @ P @ z + q @ z
        if best is None or obj < best[0]:
            best = (obj, z.copy())
    return best


def stacked_tracking_qp(A_bar, B_bar, Q, Q_N, R, boxes, x0, ref):
    """The MPC tracking QP with x_1..x_N kept as decision variables.

    z = (x_1..x_N, u_0..u_{N-1}); the lifted dynamics x_{k+1} = A_bar x_k +
    B_bar u_k are equality rows, the tilt, speed and tilt-rate boxes
    (boxes[:3]) act on every predicted state and boxes[3] on every input.
    The cost is sum_k (x_k - ref_k)'W_k(x_k - ref_k) + R u_k^2 without its
    constant. Returns P, q, A, l, u.
    """
    A_bar = np.asarray(A_bar, dtype=float)
    b = np.asarray(B_bar, dtype=float).reshape(-1)
    ref = np.asarray(ref, dtype=float)
    n = A_bar.shape[0]
    N = ref.shape[0] - 1
    nz = N * n + N
    P = np.zeros((nz, nz))
    q = np.zeros(nz)
    A = np.zeros((N * n + 4 * N, nz))
    rhs = np.zeros(N * n)
    rhs[:n] = A_bar @ np.asarray(x0, dtype=float)
    for k in range(N):
        W = Q_N if k == N - 1 else Q
        xs = slice(k * n, (k + 1) * n)
        P[xs, xs] = 2.0 * W
        q[xs] = -2.0 * (W @ ref[k + 1])
        P[N * n + k, N * n + k] = 2.0 * R
        A[xs, xs] = np.eye(n)
        if k > 0:
            A[xs, (k - 1) * n:k * n] = -A_bar
        A[xs, N * n + k] = -b
        for i in range(3):
            A[N * n + 3 * k + i, k * n + 1 + i] = 1.0
        A[N * n + 3 * N + k, N * n + k] = 1.0
    box = np.concatenate([np.tile(boxes[:3], N), np.full(N, boxes[3])])
    return P, q, A, np.concatenate([rhs, -box]), np.concatenate([rhs, box])


def fd_jacobian(f, x0, h=1e-5):
    """Central finite-difference Jacobian of f at x0."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0))
    J = np.zeros((f0.size, x0.size))
    for j in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def extract_open_loop(A_cl, B_cl, gains):
    """Invert the loop composition: B = B_cl / kp, A = A_cl - B_cl F.

    F = [0, k_theta, k_ydot - 1, k_thetadot], written out here rather than
    taken from the lab; the reduced 3-state matrices drop its position entry.
    """
    if gains.kp == 0:
        raise ValueError("kp = 0: loop composition not invertible")
    A_cl = np.asarray(A_cl, dtype=float)
    B_cl = np.asarray(B_cl, dtype=float).reshape(A_cl.shape[0], -1)
    F = np.array([0.0, gains.k_theta, gains.k_ydot - 1.0, gains.k_thetadot])
    return A_cl - B_cl @ F[4 - A_cl.shape[0]:].reshape(1, -1), B_cl / gains.kp


def literal_lift(A_cl, B_d, x0, u, m):
    """m literal inner steps with the slow input held constant."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(m):
        x = A_cl @ x + B_d[:, 0] * u
    return x


def simulate_discrete(A, B, x0, d):
    """Literal state recursion x_{k+1} = A x_k + B d_k, returning all states."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0])
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((len(d), x.size))
    for k, dk in enumerate(d):
        out[k] = x
        x = A @ x + B * dk
    return out


def mechanical_energy(pp, x) -> float:
    """Kinetic plus potential energy of the frictionless rigid-body model."""
    x = np.asarray(x, dtype=float)
    th = x[1] * DEG
    qd = np.array([x[2], x[3] * DEG])
    M = pp.mass_matrix(th)
    return 0.5 * qd @ M @ qd + pp.ell * pp.g * math.cos(th)


def biquad_gain(f, f_hz, fs):
    """Magnitude of a Biquad's frequency response at f_hz for sample rate fs."""
    z = np.exp(2j * np.pi * f_hz / fs)
    num = f.b0 + f.b1 / z + f.b2 / z ** 2
    den = 1.0 + f.a1 / z + f.a2 / z ** 2
    return abs(num / den)


def _norm(*arrays):
    return float(np.abs(np.concatenate(arrays)).max(initial=0.0))


class InteriorPointQp:
    """Mehrotra predictor-corrector interior-point method for a convex QP.

    Solves a ``QpProblem`` with any positive semidefinite P, singular
    included. Equality rows (l == u) stay as rows of A_E; every finite side
    of the other rows becomes a one-sided row of Gz + s = h with a slack
    s > 0 and a multiplier lam > 0. Each iteration assembles the dense
    reduced KKT matrix

        [[P + G' W G + delta I, A_E'], [A_E, -delta I]],   W = diag(lam / s),

    and solves with it twice, for the predictor and for the corrector. G'WG
    is formed as A_in' D A_in over the inequality rows, D summing the
    weights of a row's two sides. Primal infeasibility is certified by a
    Farkas check on the dual step once the multipliers diverge.
    """

    DELTA = 1e-9     # KKT regularization; perturbs the step, not the residuals
    STEP = 0.99      # fraction of the step to the boundary of s, lam > 0
    DUAL_BIG = 1e3   # dual size, relative to the data, that triggers the Farkas check

    def __init__(self, problem, settings=None, eps_prim_inf=1e-6):
        p = self.prob = problem
        self.settings = settings or QpSettings()
        self.eps_prim_inf = eps_prim_inf
        n = p.n
        lo, up = np.isfinite(p.l), np.isfinite(p.u)
        eq = lo & up & (p.u - p.l <= 1e-12)
        up, lo = up & ~eq, lo & ~eq
        self.eq_rows = np.flatnonzero(eq)
        self.g_rows = np.concatenate([np.flatnonzero(up), np.flatnonzero(lo)])
        self.g_sign = np.concatenate([np.ones(up.sum()), -np.ones(lo.sum())])
        self.AE = p.A[self.eq_rows]
        self.G = self.g_sign[:, None] * p.A[self.g_rows]
        in_rows, self._g_in = np.unique(self.g_rows, return_inverse=True)
        self._A_in = p.A[in_rows]
        self._kkt0 = np.block([
            [p.P + self.DELTA * np.eye(n), self.AE.T],
            [self.AE, -self.DELTA * np.eye(self.eq_rows.size)]])

    def assemble(self, w):
        """Assemble the reduced KKT matrix for the weights w = lam / s."""
        n = self.prob.n
        d = np.bincount(self._g_in, w, self._A_in.shape[0])
        self.kkt = self._kkt0.copy()
        self.kkt[:n, :n] += self._A_in.T @ (d[:, None] * self._A_in)

    def kkt_solve(self, rhs):
        return np.linalg.solve(self.kkt, rhs)

    def _newton(self, r_d, r_e, r_i, r_c, s, lam, w):
        """Newton step for the residuals, with complementarity target r_c."""
        n, G = self.prob.n, self.G
        v = w * r_i - r_c / s
        sol = self.kkt_solve(np.concatenate([-r_d - G.T @ v, -r_e]))
        dz = sol[:n]
        dlam = w * (G @ dz) + v
        ds = -(r_c + s * dlam) / lam
        return dz, sol[n:], ds, dlam

    def _residuals(self, z, yE, s, lam, b, h):
        """KKT residuals, their norms and the gap, and the stopping test."""
        p, st, AE, G = self.prob, self.settings, self.AE, self.G
        Pz, AEty, Gtl, Gz, AEz = p.P @ z, AE.T @ yE, G.T @ lam, G @ z, AE @ z
        r_d = Pz + p.q + AEty + Gtl
        r_e = AEz - b
        r_i = Gz + s - h
        r_prim, r_dual, gap = _norm(r_e, r_i), _norm(r_d), float(s @ lam)
        done = (r_prim <= st.eps_abs + st.eps_rel * _norm(AEz, b, Gz, s)
                and r_dual <= st.eps_abs + st.eps_rel * _norm(Pz, p.q, AEty, Gtl)
                and gap <= st.eps_abs + st.eps_rel * max(abs(z @ Pz), abs(p.q @ z)))
        return r_d, r_e, r_i, r_prim, r_dual, gap, done

    def solve(self):
        p, st = self.prob, self.settings
        n, G = p.n, self.G
        b = p.l[self.eq_rows]
        h = np.where(self.g_sign > 0, p.u[self.g_rows], -p.l[self.g_rows])
        mI = max(h.size, 1)  # averages s * lam; no inequalities gives mu = 0
        # start from the minimizer of 1/2 z'Pz + q'z + 1/2 |Gz - h|^2 on
        # A_E z = b, with the slacks and multipliers shifted inside the cone
        self.assemble(np.ones(G.shape[0]))
        sol = self.kkt_solve(np.concatenate([G.T @ h - p.q, b]))
        z, yE = sol[:n], sol[n:]
        s = h - G @ z
        lam = -s
        s = s + max(0.0, 1.0 - np.min(s, initial=1.0))
        lam = lam + max(0.0, 1.0 - np.min(lam, initial=1.0))
        data_size = max(1.0, _norm(p.q, p.P.ravel()))
        status, iters = "max-iter", st.max_iter
        y_prev = None
        for it in range(st.max_iter + 1):
            r_d, r_e, r_i, r_prim, r_dual, gap, done = self._residuals(z, yE, s, lam, b, h)
            if done:
                status, iters = "solved", it
                break
            # on an infeasible problem the duals diverge along a Farkas
            # direction; the step between iterates cancels the q-driven part
            y = self._full_dual(yE, lam)
            if (y_prev is not None and _norm(y) > self.DUAL_BIG * data_size
                    and self._primal_infeasible(y - y_prev)):
                status, iters = "primal-infeasible", it
                break
            y_prev = y
            if it == st.max_iter:
                break
            w = lam / s
            self.assemble(w)
            # predictor: pure Newton step towards s * lam = 0
            dz, dy, ds, dlam = self._newton(r_d, r_e, r_i, s * lam, s, lam, w)
            alpha = min(1.0, self._max_step(s, ds, lam, dlam))
            mu = gap / mI
            mu_aff = (s + alpha * ds) @ (lam + alpha * dlam) / mI
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
            # corrector: second-order term plus centring
            r_c = s * lam + ds * dlam - sigma * mu
            dz, dy, ds, dlam = self._newton(r_d, r_e, r_i, r_c, s, lam, w)
            alpha = min(1.0, self.STEP * self._max_step(s, ds, lam, dlam))
            z, yE = z + alpha * dz, yE + alpha * dy
            s, lam = s + alpha * ds, lam + alpha * dlam
        sol = QpSolution(z=z, y=self._full_dual(yE, lam), status=status,
                         iterations=iters, build_problem=lambda: p)
        sol.primal_residual, sol.dual_residual = r_prim, r_dual
        return sol

    @staticmethod
    def _max_step(s, ds, lam, dlam):
        """Largest alpha keeping s + alpha ds and lam + alpha dlam >= 0."""
        v = np.min(np.concatenate([ds / s, dlam / lam]), initial=0.0)
        return -1.0 / v if v < 0 else np.inf

    def _full_dual(self, yE, lam):
        """Multipliers of l <= Az <= u (positive when the upper side binds)."""
        y = np.bincount(self.g_rows, self.g_sign * lam, self.prob.m)
        y[self.eq_rows] = yE
        return y

    def _primal_infeasible(self, y):
        """Farkas check on a normalized dual direction: A'y = 0, negative support."""
        p, eps = self.prob, self.eps_prim_inf
        scale = np.max(np.abs(y))
        if scale <= 1e-14:
            return False
        dyn = y / scale
        if np.max(np.abs(p.A.T @ dyn)) > eps:
            return False
        pos = dyn > eps
        neg = dyn < -eps
        if np.any(pos & ~np.isfinite(p.u)) or np.any(neg & ~np.isfinite(p.l)):
            return False
        support = float(np.sum(p.u[pos] * dyn[pos]) + np.sum(p.l[neg] * dyn[neg]))
        return support < -eps
