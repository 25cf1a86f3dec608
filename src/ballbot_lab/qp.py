"""Strictly convex QP solver for  minimize 1/2 z'Pz + q'z  s.t.  l <= Az <= u.

P must be positive definite and every row a box with l < u, one side of
which may be infinite.

The method is the dual active-set method of Goldfarb & Idnani (1983) on
P^-1, S = A P^-1 A', H = P^-1 A' and the bounds widened by the tolerances,
all built once per solver. It starts from an unconstrained minimizer z0
and its row values r: by default z0 = -P^-1 q and r = A z0, or a start the
caller computed for rows shifted by a parameter, l <= A z + s <= u, with
r = A z0 + s. A start that meets every box exactly is the optimum, returned
at 0 steps. Each step adds the most violated row or, on a partial step,
drops the active row whose multiplier would change sign: one k x k solve
on the k active rows of S, kept with their multipliers in Python lists. A
violated row that depends on the active set with no multiplier left to
drop certifies infeasibility. z is recomputed from the final active set,
on the start's row values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpProblem", "QpSettings", "QpSolution", "QpSolver"]

_DEPENDENT = 1e-10  # relative size read as rounding in the active-set steps
# The method terminates finitely, so the default step cap only guards against
# a bug or cycling: 4 steps per row, where accepted track configs took at most
# 1.7 (694 steps on 416 rows)
_STEPS_PER_ROW = 4


@dataclass
class QpProblem:
    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.A = np.asarray(self.A, dtype=float)
        self.l = np.asarray(self.l, dtype=float).ravel()
        self.u = np.asarray(self.u, dtype=float).ravel()
        n = self.q.size
        if self.P.shape != (n, n):
            raise ValueError("P must be n x n")
        if np.max(np.abs(self.P - self.P.T)) > 1e-12 * max(1.0, np.max(np.abs(self.P))):
            raise ValueError("P must be symmetric")
        m = self.A.shape[0]
        if self.A.shape != (m, n) or self.l.shape != (m,) or self.u.shape != (m,):
            raise ValueError("A, l, u dimensions inconsistent")
        if np.any(self.l > self.u):
            raise ValueError("need l <= u elementwise")
        if n and np.linalg.eigvalsh(self.P)[0] < -1e-12 * max(1.0, np.max(np.abs(self.P))):
            raise ValueError("P must be positive semidefinite")


@dataclass
class QpSettings:
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int | None = None  # None: _STEPS_PER_ROW per row of A

    def __post_init__(self):
        if min(self.eps_abs, self.eps_rel) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class QpSolution:
    """A solve's iterate and status."""

    z: np.ndarray
    y: np.ndarray
    status: str                  # "solved" | "max-iter" | "primal-infeasible"
    iterations: int


class QpSolver:
    """Workspace owning P^-1, H = P^-1 A', S = A P^-1 A' and the widened bounds.

    The solver keeps the problem it is built from and never changes it.
    Each solve starts from the default start or from one the caller
    computed for the problem's fixed l, u.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings = None):
        if np.count_nonzero(problem.l >= problem.u):
            raise ValueError("QpSolver takes box rows only: need l < u elementwise")
        self.prob, self.settings = problem, settings or QpSettings()
        st = self.settings  # the widened bounds forgive rounding-level violations
        self._max_steps = st.max_iter or _STEPS_PER_ROW * problem.A.shape[0]
        self._lo_w = problem.l - st.eps_abs - st.eps_rel * np.abs(problem.l)
        self._hi_w = problem.u + st.eps_abs + st.eps_rel * np.abs(problem.u)
        self._factor()

    def _factor(self):
        """Cache P^-1 from the inverted Cholesky factor, H = P^-1 A' and
        S = A P^-1 A'."""
        p = self.prob
        try:  # the Cholesky factor exists iff P is positive definite
            L = np.linalg.cholesky(p.P)
        except np.linalg.LinAlgError:
            raise ValueError("P must be positive definite") from None
        L_inv = np.linalg.inv(L)
        self._P_inv = L_inv.T @ L_inv
        self._H = self._P_inv @ p.A.T
        S = p.A @ self._H
        self._S = 0.5 * (S + S.T)

    def solve(self, z0=None, r=None) -> QpSolution:
        """Goldfarb-Idnani steps on the cached S and H from an unconstrained
        minimizer z0 whose row values are r.

        By default z0 = -P^-1 q and r = A z0. A caller that solves a family
        of problems on this P and A whose rows are shifted,
        l <= A z + s <= u, passes the member's minimizer z0 and its row
        values r = A z0 + s; the solver's own q is then not read. A start
        that meets every box exactly is returned itself, at 0 steps.
        """
        p = self.prob
        if z0 is None:
            z0 = -(self._P_inv @ p.q)
            r = p.A @ z0
        if np.count_nonzero((p.l <= r) & (r <= p.u)) == r.size:
            return QpSolution(z0, np.zeros(r.size), "solved", 0)
        st, S, lo_w, hi_w = self.settings, self._S, self._lo_w, self._hi_w
        Az = r.copy()
        lo, hi = p.l, p.u  # bounds of the rows that may enter: exact until the first step
        # the active rows, their sides (+1 upper, -1 lower), bounds and multipliers
        W, side, b_W, y = [], [], [], []
        status, steps, row = "solved", 0, None
        while True:
            if row is None:
                viol = np.maximum(Az - hi, lo - Az)
                row = int(viol.argmax())
                if viol[row] <= 0:
                    break
                d = 1.0 if Az[row] > hi[row] else -1.0
                b = p.u[row] if d > 0 else p.l[row]
                if lo is p.l:  # masked from now on: a copy of the widened bounds
                    lo, hi = lo_w.copy(), hi_w.copy()
                yi = 0.0
            if steps == self._max_steps:
                status = "max-iter"
                break
            # y_W moves by -t rho while y_row grows by d t, keeping A_W z = b_W
            schur, rho, dAz = S[row, row], [], d * S[row]
            if W:  # (on the first step no row is active: nothing to solve)
                SW, s_W = S.take(W, 0), S[row].take(W)  # S[W]; S[row, W] contiguous for the dot
                w = np.linalg.solve(SW.take(W, 1), s_W)
                rho = d * w
                schur, dAz, rho = schur - s_W @ w, dAz - rho @ SW, rho.tolist()
            v = max(d * (Az[row] - b), 0.0)
            t1 = v / schur if schur > _DEPENDENT * S[row, row] else np.inf
            # multipliers that shrink along the step (not by rounding); first minimum
            tol = _DEPENDENT * max(map(abs, rho), default=0.0)
            t2, j = min(((yk / rk, k) for k, (yk, rk, sk) in enumerate(zip(y, rho, side))
                         if sk * rk > tol), default=(np.inf, None))
            t2 = max(t2, 0.0)
            if t1 == t2 == np.inf:  # the row depends on the active set
                if v <= st.eps_abs + st.eps_rel * abs(b):
                    row = None      # and holds to rounding: it never binds
                    continue
                status = "primal-infeasible"
                break
            t = min(t1, t2)
            Az -= t * dAz
            y, yi = [yk - t * rk for yk, rk in zip(y, rho)], yi + d * t
            steps += 1
            if t1 <= t2:            # full step: the row enters
                W, side, b_W, y = W + [row], side + [d], b_W + [b], y + [yi]
                lo[row], hi[row] = -np.inf, np.inf
                row = None
            else:                   # partial step: row W[j] leaves
                lo[W[j]], hi[W[j]] = lo_w[W[j]], hi_w[W[j]]
                del W[j], side[j], b_W[j], y[j]
        z, y = z0, np.zeros(r.size)
        if W:  # the exact solution on the final active set
            y[W] = np.linalg.solve(S.take(W, 0).take(W, 1), r.take(W) - b_W)
            z = z0 - self._H[:, W] @ y[W]
        return QpSolution(z, y, status, steps)
