"""Convex QP solver for  minimize 1/2 z'Pz + q'z  s.t.  l <= Az <= u.

Rows with l == u are equalities; the other rows are boxes with one or two
finite sides. The method is chosen from P alone, once per solver.

A positive definite P takes the dual active-set method of Goldfarb &
Idnani (1983) on the cached P^-1 (from the inverted Cholesky factor),
S = A P^-1 A' and H = P^-1 A'. It starts from
the minimizer on the equality rows, which enter first and never leave; a
start that meets every box exactly is the optimum (0 steps). Each step adds
the most violated row or, on a partial step, drops the active row whose
multiplier would change sign: one k x k solve on the k active rows of S. A
violated row that depends on the active set with no multiplier left to
drop certifies infeasibility. z is recomputed from the final active set.

Any other P (singular, such as P = 0) takes a Mehrotra predictor-corrector
interior-point method with slacks s > 0 and multipliers lam > 0 on the
one-sided rows Gz + s = h. Each iteration assembles the dense reduced KKT
matrix

    [[P + G' W G + delta I, A_E'], [A_E, -delta I]],   W = diag(lam / s),

once and solves with it twice (``np.linalg.solve``), for the predictor and
for the corrector.
G'WG is formed as A_in' D A_in over the inequality rows, with D summing the
weights of a row's two sides. The regularization delta perturbs the Newton
direction, not the residuals, so it does not bias the solution. Primal
infeasibility is certified by a Farkas check on the dual step, whose
direction settles once the multipliers diverge.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QpProblem", "QpSettings", "QpSolution", "QpSolver", "solve"]

_DELTA = 1e-9      # KKT regularization
_STEP = 0.99       # fraction of the step to the boundary of s, lam > 0
_DUAL_BIG = 1e3    # dual size, relative to the data, that triggers the Farkas check
_DEPENDENT = 1e-10  # relative size read as rounding in the active-set steps


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

    @property
    def n(self):
        return self.q.size

    @property
    def m(self):
        return self.A.shape[0]

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.P @ z + self.q @ z)


@dataclass
class QpSettings:
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    eps_prim_inf: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if min(self.eps_abs, self.eps_rel, self.eps_prim_inf) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class QpSolution:
    z: np.ndarray
    y: np.ndarray
    status: str                  # "solved" | "max-iter" | "primal-infeasible"
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float = field(default=float("nan"))


def _norm(*arrays) -> float:
    """Largest absolute entry over the 1-D arrays (0 if all are empty)."""
    return float(np.abs(np.concatenate(arrays)).max(initial=0.0))


def _row_masks(p: QpProblem):
    """Masks of the finite lower sides, the finite upper sides and the
    equality rows, end to end in one array."""
    lo, up = np.isfinite(p.l), np.isfinite(p.u)
    return np.concatenate([lo, up, lo & up & (p.u - p.l <= 1e-12)])


class QpSolver:
    """Workspace owning the factors of P and the KKT structure for one problem.

    P and A are fixed for the solver's life; `update_vectors` swaps q, l, u
    between solves, which is the receding-horizon pattern. The solver keeps
    its own copy of the problem, so the caller's `QpProblem` is never changed.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings = None):
        self.prob = copy.copy(problem)
        self.settings = settings or QpSettings()
        self._structure()

    def _structure(self):
        """Split the rows, assemble the fixed part of the KKT matrix and, for
        a positive definite P, cache P^-1, H = P^-1 A' and S = A P^-1 A'."""
        p = self.prob
        n = p.n
        self._masks = _row_masks(p)
        lo, up, self._eq = self._masks.reshape(3, -1)
        eq = self._eq
        up, lo = up & ~eq, lo & ~eq
        self._eq_rows = np.flatnonzero(eq)
        self._g_rows = np.concatenate([np.flatnonzero(up), np.flatnonzero(lo)])
        self._g_sign = np.concatenate([np.ones(up.sum()), -np.ones(lo.sum())])
        self._AE = p.A[self._eq_rows]
        self._G = self._g_sign[:, None] * p.A[self._g_rows]
        # G'WG = A_in' diag(d) A_in, d summing the weights of both sides of a row
        in_rows, self._g_in = np.unique(self._g_rows, return_inverse=True)
        self._A_in = p.A[in_rows]
        n_eq = self._eq_rows.size
        self._kkt0 = np.block([
            [p.P + _DELTA * np.eye(n), self._AE.T],
            [self._AE, -_DELTA * np.eye(n_eq)]])
        try:  # the Cholesky factor exists iff P is positive definite
            self._chol = np.linalg.cholesky(p.P)
        except np.linalg.LinAlgError:
            self._chol = None
            return
        L_inv = np.linalg.inv(self._chol)
        self._P_inv = L_inv.T @ L_inv
        self._H = self._P_inv @ p.A.T
        S = p.A @ self._H
        self._S = 0.5 * (S + S.T)

    def _factor(self, w):
        """Assemble the reduced KKT matrix for the weights w = lam / s
        (``_kkt_solve`` factors it; the name is the traced ``qp.factor``)."""
        n = self.prob.n
        d = np.bincount(self._g_in, w, self._A_in.shape[0])
        self._kkt = self._kkt0.copy()
        self._kkt[:n, :n] += self._A_in.T @ (d[:, None] * self._A_in)

    def _kkt_solve(self, rhs):
        return np.linalg.solve(self._kkt, rhs)

    def update_vectors(self, q=None, l=None, u=None):
        """Swap the linear term and bounds; P and A stay as they are.

        The KKT structure was built for the current equality rows and
        finite bound sides, so that pattern must not change.
        """
        p = self.prob
        if q is not None:
            p.q = np.asarray(q, dtype=float).ravel()
        if l is not None:
            p.l = np.asarray(l, dtype=float).ravel()
        if u is not None:
            p.u = np.asarray(u, dtype=float).ravel()
        if (p.l > p.u).any():
            raise ValueError("need l <= u elementwise")
        if not (_row_masks(p) == self._masks).all():
            raise ValueError("equality rows and finite bound sides must not change")

    def _newton(self, r_d, r_e, r_i, r_c, s, lam, w):
        """Newton step for the residuals, with complementarity target r_c."""
        n, G = self.prob.n, self._G
        v = w * r_i - r_c / s
        sol = self._kkt_solve(np.concatenate([-r_d - G.T @ v, -r_e]))
        dz = sol[:n]
        dlam = w * (G @ dz) + v
        ds = -(r_c + s * dlam) / lam
        return dz, sol[n:], ds, dlam

    def _residuals(self, z, yE, s, lam, b, h):
        """KKT residuals, their norms and the gap, and the stopping test."""
        p, st, AE, G = self.prob, self.settings, self._AE, self._G
        Pz, AEty, Gtl, Gz, AEz = p.P @ z, AE.T @ yE, G.T @ lam, G @ z, AE @ z
        r_d = Pz + p.q + AEty + Gtl
        r_e = AEz - b
        r_i = Gz + s - h
        r_prim, r_dual, gap = _norm(r_e, r_i), _norm(r_d), float(s @ lam)
        done = (r_prim <= st.eps_abs + st.eps_rel * _norm(AEz, b, Gz, s)
                and r_dual <= st.eps_abs + st.eps_rel * _norm(Pz, p.q, AEty, Gtl)
                and gap <= st.eps_abs + st.eps_rel * max(abs(z @ Pz), abs(p.q @ z)))
        return r_d, r_e, r_i, r_prim, r_dual, gap, done

    def solve(self) -> QpSolution:
        if self._chol is not None:
            return self._dual_active_set()
        return self._interior_point()

    def _interior_point(self) -> QpSolution:
        p, st = self.prob, self.settings
        n, AE, G = p.n, self._AE, self._G
        b = p.l[self._eq_rows]
        h = np.where(self._g_sign > 0, p.u[self._g_rows], -p.l[self._g_rows])
        mI = max(h.size, 1)  # averages s * lam; no inequalities gives mu = 0
        # start from the minimizer of 1/2 z'Pz + q'z + 1/2 |Gz - h|^2 on
        # A_E z = b, with the slacks and multipliers shifted inside the cone
        self._factor(np.ones(G.shape[0]))
        sol = self._kkt_solve(np.concatenate([G.T @ h - p.q, b]))
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
            if (y_prev is not None and _norm(y) > _DUAL_BIG * data_size
                    and self._primal_infeasible(y - y_prev)):
                status, iters = "primal-infeasible", it
                break
            y_prev = y
            if it == st.max_iter:
                break
            w = lam / s
            self._factor(w)
            # predictor: pure Newton step towards s * lam = 0
            dz, dy, ds, dlam = self._newton(r_d, r_e, r_i, s * lam, s, lam, w)
            alpha = min(1.0, self._max_step(s, ds, lam, dlam))
            mu = gap / mI
            mu_aff = (s + alpha * ds) @ (lam + alpha * dlam) / mI
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
            # corrector: second-order term plus centring
            r_c = s * lam + ds * dlam - sigma * mu
            dz, dy, ds, dlam = self._newton(r_d, r_e, r_i, r_c, s, lam, w)
            alpha = min(1.0, _STEP * self._max_step(s, ds, lam, dlam))
            z, yE = z + alpha * dz, yE + alpha * dy
            s, lam = s + alpha * ds, lam + alpha * dlam
        return QpSolution(
            z=z, y=self._full_dual(yE, lam), status=status, iterations=iters,
            primal_residual=r_prim, dual_residual=r_dual, objective=p.objective(z),
        )

    def _dual_active_set(self) -> QpSolution:
        """Goldfarb-Idnani steps from z0 = -P^-1 q on the cached S and H."""
        p, st, S = self.prob, self.settings, self._S
        z0 = -(self._P_inv @ p.q)
        Az = p.A @ z0
        eq = self._eq
        # bounds of the rows that may still enter (active rows are masked),
        # exact until the first step: a start that meets them is the optimum
        lo, hi = np.where(eq, -np.inf, p.l), np.where(eq, np.inf, p.u)
        # the active rows, their sides (+1 upper, -1 lower, 0 equality) and multipliers
        W, side, y = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        todo = list(self._eq_rows)      # equality rows enter first, uncounted
        status, steps, row, lo_w = "solved", 0, None, None
        while True:
            if row is None:
                if todo:
                    row, sd = todo.pop(0), 0.0
                    b = p.l[row]
                    d = 1.0 if Az[row] >= b else -1.0
                else:
                    viol = np.maximum(Az - hi, lo - Az)
                    if viol.size == 0 or viol.max() <= 0:
                        break
                    row = int(viol.argmax())
                    d = sd = 1.0 if Az[row] > hi[row] else -1.0
                    b = p.u[row] if d > 0 else p.l[row]
                    if lo_w is None:  # from now on, forgive rounding-level violations
                        lo_w = np.where(eq, -np.inf, p.l - st.eps_abs - st.eps_rel * np.abs(p.l))
                        hi_w = np.where(eq, np.inf, p.u + st.eps_abs + st.eps_rel * np.abs(p.u))
                        lo, hi = lo_w.copy(), hi_w.copy()
                yi = 0.0
            if sd and steps == st.max_iter:
                status = "max-iter"
                break
            # y_W moves by -t rho while y_row grows by d t, keeping A_W z = b_W
            r = np.linalg.solve(S[W[:, None], W], S[W, row])
            rho = d * r
            schur = S[row, row] - S[row, W] @ r
            v = max(d * (Az[row] - b), 0.0)
            t1 = v / schur if schur > _DEPENDENT * S[row, row] else np.inf
            # inequality multipliers that shrink along the step (not by rounding)
            t2, cand = np.inf, np.flatnonzero(side * rho > _DEPENDENT * np.abs(rho).max(initial=0.0))
            if cand.size:
                ratios = y[cand] / rho[cand]
                k = int(ratios.argmin())
                t2, j = max(ratios[k], 0.0), cand[k]
            if t1 == t2 == np.inf:  # the row depends on the active set
                if v <= st.eps_abs + st.eps_rel * abs(b):
                    row = None      # and holds to rounding: it never binds
                    continue
                status = "primal-infeasible"
                break
            t = min(t1, t2)
            Az -= t * (d * S[row] - rho @ S[W])
            y, yi = y - t * rho, yi + d * t
            steps += sd != 0
            if t1 <= t2:            # full step: the row enters
                W, side, y = np.append(W, row), np.append(side, sd), np.append(y, yi)
                lo[row], hi[row] = -np.inf, np.inf
                row = None
            else:                   # partial step: row W[j] leaves
                lo[W[j]], hi[W[j]] = lo_w[W[j]], hi_w[W[j]]
                W, side, y = np.delete(W, j), np.delete(side, j), np.delete(y, j)
        z, y = z0, np.zeros(p.m)
        if W.size:  # the exact solution on the final active set
            y[W] = np.linalg.solve(S[W[:, None], W],
                                   p.A[W] @ z0 - np.where(side > 0, p.u[W], p.l[W]))
            z = z0 - self._H[:, W] @ y[W]
        Az = p.A @ z
        return QpSolution(
            z=z, y=y, status=status, iterations=steps,
            primal_residual=float(np.max(np.maximum(Az - p.u, p.l - Az), initial=0.0)),
            dual_residual=_norm(p.P @ z + p.q + p.A.T @ y), objective=p.objective(z))

    @staticmethod
    def _max_step(s, ds, lam, dlam):
        """Largest alpha keeping s + alpha ds and lam + alpha dlam >= 0."""
        v = np.min(np.concatenate([ds / s, dlam / lam]), initial=0.0)
        return -1.0 / v if v < 0 else np.inf

    def _full_dual(self, yE, lam):
        """Multipliers of l <= Az <= u (positive when the upper side binds)."""
        y = np.bincount(self._g_rows, self._g_sign * lam, self.prob.m)
        y[self._eq_rows] = yE
        return y

    def _primal_infeasible(self, y) -> bool:
        """Farkas check on a normalized dual direction: A'y = 0, negative support."""
        p, s = self.prob, self.settings
        scale = np.max(np.abs(y))
        if scale <= 1e-14:
            return False
        dyn = y / scale
        if np.max(np.abs(p.A.T @ dyn)) > s.eps_prim_inf:
            return False
        pos = dyn > s.eps_prim_inf
        neg = dyn < -s.eps_prim_inf
        if np.any(pos & ~np.isfinite(p.u)) or np.any(neg & ~np.isfinite(p.l)):
            return False
        support = float(np.sum(p.u[pos] * dyn[pos]) + np.sum(p.l[neg] * dyn[neg]))
        return support < -s.eps_prim_inf


def solve(problem: QpProblem, settings: QpSettings = None) -> QpSolution:
    """One-shot convenience wrapper around QpSolver."""
    return QpSolver(problem, settings).solve()
