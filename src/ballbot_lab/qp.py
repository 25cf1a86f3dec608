"""Convex QP solver for  minimize 1/2 z'Pz + q'z  s.t.  l <= Az <= u.

Mehrotra predictor-corrector interior-point method. Rows with l == u are
equalities A_E z = b; the finite sides of the other rows become one-sided
inequalities Gz + s = h with slacks s > 0 and multipliers lam > 0. Each
iteration factors the reduced KKT matrix

    [[P + G' W G + delta I, A_E'], [A_E, -delta I]],   W = diag(lam / s),

once and solves with it twice, for the predictor and for the corrector.
The matrix is held in LAPACK band storage (dgbtrf/dgbtrs): a reverse
Cuthill-McKee ordering of the fixed sparsity pattern of P and A, found once
per solver, keeps stage-wise problems such as the MPC narrow, and each
iteration only rebuilds the band values. The regularization delta perturbs
the Newton direction, not the residuals, so it does not bias the solution.
Primal infeasibility is certified by a Farkas check on the dual step, whose
direction settles once the multipliers diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["QpProblem", "QpSettings", "QpSolution", "QpSolver", "solve"]

_DELTA = 1e-9      # KKT regularization
_STEP = 0.99       # fraction of the step to the boundary of s, lam > 0
_DUAL_BIG = 1e3    # dual size, relative to the data, that triggers the Farkas check


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


def _row_pattern(p: QpProblem):
    """Equality rows, and the rows with a finite upper / lower side."""
    eq = np.isfinite(p.l) & np.isfinite(p.u) & (p.u - p.l <= 1e-12)
    return eq, ~eq & np.isfinite(p.u), ~eq & np.isfinite(p.l)


class QpSolver:
    """Workspace owning the banded KKT structure for one problem.

    P and A are fixed for the solver's life; `update_vectors` swaps q, l, u
    between solves, which is the receding-horizon pattern.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings = None):
        self.prob = problem
        self.settings = settings or QpSettings()
        self._structure()

    def _structure(self):
        """Split the rows, order the KKT pattern, and map entries to the band."""
        p = self.prob
        n = p.n
        self._pattern = _row_pattern(p)
        eq, up, lo = self._pattern
        self._eq_rows = np.flatnonzero(eq)
        self._g_rows = np.concatenate([np.flatnonzero(up), np.flatnonzero(lo)])
        self._g_sign = np.concatenate([np.ones(up.sum()), -np.ones(lo.sum())])
        self._AE = p.A[self._eq_rows]
        self._G = self._g_sign[:, None] * p.A[self._g_rows]
        nk = n + self._eq_rows.size
        diag = np.arange(nk)
        Pi, Pj = np.nonzero(p.P)
        Ei, Ej = np.nonzero(self._AE)
        ci = np.concatenate([Pi, n + Ei, Ej, diag])
        cj = np.concatenate([Pj, Ej, n + Ei, diag])
        cv = np.concatenate([p.P[Pi, Pj], self._AE[Ei, Ej], self._AE[Ei, Ej],
                             np.where(diag < n, _DELTA, -_DELTA)])
        # G'WG = sum_r w_r g_r g_r': one entry per pair of nonzeros in a row
        pr, pi, pj = [], [], []
        for r, g in enumerate(self._G):
            cols = np.flatnonzero(g)
            pr.append(np.full(cols.size ** 2, r))
            pi.append(np.repeat(cols, cols.size))
            pj.append(np.tile(cols, cols.size))
        pr, pi, pj = (np.concatenate(a) if a else np.zeros(0, int)
                      for a in (pr, pi, pj))
        self._pair_row = pr
        self._pair_val = self._G[pr, pi] * self._G[pr, pj]
        rows = np.concatenate([ci, pi])
        cols = np.concatenate([cj, pj])
        pattern = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(nk, nk)).tocsr()
        self._perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        iperm = np.empty(nk, dtype=int)
        iperm[self._perm] = np.arange(nk)
        I, J = iperm[rows], iperm[cols]
        self._bw = int(np.max(np.abs(I - J)))
        ldab = 3 * self._bw + 1
        # LAPACK band storage: entry (I, J) lives at ab[2 bw + I - J, J]
        self._band_idx = 2 * self._bw + I - J + J * ldab
        self._band_shape = (nk, ldab)
        self._vals = np.concatenate([cv, self._pair_val])
        self._n_const = cv.size
        # the starting point's KKT matrix (w = 1) depends on P and A only
        self._factor(np.ones(self._G.shape[0]))
        self._lu0 = (self._lu, self._piv)

    def _factor(self, w):
        """LU-factor the reduced KKT matrix for the weights w = lam / s."""
        self._vals[self._n_const:] = w[self._pair_row] * self._pair_val
        nk, ldab = self._band_shape
        ab = np.bincount(self._band_idx, self._vals, nk * ldab).reshape(nk, ldab).T
        self._lu, self._piv, info = dgbtrf(ab, self._bw, self._bw, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded KKT factorization failed (info={info})")

    def _kkt_solve(self, rhs):
        x, info = dgbtrs(self._lu, self._bw, self._bw, rhs[self._perm], self._piv,
                         overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded KKT solve failed (info={info})")
        out = np.empty_like(x)
        out[self._perm] = x
        return out

    def update_vectors(self, q=None, l=None, u=None):
        """Swap the linear term and bounds; P and A stay as they are.

        The banded structure was built for the current equality rows and
        finite bound sides, so that pattern must not change.
        """
        p = self.prob
        if q is not None:
            p.q = np.asarray(q, dtype=float).ravel()
        if l is not None:
            p.l = np.asarray(l, dtype=float).ravel()
        if u is not None:
            p.u = np.asarray(u, dtype=float).ravel()
        if np.any(p.l > p.u):
            raise ValueError("need l <= u elementwise")
        if any(np.any(a != b) for a, b in zip(_row_pattern(p), self._pattern)):
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

    def solve(self) -> QpSolution:
        p, st = self.prob, self.settings
        n, AE, G = p.n, self._AE, self._G
        b = p.l[self._eq_rows]
        h = np.where(self._g_sign > 0, p.u[self._g_rows], -p.l[self._g_rows])
        mI = max(h.size, 1)  # averages s * lam; no inequalities gives mu = 0
        # start from the minimizer of 1/2 z'Pz + q'z + 1/2 |Gz - h|^2 on
        # A_E z = b, with the slacks and multipliers shifted inside the cone
        self._lu, self._piv = self._lu0
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
            Pz, AEty, Gtl, Gz, AEz = p.P @ z, AE.T @ yE, G.T @ lam, G @ z, AE @ z
            r_d = Pz + p.q + AEty + Gtl
            r_e = AEz - b
            r_i = Gz + s - h
            r_prim, r_dual, gap = _norm(r_e, r_i), _norm(r_d), float(s @ lam)
            if (r_prim <= st.eps_abs + st.eps_rel * _norm(AEz, b, Gz, s)
                    and r_dual <= st.eps_abs + st.eps_rel * _norm(Pz, p.q, AEty, Gtl)
                    and gap <= st.eps_abs + st.eps_rel * max(abs(z @ Pz), abs(p.q @ z))):
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
