"""Strictly convex QP solver for  minimize 1/2 z'Pz + q'z  s.t.  l <= Az <= u.

P must be positive definite and every row a box with l < u, one side of
which may be infinite.

The method is the dual active-set method of Goldfarb & Idnani (1983) on
the cached P^-1 (from the inverted Cholesky factor), S = A P^-1 A' and
H = P^-1 A'. It starts from an unconstrained minimizer z0 and its row
values r: by default z0 = -P^-1 q and r = A z0, or a start the caller
computed for rows shifted by a parameter, l <= A z + s <= u, with
r = A z0 + s. A start that meets every box exactly is the optimum (0
steps). Each step adds the most violated row or, on a partial step, drops
the active row whose multiplier would change sign: one k x k solve on the
k active rows of S. A violated row that depends on the active set with no
multiplier left to drop certifies infeasibility. z is recomputed from the
final active set, on the start's row values.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["QpProblem", "QpSettings", "QpSolution", "QpSolver"]

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

    def __copy__(self):
        """A problem on the same arrays; they passed the checks already."""
        new = object.__new__(QpProblem)
        new.__dict__.update(self.__dict__)
        return new


@dataclass
class QpSettings:
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if min(self.eps_abs, self.eps_rel) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class QpSolution:
    """A solve's iterate and status.

    The problem solved, and from it the residuals and the objective, are
    built when first read by calling ``build_problem``; nothing on the
    control path reads them, so a solve does not pay for them. A solver
    that reports its own residuals assigns them.
    """

    z: np.ndarray
    y: np.ndarray
    status: str                  # "solved" | "max-iter" | "primal-infeasible"
    iterations: int
    build_problem: Callable[[], QpProblem] = field(repr=False)

    @cached_property
    def problem(self) -> QpProblem:
        """The P, q, A, l, u that were solved."""
        return self.build_problem()

    @cached_property
    def primal_residual(self) -> float:
        p = self.problem
        Az = p.A @ self.z
        return float(np.max(np.maximum(Az - p.u, p.l - Az), initial=0.0))

    @cached_property
    def dual_residual(self) -> float:
        p = self.problem
        return _norm(p.P @ self.z + p.q + p.A.T @ self.y)

    @cached_property
    def objective(self) -> float:
        return self.problem.objective(self.z)


def _norm(*arrays) -> float:
    """Largest absolute entry over the 1-D arrays (0 if all are empty)."""
    return float(np.abs(np.concatenate(arrays)).max(initial=0.0))


class QpSolver:
    """Workspace owning P^-1, H = P^-1 A' and S = A P^-1 A' for one problem.

    P and A are fixed for the solver's life. Between solves `update_vectors`
    swaps q, l, u, or the caller hands `solve` a start (z0, r) for the
    solver's fixed l, u. The solver keeps its own copy of the problem, so the
    caller's `QpProblem` is never changed.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings = None):
        self.prob = copy.copy(problem)
        self.settings = settings or QpSettings()
        self.update_vectors()  # checks the rows
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

    def update_vectors(self, q=None, l=None, u=None):
        """Swap the linear term and bounds; P and A stay as they are.

        Rejected bounds leave the solver's problem as it was.
        """
        p = self.prob
        q = p.q if q is None else np.asarray(q, dtype=float).ravel()
        l = p.l if l is None else np.asarray(l, dtype=float).ravel()
        u = p.u if u is None else np.asarray(u, dtype=float).ravel()
        if np.count_nonzero(l >= u):
            raise ValueError("QpSolver takes box rows only: need l < u elementwise")
        p.q, p.l, p.u = q, l, u

    def solve(self, z0=None, r=None, problem=None) -> QpSolution:
        """Goldfarb-Idnani steps on the cached S and H from an unconstrained
        minimizer z0 whose row values are r.

        By default z0 = -P^-1 q and r = A z0. A caller that solves a family
        of problems on this P and A whose rows are shifted,
        l <= A z + s <= u, passes all three: the member's minimizer z0, its
        row values r = A z0 + s, and ``problem``, a function that builds
        the member as a QpProblem for the solution's diagnostics. The
        solver's own q is then not read.
        """
        p, st, S = self.prob, self.settings, self._S
        if z0 is None:
            z0 = -(self._P_inv @ p.q)
            r = p.A @ z0
            # update_vectors rebinds q, l, u, so a shallow copy keeps this problem
            solved = copy.copy(p)
            problem = lambda: solved
        Az = r.copy()
        # bounds of the rows that may still enter (active rows are masked),
        # exact until the first step: a start that meets them is the optimum
        lo, hi = p.l, p.u
        # the active rows, their sides (+1 upper, -1 lower) and multipliers
        W, side, y = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        status, steps, row, lo_w = "solved", 0, None, None
        while True:
            if row is None:
                viol = np.maximum(Az - hi, lo - Az)
                if viol.size == 0 or viol.max() <= 0:
                    break
                row = int(viol.argmax())
                d = 1.0 if Az[row] > hi[row] else -1.0
                b = p.u[row] if d > 0 else p.l[row]
                if lo_w is None:  # from now on, forgive rounding-level violations
                    lo_w = p.l - st.eps_abs - st.eps_rel * np.abs(p.l)
                    hi_w = p.u + st.eps_abs + st.eps_rel * np.abs(p.u)
                    lo, hi = lo_w.copy(), hi_w.copy()
                yi = 0.0
            if steps == st.max_iter:
                status = "max-iter"
                break
            # y_W moves by -t rho while y_row grows by d t, keeping A_W z = b_W
            w = np.linalg.solve(S[W[:, None], W], S[W, row])
            rho = d * w
            schur = S[row, row] - S[row, W] @ w
            v = max(d * (Az[row] - b), 0.0)
            t1 = v / schur if schur > _DEPENDENT * S[row, row] else np.inf
            # multipliers that shrink along the step (not by rounding)
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
            steps += 1
            if t1 <= t2:            # full step: the row enters
                W, side, y = np.append(W, row), np.append(side, d), np.append(y, yi)
                lo[row], hi[row] = -np.inf, np.inf
                row = None
            else:                   # partial step: row W[j] leaves
                lo[W[j]], hi[W[j]] = lo_w[W[j]], hi_w[W[j]]
                W, side, y = np.delete(W, j), np.delete(side, j), np.delete(y, j)
        z, y = z0, np.zeros(p.m)
        if W.size:  # the exact solution on the final active set
            y[W] = np.linalg.solve(S[W[:, None], W],
                                   r[W] - np.where(side > 0, p.u[W], p.l[W]))
            z = z0 - self._H[:, W] @ y[W]
        return QpSolution(z=z, y=y, status=status, iterations=steps,
                          build_problem=problem)
