"""Model-based control: discrete LQR, dual-mode lifted predictor, MPC.

The regulator runs at the fast inner rate and keeps the robot upright; the
MPC runs at a slower rate, predicts through the ALREADY-stabilized loop
(dual-mode prediction), and adds a correction input for position tracking.
Predicting the pre-stabilized dynamics keeps the optimization well posed
even though the open-loop plant is unstable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import StabilizabilityError
from .numerics import DiscreteSS, eigenvalues, solve_dare
from .qp import QpProblem, QpSettings, QpSolution, QpSolver

__all__ = [
    "LqrDesign", "design_lqr",
    "DualModePredictor", "build_predictor",
    "MpcConfig", "SmoothStepRef", "smooth_step", "MpcController",
]


@dataclass
class LqrDesign:
    Q: np.ndarray
    R: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Ts: float
    closed_loop_eigs: list


def design_lqr(sys_d: DiscreteSS, Q, R) -> LqrDesign:
    """State-feedback gain for u = -K x from the Riccati fixed point.

    Verifies that every closed-loop eigenvalue lies strictly inside the unit
    circle and records the spectrum for the run summary.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P, K = solve_dare(sys_d.A_d, sys_d.B_d, Q, R)
    eigs = eigenvalues(sys_d.A_d - sys_d.B_d @ K)
    if max(abs(e) for e in eigs) >= 1.0:
        raise StabilizabilityError("closed-loop spectral radius not inside the unit circle")
    return LqrDesign(Q=Q, R=R, K=K, P=P, Ts=sys_d.Ts, closed_loop_eigs=eigs)


@dataclass
class DualModePredictor:
    """One-MPC-period transition of the regulator-closed loop.

    A_bar = (A_d - B_d K)^m and B_bar = sum_i (A_d - B_d K)^i B_d describe
    the state reached after m fast steps with the correction input held
    constant, which is exactly how the slow-rate command is applied.
    """

    A_bar: np.ndarray
    B_bar: np.ndarray

    @property
    def n_states(self) -> int:
        return self.A_bar.shape[0]


def build_predictor(sys_d: DiscreteSS, K_lqr, m: int = 20) -> DualModePredictor:
    """Lift the inner closed loop over one slow period.

    Refuses an unstable inner loop: the whole point of predicting through
    the regulator is that the prediction never diverges.
    """
    if m < 1:
        raise ValueError("rate ratio m must be >= 1")
    K = np.atleast_2d(np.asarray(K_lqr, dtype=float))
    A_cl = sys_d.A_d - sys_d.B_d @ K
    if max(abs(e) for e in eigenvalues(A_cl)) >= 1.0:
        raise StabilizabilityError(
            "inner loop unstable; dual-mode prediction premise broken")
    n = sys_d.n_states
    A_bar = np.eye(n)
    S = np.zeros((n, n))
    for _ in range(m):
        S = S + A_bar
        A_bar = A_cl @ A_bar
    B_bar = S @ sys_d.B_d
    return DualModePredictor(A_bar=A_bar, B_bar=B_bar)


@dataclass
class MpcConfig:
    """Horizon, weights, and box constraints of the tracking MPC."""

    N: int = 40
    Q: np.ndarray = None
    Q_N: np.ndarray = None
    R: float = 0.3
    theta_max: float = 3.0       # deg
    ydot_max: float = 15.0       # cm/s
    thetadot_max: float = 25.0   # deg/s
    u_max: float = 1000.0        # ticks/s
    Ts_mpc: float = 0.1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("horizon must be >= 1")
        if self.Q is None:
            self.Q = np.diag([1000.0, 0.0, 0.0, 0.0])
        if self.Q_N is None:
            self.Q_N = self.Q.copy()
        self.Q = np.asarray(self.Q, dtype=float)
        self.Q_N = np.asarray(self.Q_N, dtype=float)
        for b in (self.theta_max, self.ydot_max, self.thetadot_max, self.u_max):
            if b <= 0:
                raise ValueError("bounds must be positive")


@dataclass
class SmoothStepRef:
    """Step reference with a half-cosine transition from 0 to `amplitude`."""

    t0: float = 5.0
    amplitude: float = 20.0
    T_rise: float = 2.0

    def __post_init__(self):
        if self.T_rise <= 0:
            raise ValueError("T_rise must be positive")


def smooth_step(ref: SmoothStepRef, t) -> np.ndarray:
    """Reference state at t, one row per time if t is an array; only position is nonzero."""
    t = np.asarray(t, dtype=float)
    rise = ref.amplitude * (1.0 - np.cos(np.pi * (t - ref.t0) / ref.T_rise)) / 2.0
    out = np.zeros(t.shape + (4,))
    out[..., 0] = np.where(t < ref.t0, 0.0,
                           np.where(t < ref.t0 + ref.T_rise, rise, ref.amplitude))
    return out


@dataclass
class _CondensedQp:
    """The tracking QP in the inputs u = (u_0..u_{N-1}) alone.

    The predicted states are X = (x_1..x_N) = Phi x0 + Gamma u. P and A do
    not depend on (x0, ref), and the rest is linear in the parameter
    theta = [x0; ref_1; ..; ref_N]: q, the rows' shift S x0, the
    unconstrained optimum z0 = -P^-1 q = Z theta, and the values the rows
    box, r = A z0 + S x0 = R theta, which must meet |r| <= box. This is the
    parametric form explicit MPC is built on (Bemporad, Morari, Dua &
    Pistikopoulos 2002). The last N rows box the input u = z itself, so
    R's last N rows are Z, and one product gives both z0 and r. R keeps
    only the columns of the theta entries that it reads: the references of
    states that Q and Q_N do not weight drop out.
    """

    Phi: np.ndarray       # (N n, n): stacked powers A_bar^k, k = 1..N
    Gamma: np.ndarray     # (N n, N): block k, j is A_bar^(k-j) B_bar for j <= k
    GtPx: np.ndarray      # (N, N n): Gamma' P_x
    S: np.ndarray         # (4N, n): C Phi over N zero rows, the box shift by x0
    box: np.ndarray       # (4N,): the box half-widths
    P: np.ndarray
    A: np.ndarray
    R: np.ndarray         # (4N, used.size): theta[used] -> r, over Z: -> z0
    used: np.ndarray      # indices of the theta entries that R reads

    def theta(self, x0, ref) -> np.ndarray:
        """[x0; ref_1; ..; ref_N] for one x0 and reference preview ref_0..ref_N."""
        x0 = np.asarray(x0, dtype=float)
        ref = np.asarray(ref, dtype=float)
        n = self.S.shape[1]
        N = self.GtPx.shape[0]
        if ref.shape != (N + 1, n):
            raise ValueError(f"reference must be ({N + 1}, {n}), got {ref.shape}")
        if x0.shape != (n,):
            raise ValueError(f"x0 must have {n} entries")
        return np.concatenate((x0, ref.ravel()[n:]))

    def problem(self, x0, ref) -> QpProblem:
        return self.problem_at(self.theta(x0, ref))

    def problem_at(self, theta) -> QpProblem:
        """P, q, A, l, u of the QP at one theta."""
        n = self.S.shape[1]
        x0 = theta[:n]
        q = self.GtPx @ (self.Phi @ x0 - theta[n:])
        shift = self.S @ x0
        return QpProblem(P=self.P, q=q, A=self.A, l=-self.box - shift, u=self.box - shift)


def _condense(pred: DualModePredictor, cfg: MpcConfig) -> _CondensedQp:
    """Eliminate the predicted states from the stacked tracking problem.

    With P_x = 2 blockdiag(Q, .., Q, Q_N) and C selecting tilt, speed and
    tilt rate, the stacked cost 1/2 X'P_x X - ref'P_x X + R u'u becomes
    1/2 u'(Gamma'P_x Gamma + 2R I)u + (Gamma'P_x (Phi x0 - ref))'u plus a
    constant, and the state boxes become rows C Gamma shifted by C Phi x0:
    the first 3N rows box the tilt, speed and tilt rate of each predicted
    state (position is unconstrained), the last N rows the input. So
    z0 = P^-1 Gamma'P_x (ref - Phi x0) and r = A z0 + S x0.
    """
    n, N = pred.n_states, cfg.N
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(pred.A_bar @ powers[-1])
    Phi = np.stack(powers[1:])                                   # (N, n, n)
    AkB = np.stack([Ak @ pred.B_bar[:, 0] for Ak in powers[:N]])  # (N, n)
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    Gamma = np.where((lag >= 0)[:, :, None], AkB[np.maximum(lag, 0)], 0.0)
    Gamma = Gamma.transpose(0, 2, 1)                             # (N, n, N)
    W = np.stack([cfg.Q] * (N - 1) + [cfg.Q_N])
    GtPx = (2.0 * (W @ Gamma)).reshape(N * n, N).T
    Gamma_flat = Gamma.reshape(N * n, N)
    P = GtPx @ Gamma_flat + 2.0 * cfg.R * np.eye(N)
    P = 0.5 * (P + P.T)
    A = np.vstack([Gamma[:, 1:4, :].reshape(3 * N, N), np.eye(N)])
    S = np.vstack([Phi[:, 1:4, :].reshape(3 * N, n), np.zeros((N, n))])
    box = np.concatenate([np.tile([cfg.theta_max, cfg.ydot_max, cfg.thetadot_max], N),
                          np.full(N, cfg.u_max)])
    Phi = Phi.reshape(N * n, n)
    K = np.linalg.solve(P, GtPx)
    Z = np.hstack([-K @ Phi, K])
    R = np.vstack([A[:3 * N] @ Z, Z])
    R[:3 * N, :n] += S[:3 * N]
    used = np.flatnonzero(R.any(axis=0))
    return _CondensedQp(Phi=Phi, Gamma=Gamma_flat, GtPx=GtPx, S=S, box=box,
                        P=P, A=A, R=R[:, used], used=used)


class MpcController:
    """Receding-horizon controller around maps and a QP workspace built once.

    P and A of the condensed QP never change, so its map R and one
    QpSolver, which caches P^-1 A' and A P^-1 A' against the fixed bounds
    -box <= r <= box, are set up at construction. Each step forms
    theta = [x0; ref_1; ..; ref_N] and, in one product, the row values
    r = R theta of the unconstrained optimum z0, whose input rows are z0
    itself. When |r| <= box (the region where the MPC law is the LQ law)
    z0 is the optimum, returned at 0 steps; otherwise the solver starts
    from (z0, r), and dual active-set steps add the rows that bind. Solver
    hiccups are absorbed: a solve that hits the step cap (degraded; its
    dual iterate may violate rows that have not entered) or is certified
    infeasible falls back to zero correction, and the inner regulator alone
    keeps the robot balanced while the event is counted.
    """

    def __init__(self, pred: DualModePredictor, cfg: MpcConfig,
                 settings: QpSettings = None):
        self.cfg = cfg
        self._qp = _condense(pred, cfg)
        # at x0 = 0 the rows are -box <= A z <= box; q is never read
        zero_ref = np.zeros((cfg.N + 1, pred.n_states))
        self._solver = QpSolver(self._qp.problem(np.zeros(pred.n_states), zero_ref),
                                settings)
        self.infeasible_events = 0
        self.degraded_events = 0
        self.last_solution: QpSolution = None

    def mpc_step(self, x0, ref) -> tuple:
        """Solve for the horizon and return (u_mpc, info dict)."""
        qp = self._qp
        theta = qp.theta(x0, ref)
        r = qp.R @ theta[qp.used]
        z0 = r[-self.cfg.N:]
        problem = partial(qp.problem_at, theta)
        if np.count_nonzero(np.abs(r) <= qp.box) == r.size:
            sol = QpSolution(z=z0, y=np.zeros(r.size), status="solved",
                             iterations=0, build_problem=problem)
        else:
            sol = self._solver.solve(z0, r, problem)
        self.last_solution = sol
        info = {"status": sol.status, "iterations": sol.iterations,
                "degraded": False, "infeasible": False}
        if sol.status == "solved":
            return float(sol.z[0]), info
        if sol.status == "primal-infeasible":
            self.infeasible_events += 1
            info["infeasible"] = True
        else:
            self.degraded_events += 1
            info["degraded"] = True
        return 0.0, info
