"""Model-based control: discrete LQR, dual-mode lifted predictor, MPC.

The regulator runs at the fast inner rate and keeps the robot upright; the
MPC runs at a slower rate, predicts through the ALREADY-stabilized loop
(dual-mode prediction), and adds a correction input for position tracking.
Predicting the pre-stabilized dynamics keeps the optimization well posed
even though the open-loop plant is unstable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilizabilityError
from .numerics import DiscreteSS, eigenvalues, solve_dare
from .qp import QpProblem, QpSettings, QpSolution, QpSolver

__all__ = [
    "LqrDesign", "design_lqr",
    "DualModePredictor", "build_predictor",
    "MpcConfig", "SmoothStepRef", "smooth_step",
    "build_qp", "MpcController",
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
    K_lqr: np.ndarray
    m: int
    Ts_fast: float

    @property
    def Ts(self) -> float:
        return self.m * self.Ts_fast

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
    return DualModePredictor(A_bar=A_bar, B_bar=B_bar, K_lqr=K, m=m, Ts_fast=sys_d.Ts)


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


def smooth_step(ref: SmoothStepRef, t: float) -> np.ndarray:
    """Reference state at time t; only the position entry is nonzero."""
    if t < ref.t0:
        y = 0.0
    elif t < ref.t0 + ref.T_rise:
        y = ref.amplitude * (1.0 - np.cos(np.pi * (t - ref.t0) / ref.T_rise)) / 2.0
    else:
        y = ref.amplitude
    return np.array([y, 0.0, 0.0, 0.0])


def _qp_vectors(pred: DualModePredictor, cfg: MpcConfig, x0, ref):
    """q, l, u of the tracking QP for one (x0, ref); P and A do not depend on them.

    The first n equality rows carry A_bar x0; the later dynamics rows are
    zero; the tilt, speed and tilt-rate boxes come next, then the input box.
    """
    x0 = np.asarray(x0, dtype=float)
    ref = np.asarray(ref, dtype=float)
    n = pred.n_states
    N = cfg.N
    if ref.shape != (N + 1, n):
        raise ValueError(f"reference must be ({N + 1}, {n}), got {ref.shape}")
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    q = np.zeros(N * n + N)
    for k in range(1, N + 1):
        Wk = cfg.Q_N if k == N else cfg.Q
        q[(k - 1) * n:k * n] = -2.0 * (Wk @ ref[k])
    boxes = np.concatenate([np.tile([cfg.theta_max, cfg.ydot_max, cfg.thetadot_max], N),
                            np.full(N, cfg.u_max)])
    rhs = np.zeros(N * n)
    rhs[:n] = pred.A_bar @ x0
    return q, np.concatenate([rhs, -boxes]), np.concatenate([rhs, boxes])


def build_qp(pred: DualModePredictor, cfg: MpcConfig, x0, ref) -> QpProblem:
    """Stack the finite-horizon tracking problem into a box-constrained QP.

    Decision vector z = (x_1..x_N, u_0..u_{N-1}). The lifted dynamics are
    equality rows (l = u); tilt, speed, and tilt rate are boxed on every
    predicted state (position is unconstrained); the correction input is
    boxed on every step. The cost penalizes deviations e_k = x_k - ref_k
    under Q (terminal Q_N) plus R u^2.
    """
    q, l, u = _qp_vectors(pred, cfg, x0, ref)
    n = pred.n_states
    N = cfg.N
    nz = N * n + N
    P = np.zeros((nz, nz))
    for k in range(1, N + 1):
        sl = slice((k - 1) * n, k * n)
        P[sl, sl] = 2.0 * (cfg.Q_N if k == N else cfg.Q)
    for k in range(N):
        j = N * n + k
        P[j, j] = 2.0 * cfg.R

    m_eq = N * n
    A = np.zeros((m_eq + 4 * N, nz))  # 3 state boxes + 1 input box per step
    for k in range(N):
        rows = slice(k * n, (k + 1) * n)
        A[rows, k * n:(k + 1) * n] = np.eye(n)
        if k > 0:
            A[rows, (k - 1) * n:k * n] = -pred.A_bar
        A[rows, N * n + k] = -pred.B_bar[:, 0]
        for i in range(3):  # theta, ydot, thetadot of x_{k+1}
            A[m_eq + 3 * k + i, k * n + 1 + i] = 1.0
        A[m_eq + 3 * N + k, N * n + k] = 1.0
    return QpProblem(P=P, q=q, A=A, l=l, u=u)


class MpcController:
    """Receding-horizon controller around one reusable QP workspace.

    The QP's quadratic term and constraint matrix never change between
    steps, so one QpSolver is set up at construction and each step only
    refreshes q, l, u. Each solve starts cold: interior-point iterates gain
    little from a warm start, and a cold start keeps every solve independent
    of the last. Solver hiccups are absorbed: hitting the iteration cap
    returns the last iterate with a degraded flag, and a certified-infeasible
    problem falls back to zero correction (the inner regulator alone keeps
    the robot balanced) while the event is logged.
    """

    def __init__(self, pred: DualModePredictor, cfg: MpcConfig,
                 settings: QpSettings = None):
        self.pred = pred
        self.cfg = cfg
        self.settings = settings or QpSettings()
        zero_ref = np.zeros((cfg.N + 1, pred.n_states))
        self._solver = QpSolver(build_qp(pred, cfg, np.zeros(pred.n_states), zero_ref),
                                self.settings)
        self.infeasible_events = 0
        self.degraded_events = 0
        self.last_solution: QpSolution = None

    def mpc_step(self, x0, ref) -> tuple:
        """Solve for the horizon and return (u_mpc, info dict)."""
        q, l, u = _qp_vectors(self.pred, self.cfg, x0, ref)
        self._solver.update_vectors(q=q, l=l, u=u)
        sol = self._solver.solve()
        self.last_solution = sol
        info = {"status": sol.status, "iterations": sol.iterations,
                "degraded": False, "infeasible": False}
        if sol.status == "primal-infeasible":
            self.infeasible_events += 1
            info["infeasible"] = True
            return 0.0, info
        if sol.status == "max-iter":
            self.degraded_events += 1
            info["degraded"] = True
        n, N = self.pred.n_states, self.cfg.N
        return float(sol.z[N * n]), info

    def predicted_states(self) -> np.ndarray:
        """Predicted state trajectory x_1..x_N from the last solve."""
        if self.last_solution is None:
            raise RuntimeError("no solve has happened yet")
        n, N = self.pred.n_states, self.cfg.N
        return self.last_solution.z[:N * n].reshape(N, n)
