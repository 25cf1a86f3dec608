"""Model-based control: discrete LQR, dual-mode lifted predictor, MPC.

The regulator runs at the fast inner rate and keeps the robot upright; the
MPC runs at a slower rate, predicts through the ALREADY-stabilized loop
(dual-mode prediction), and adds a correction input for position tracking.
Predicting the pre-stabilized dynamics keeps the optimization well posed
even though the open-loop plant is unstable. ``design_lqr`` closes and checks
that loop once, and ``build_predictor`` lifts the loop the design hands it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilizabilityError
from .numerics import DiscreteSS, eigenvalues, solve_dare
from .qp import QpProblem, QpSettings, QpSolution, QpSolver
from .stabilizer import closed_loop

__all__ = [
    "LqrDesign", "design_lqr",
    "DualModePredictor", "build_predictor",
    "MpcConfig", "SmoothStepRef", "smooth_step", "MpcController",
]


@dataclass
class LqrDesign:
    """The regulator u = -K x and the loop it closes, (A_d - B_d K, B_d)."""

    K: np.ndarray
    A_cl: np.ndarray
    B_cl: np.ndarray
    closed_loop_eigs: list


def design_lqr(sys_d: DiscreteSS, Q, R) -> LqrDesign:
    """State-feedback gain for u = -K x from the Riccati fixed point.

    Closes the loop, verifies that every closed-loop eigenvalue lies strictly
    inside the unit circle and records the spectrum for the run summary.
    """
    _, K = solve_dare(sys_d.A_d, sys_d.B_d, Q, np.atleast_2d(R))
    A_cl, B_cl = closed_loop(sys_d.A_d, sys_d.B_d, -K[0])
    eigs = eigenvalues(A_cl)
    if max(abs(e) for e in eigs) >= 1.0:
        raise StabilizabilityError("closed-loop spectral radius not inside the unit circle")
    return LqrDesign(K=K, A_cl=A_cl, B_cl=B_cl, closed_loop_eigs=eigs)


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


def build_predictor(lqr: LqrDesign, m: int = 20) -> DualModePredictor:
    """Lift the regulator's closed loop over one slow period.

    ``design_lqr`` has refused an unstable loop, so the prediction never
    diverges: that is the whole point of predicting through the regulator.
    """
    if m < 1:
        raise ValueError("rate ratio m must be >= 1")
    n = lqr.A_cl.shape[0]
    A_bar = np.eye(n)
    S = np.zeros((n, n))
    for _ in range(m):
        S = S + A_bar
        A_bar = lqr.A_cl @ A_bar
    B_bar = S @ lqr.B_cl
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
        if self.Q is None:
            self.Q = np.diag([1000.0, 0.0, 0.0, 0.0])
        if self.Q_N is None:
            self.Q_N = self.Q.copy()
        self.Q = np.asarray(self.Q, dtype=float)
        self.Q_N = np.asarray(self.Q_N, dtype=float)


@dataclass
class SmoothStepRef:
    """Step reference with a half-cosine transition from 0 to `amplitude`."""

    t0: float = 5.0
    amplitude: float = 20.0
    T_rise: float = 2.0


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

    n: int                # the state dimension
    box: np.ndarray       # (4N,): the box half-widths
    P: np.ndarray         # (N, N)
    A: np.ndarray         # (4N, N)
    R: np.ndarray         # (4N, used.size): theta[used] -> r, over Z: -> z0
    used: np.ndarray      # indices of the theta entries that R reads

    def theta(self, x0, ref) -> np.ndarray:
        """[x0; ref_1; ..; ref_N] for one x0 and reference preview ref_0..ref_N."""
        x0 = np.asarray(x0, dtype=float)
        ref = np.asarray(ref, dtype=float)
        n, N = self.n, self.P.shape[0]
        if ref.shape != (N + 1, n):
            raise ValueError(f"reference must be ({N + 1}, {n}), got {ref.shape}")
        if x0.shape != (n,):
            raise ValueError(f"x0 must have {n} entries")
        return np.concatenate((x0, ref.ravel()[n:]))


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
    box = np.concatenate([np.tile([cfg.theta_max, cfg.ydot_max, cfg.thetadot_max], N),
                          np.full(N, cfg.u_max)])
    K = np.linalg.solve(P, GtPx)
    Z = np.hstack([-K @ Phi.reshape(N * n, n), K])
    R = np.vstack([A[:3 * N] @ Z, Z])
    R[:3 * N, :n] += Phi[:, 1:4, :].reshape(3 * N, n)  # the state rows' shift S x0 = C Phi x0
    used = np.flatnonzero(R.any(axis=0))
    return _CondensedQp(n=n, box=box, P=P, A=A, R=R[:, used], used=used)


class MpcController:
    """Receding-horizon controller around maps and a QP workspace built once.

    P and A of the condensed QP never change, so its map R and one
    QpSolver, which caches P^-1 A' and A P^-1 A' against the fixed bounds
    -box <= r <= box, are set up at construction. Each step forms
    theta = [x0; ref_1; ..; ref_N] and, in one product, the row values
    r = R theta of the unconstrained optimum z0, whose input rows are z0
    itself, and starts the solver from (z0, r). When |r| <= box (the region
    where the MPC law is the LQ law) z0 is the optimum, returned at 0 steps;
    otherwise dual active-set steps add the rows that bind. Solver hiccups
    are absorbed: a solve that hits the step cap (degraded; its dual
    iterate may violate rows that have not entered) or is certified
    infeasible falls back to zero correction, and the inner regulator alone
    keeps the robot balanced while the event is counted.
    """

    def __init__(self, pred: DualModePredictor, cfg: MpcConfig,
                 settings: QpSettings = None):
        self.cfg = cfg
        qp = self._qp = _condense(pred, cfg)
        # every step passes its own start (z0, r), so the solver's q is never read
        self._solver = QpSolver(QpProblem(P=qp.P, q=np.zeros(cfg.N), A=qp.A,
                                          l=-qp.box, u=qp.box), settings)
        self.infeasible_events = 0
        self.degraded_events = 0
        self.last_solution: QpSolution = None

    def mpc_step(self, x0, ref) -> tuple:
        """Solve for the horizon and return (u_mpc, info dict)."""
        qp = self._qp
        r = qp.R @ qp.theta(x0, ref)[qp.used]
        sol = self.last_solution = self._solver.solve(r[-self.cfg.N:], r)
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
