"""Indirect closed-loop gray-box identification.

The loop used for data collection is plant + outer feedback + inner P gain,
driven by the external excitation d. Fitting therefore simulates the
parameterized CLOSED loop from d alone (output-error on the closed loop;
the measured states never re-enter the simulation), which keeps the
estimate unbiased because d is uncorrelated with the measurement noise.
The open-loop model is recovered afterwards by inverting the composition
algebraically, and the position integrator is re-attached last.

The candidate closed loop is composed at the discrete level, A_d + kp B_d F,
matching the digital controller that actually ran: the controller holds its
output over each sample period, so discretize-then-close is the exact model
class of the recorded experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import IdentificationFailedError
from .numerics import ContinuousSS, nrmse_fit, zoh_discretize
from .plant import LinearParams
from .stabilizer import FeedbackGains, feedback_row

__all__ = [
    "IdDataset", "IdConfig", "IdResult",
    "reduced_open_loop", "simulate_syscl", "pe_cost", "identify",
    "extract_open_loop", "augment_position", "validate",
]

_CHANNELS = ("theta", "ydot", "thetadot")


@dataclass
class IdDataset:
    """Logged closed-loop experiment: excitation and measured states at Ts."""

    Ts: float
    d: np.ndarray
    theta: np.ndarray
    ydot: np.ndarray
    thetadot: np.ndarray
    y: np.ndarray = None  # optional; not used by the fit

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.ydot = np.asarray(self.ydot, dtype=float)
        self.thetadot = np.asarray(self.thetadot, dtype=float)
        n = self.d.size
        if self.theta.size != n or self.ydot.size != n or self.thetadot.size != n:
            raise ValueError("excitation and state channels must share one length")
        if self.Ts <= 0:
            raise ValueError("Ts must be positive")

    def __len__(self):
        return self.d.size

    def split_halves(self):
        """First half for fitting, second half for validation."""
        h = len(self) // 2
        return self.slice(0, h), self.slice(h, len(self))

    def slice(self, a, b) -> "IdDataset":
        return IdDataset(
            Ts=self.Ts, d=self.d[a:b], theta=self.theta[a:b],
            ydot=self.ydot[a:b], thetadot=self.thetadot[a:b],
            y=None if self.y is None else np.asarray(self.y)[a:b],
        )

    def measured_matrix(self) -> np.ndarray:
        return np.column_stack([self.theta, self.ydot, self.thetadot])


@dataclass
class IdConfig:
    initial_guess: np.ndarray = None
    multistart_count: int = 4
    lm_lambda0: float = 1e-3
    lm_tolerance: float = 1e-10
    max_iterations: int = 500
    parameter_bounds: tuple = None  # (lo, hi) arrays of length 8
    seed: int = 0

    def __post_init__(self):
        if self.initial_guess is None:
            raise ValueError("initial_guess is required")
        if isinstance(self.initial_guess, LinearParams):
            self.initial_guess = self.initial_guess.as_array()
        self.initial_guess = np.asarray(self.initial_guess, dtype=float)
        if self.initial_guess.shape != (8,):
            raise ValueError("initial_guess must have eight entries")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")
        if self.parameter_bounds is None:
            span = 10.0 * np.abs(self.initial_guess) + 10.0
            self.parameter_bounds = (self.initial_guess - span, self.initial_guess + span)
        lo, hi = (np.asarray(b, dtype=float) for b in self.parameter_bounds)
        if np.any(self.initial_guess < lo) or np.any(self.initial_guess > hi):
            raise ValueError("bounds must contain the initial guess")
        self.parameter_bounds = (lo, hi)


@dataclass
class IdResult:
    p_hat: np.ndarray
    fit_rates: dict
    final_cost: float
    converged: bool
    iterations: int
    start_index: int = 0
    diagnostics: dict = field(default_factory=dict)

    def linear_params(self, r: float = 10.9) -> LinearParams:
        return LinearParams.from_array(self.p_hat, r=r)


def reduced_open_loop(p):
    """Three-state open loop (theta, ydot, thetadot) for a parameter vector."""
    p = np.asarray(p, dtype=float)
    A = np.array([
        [0.0, 0.0, 1.0],
        [p[0], p[1], p[6]],
        [p[3], p[4], p[7]],
    ])
    B = np.array([[0.0], [p[2]], [p[5]]])
    return A, B


def _closed_discrete(p, gains: FeedbackGains, Ts: float):
    A, B = reduced_open_loop(p)
    dss = zoh_discretize(ContinuousSS(A, B), Ts)
    F = feedback_row(gains)[1:]
    A_cl = dss.A_d + gains.kp * np.outer(dss.B_d[:, 0], F)
    B_cl = gains.kp * dss.B_d[:, 0]
    return A_cl, B_cl


def simulate_syscl(p, gains: FeedbackGains, d, Ts: float, x0=None):
    """Predicted (theta, ydot, thetadot) of the closed loop driven by d.

    Returns an (N, 3) array, or None for a divergent candidate (callers map
    that to infinite cost rather than raising). The linear recursion is
    evaluated in modal coordinates: with A_cl = V diag(lam) V^-1, each mode
    z_i = (V^-1 x)_i obeys z_i[0] = c0_i and z_i[k] = lam_i z_i[k-1] +
    w_i d[k-1], where c0 = V^-1 x0 and w = V^-1 B_cl. That is one first-order
    filter per mode, run over the input [c0_i, w_i d[0], ..., w_i d[N-2]],
    so the free and the forced response come from the same pass. A defective
    transition matrix (ill-conditioned V) falls back to the literal recursion.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            A_cl, B_cl = _closed_discrete(p, gains, Ts)
    except (ValueError, OverflowError, np.linalg.LinAlgError):
        return None
    if not (np.all(np.isfinite(A_cl)) and np.all(np.isfinite(B_cl))):
        return None
    x0 = np.zeros(3) if x0 is None else np.asarray(x0, dtype=float)
    try:
        lam, V = np.linalg.eig(A_cl)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(lam)) > 1.05:
        return None  # would overflow over thousands of samples
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e9:
        return _simulate_literal(A_cl, B_cl, d, x0)
    Z = np.empty((3, n), dtype=complex)
    Z[:, 0] = np.linalg.solve(V, x0.astype(complex))
    np.outer(np.linalg.solve(V, B_cl.astype(complex)), d[:-1], out=Z[:, 1:])
    for i in range(3):
        Z[i] = lfilter([1.0], [1.0, -lam[i]], Z[i])
    out = (V @ Z).real.T
    if not np.all(np.isfinite(out)):
        return None
    return out


def _simulate_literal(A_cl, B_cl, d, x0):
    n = d.size
    X = np.empty((n, 3))
    x = x0.copy()
    for k in range(n):
        X[k] = x
        x = A_cl @ x + B_cl * d[k]
        if not np.all(np.isfinite(x)):
            return None
    return X


def _residual_fn(dataset: IdDataset, gains: FeedbackGains):
    """p -> normalized output errors, stacked channel by channel.

    The measured matrix and the channel scales are built once per fit. The
    function returns None for a divergent candidate, including one whose
    squared residual norm overflows; such a candidate is never accepted.
    """
    meas = dataset.measured_matrix()
    var = meas.var(axis=0, ddof=1)
    if np.any(var <= 0):
        raise ValueError("a measured channel is constant; cost undefined")
    scales = np.sqrt(len(dataset) * var)

    def residuals(p):
        pred = simulate_syscl(p, gains, dataset.d, dataset.Ts, x0=meas[0])
        if pred is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            r = ((pred - meas) / scales).ravel(order="F")
            if not math.isfinite(r @ r):
                return None
        return r

    return residuals


def pe_cost(p, dataset: IdDataset, gains: FeedbackGains) -> float:
    """Prediction-error cost: per-channel mean squared error over variance.

    Channels with different units are weighted equally by normalizing each
    with the sample variance of its measurement; a prediction stuck at the
    channel mean scores about 1 per channel. Divergent candidates get +inf.
    """
    r = _residual_fn(dataset, gains)(p)
    if r is None:
        return float("inf")
    return float(r @ r)


def identify(dataset: IdDataset, gains: FeedbackGains, config: IdConfig) -> IdResult:
    """Fit the eight model constants by Levenberg-Marquardt with multistart.

    Start 0 is the configured initial guess; the remaining starts perturb it
    by log-uniform factors in [0.5, 1.5] per parameter (seeded, so the whole
    procedure is deterministic). The damping factor shrinks tenfold on every
    accepted step and grows tenfold on rejection; iteration stops when an
    accepted step improves the cost by less than the relative tolerance.
    """
    residuals = _residual_fn(dataset, gains)
    lo, hi = config.parameter_bounds
    rng = np.random.default_rng(config.seed)
    starts = [config.initial_guess.copy()]
    for _ in range(config.multistart_count - 1):
        factors = np.exp(rng.uniform(math.log(0.5), math.log(1.5), size=8))
        starts.append(np.clip(config.initial_guess * factors, lo, hi))

    best = None
    diagnostics = {"starts": []}
    for si, p0 in enumerate(starts):
        p, cost, iters, converged = _levenberg_marquardt(
            p0, residuals, lo, hi, config)
        diagnostics["starts"].append(
            {"start": si, "cost": cost, "iterations": iters, "converged": converged})
        if not math.isfinite(cost):
            continue
        if best is None or cost < best[1]:
            best = (p, cost, iters, converged, si)
    if best is None:
        raise IdentificationFailedError(
            "all optimizer starts produced divergent candidates", diagnostics)
    p, cost, iters, converged, si = best
    return IdResult(p_hat=p, fit_rates={}, final_cost=cost, converged=converged,
                    iterations=iters, start_index=si, diagnostics=diagnostics)


def _levenberg_marquardt(p0, residuals, lo, hi, config: IdConfig):
    p = p0.copy()
    r = residuals(p)
    if r is None:
        return p, float("inf"), 0, False
    cost = float(r @ r)
    lam = config.lm_lambda0
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        J = _jacobian(p, r, residuals)
        if J is None:
            break
        JtJ = J.T @ J
        Jtr = J.T @ r
        diag = np.diag(JtJ).copy()
        diag[diag <= 0] = 1e-30
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -Jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(p + step, lo, hi)
            r_trial = residuals(trial)
            if r_trial is not None:
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                    p, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    if rel_drop < config.lm_tolerance:
                        converged = True
                    break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            converged = True  # stalled at a (local) minimum
            break
        if converged:
            break
    return p, cost, it, converged


def _jacobian(p, r0, residuals):
    """Forward finite differences with a relative step of 1e-6."""
    J = np.empty((r0.size, 8))
    for j in range(8):
        h = 1e-6 * max(abs(p[j]), 1e-3)
        pj = p.copy()
        pj[j] += h
        rj = residuals(pj)
        if rj is None:
            return None
        J[:, j] = (rj - r0) / h
    return J


def extract_open_loop(A_cl, B_cl, gains: FeedbackGains):
    """Invert the loop composition: B = B_cl / kp, A = A_cl - B_cl F.

    Exact algebraic inverse of closing the loop; works on the full 4-state
    matrices or the reduced 3-state ones.
    """
    if gains.kp == 0:
        raise ValueError("kp = 0: loop composition not invertible")
    A_cl = np.asarray(A_cl, dtype=float)
    B_cl = np.asarray(B_cl, dtype=float).reshape(A_cl.shape[0], -1)
    F = feedback_row(gains)
    if A_cl.shape[0] == 3:
        F = F[1:]
    elif A_cl.shape[0] != 4:
        raise ValueError("expected a 3- or 4-state closed loop")
    A = A_cl - B_cl @ F.reshape(1, -1)
    B = B_cl / gains.kp
    return A, B


def augment_position(reduced: ContinuousSS) -> ContinuousSS:
    """Re-attach the position integrator to a (theta, ydot, thetadot) model.

    Position is the integral of the second reduced state; the new first
    column is zero, so the added eigenvalue is exactly zero.
    """
    if reduced.n_states != 3:
        raise ValueError("expected the reduced 3-state system")
    A = np.zeros((4, 4))
    A[0, 2] = 1.0
    A[1:, 1:] = reduced.A
    B = np.vstack([np.zeros((1, reduced.n_inputs)), reduced.B])
    return ContinuousSS(A, B)


def validate(p_hat, holdout: IdDataset, gains: FeedbackGains) -> dict:
    """Fit rates (percent) of the candidate model on held-out data."""
    meas = holdout.measured_matrix()
    pred = simulate_syscl(p_hat, gains, holdout.d, holdout.Ts, x0=meas[0])
    if pred is None:
        raise IdentificationFailedError("candidate diverges on the holdout data")
    return {name: nrmse_fit(meas[:, i], pred[:, i]) for i, name in enumerate(_CHANNELS)}
