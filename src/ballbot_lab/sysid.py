"""Indirect closed-loop gray-box identification.

The loop used for data collection is plant + outer feedback + inner P gain,
driven by the external excitation d. Fitting therefore simulates the
parameterized CLOSED loop from d alone (output-error on the closed loop;
the measured states never re-enter the simulation), which keeps the
estimate unbiased because d is uncorrelated with the measurement noise.
The fitted constants parameterize the open loop directly (the planar model
of ``plant.build_linear_ss`` without its position state).

The candidate closed loop is composed at the discrete level, A_d + kp B_d F
with F = ``feedback_row(gains)[1:]`` (``stabilizer.closed_loop``), matching
the digital controller that actually ran: the controller holds its output
over each sample period, so discretize-then-close is the exact model class of
the recorded experiment.

The Levenberg-Marquardt Jacobian is exact, built from the candidate's modal
form rather than differenced (``_jacobian_fn``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentificationFailedError
from .numerics import ContinuousSS, expm, nrmse_fit, sum_squares, zoh_discretize
from .plant import LinearParams, build_linear_ss
from .stabilizer import FeedbackGains, closed_loop, feedback_row

__all__ = [
    "IdDataset", "IdConfig", "IdResult",
    "simulate_syscl", "identify", "validate",
]

_CHANNELS = ("theta", "ydot", "thetadot")
_DEFECTIVE_COND = 1e9  # cond V above which the eigenbasis is near-defective


@dataclass
class IdDataset:
    """Logged closed-loop experiment: excitation and measured states at Ts."""

    Ts: float
    d: np.ndarray
    theta: np.ndarray
    ydot: np.ndarray
    thetadot: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.ydot = np.asarray(self.ydot, dtype=float)
        self.thetadot = np.asarray(self.thetadot, dtype=float)
        n = self.d.size
        if self.theta.size != n or self.ydot.size != n or self.thetadot.size != n:
            raise ValueError("excitation and state channels must share one length")

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
        )

    def measured_matrix(self) -> np.ndarray:
        return np.column_stack([self.theta, self.ydot, self.thetadot])


@dataclass
class IdConfig:
    initial_guess: np.ndarray = None
    lm_lambda0: float = 1e-3
    lm_tolerance: float = 1e-10
    max_iterations: int = 500
    parameter_bounds: tuple = None  # (lo, hi) arrays of length 8

    def __post_init__(self):
        self.initial_guess = np.asarray(self.initial_guess, dtype=float)
        if self.initial_guess.shape != (8,):
            raise ValueError("initial_guess must have eight entries")
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
    diagnostics: dict = field(default_factory=dict)

    def linear_params(self, r: float = 10.9) -> LinearParams:
        return LinearParams.from_array(self.p_hat, r=r)


def simulate_syscl(p, gains: FeedbackGains, d, Ts: float, x0=None):
    """Predicted (theta, ydot, thetadot) of the closed loop driven by d.

    Returns an (N, 3) array, or None for a divergent candidate (callers map
    that to infinite cost rather than raising). The linear recursion is
    evaluated in modal coordinates: with A_cl = V diag(lam) V^-1, each mode
    z_i = (V^-1 x)_i obeys z_i[0] = c0_i and z_i[k] = lam_i z_i[k-1] +
    w_i d[k-1], where c0 = V^-1 x0 and w = V^-1 B_cl, so the free and the
    forced response come from one scan of [c0_i, w_i d[0], ..., w_i d[N-2]]
    (``_modal_solve``). A real mode runs in float64; of a conjugate pair only
    the mode with lam.imag > 0 runs, and x = V_r z_r + 2 Re(V_p z_p) is one
    real product of [V_r | 2 Re V_p | -2 Im V_p] with the rows [z_r; Re z_p;
    Im z_p]. A defective transition matrix (ill-conditioned V) falls back to
    the literal recursion.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # the planar model without its position state
            full = build_linear_ss(LinearParams.from_array(p))
            dss = zoh_discretize(ContinuousSS(full.A[1:, 1:], full.B[1:]), Ts)
            A_cl, B_cl = closed_loop(dss.A_d, dss.B_d, feedback_row(gains)[1:], gains.kp)
    except (ValueError, OverflowError, np.linalg.LinAlgError):
        return None  # includes a non-finite transition (DiscreteSS rejects it)
    B_cl = B_cl[:, 0]
    x0 = np.zeros(3) if x0 is None else np.asarray(x0, dtype=float)
    try:
        lam, V = np.linalg.eig(A_cl)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(lam)) > 1.05:
        return None  # would overflow over thousands of samples
    if _near_defective(V):
        return _simulate_literal(A_cl, B_cl, d, x0)
    c0, w = np.linalg.solve(V, np.column_stack([x0, B_cl])).T
    real, pair = np.flatnonzero(lam.imag == 0), np.flatnonzero(lam.imag > 0)
    basis = np.hstack([V[:, real].real, 2.0 * V[:, pair].real, -2.0 * V[:, pair].imag])
    Z, tmp = np.empty((3, n)), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, i in enumerate(real):
            Z[row, 0] = c0[i].real
            np.multiply(d[:-1], w[i].real, out=Z[row, 1:])
            _modal_solve(lam[i].real, Z[row], tmp)
        for i in pair:
            z = np.empty(n, dtype=complex)
            z[0] = c0[i]
            np.multiply(d[:-1], w[i], out=z[1:])
            _modal_solve(lam[i], z, np.empty(n, dtype=complex))
            Z[-2], Z[-1] = z.real, z.imag
        out = (basis @ Z).T
    if not np.all(np.isfinite(out)):
        return None
    return out


def _near_defective(V) -> bool:
    cond = np.linalg.cond(V)
    return not np.isfinite(cond) or cond > _DEFECTIVE_COND


def _modal_solve(lam, z, tmp):
    """z[k] <- lam z[k-1] + z[k] over the whole record, in place.

    A doubling scan (Hillis & Steele 1986; Blelloch 1990, "Prefix sums and
    their applications"): after the pass with shift s, z[k] is the sum of
    lam^j x[k-j] over j < 2s, x the input, so ceil(log2 n) passes of
    z[s:] += lam^s z[:-s] finish it. The passes stop early once lam^s is
    below 1e-300, where every further term is negligible. ``tmp`` holds the
    shifted products (at least n - 1 entries of z's dtype), so a pass never
    reads what it wrote.
    """
    n, c, s = z.size, lam, 1
    while s < n and abs(c) >= 1e-300:
        np.multiply(z[:-s], c, out=tmp[:n - s])
        z[s:] += tmp[:n - s]
        c *= c
        s *= 2


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


def _augmented(p) -> np.ndarray:
    """X = [[A, B], [0, 0]] of the planar model without its position state."""
    full = build_linear_ss(LinearParams.from_array(p))
    X = np.zeros((4, 4))
    X[:3, :3] = full.A[1:, 1:]
    X[:3, 3] = full.B[1:, 0]
    return X


# X is affine in p, so dX/dp_j is the unit entry that p_j occupies
_DX = [_augmented(e) - _augmented(np.zeros(8)) for e in np.eye(8)]


def _residual_fn(dataset: IdDataset, gains: FeedbackGains):
    """(p -> normalized output errors stacked channel by channel, p -> their
    Jacobian).

    Each channel is scaled by sqrt(N var) of its measurement, so the sum of
    squares, the fit's cost, is the per-channel mean squared error over
    variance: a prediction stuck at the channel mean scores about 1 per
    channel. The measured channels (as contiguous rows) and their scales are
    built once per fit, so each call subtracts row from row; both functions
    run on numpy alone. The residual function returns None for a divergent
    candidate, including one whose squared residual norm overflows; such a
    candidate is never accepted.
    """
    meas = dataset.measured_matrix()
    var = meas.var(axis=0, ddof=1)
    if np.any(var <= 0):
        raise IdentificationFailedError("a measured channel is constant; cost undefined")
    scales = np.sqrt(len(dataset) * var)[:, None]
    x0, meas_rows = meas[0].copy(), np.ascontiguousarray(meas.T)

    def residuals(p):
        pred = simulate_syscl(p, gains, dataset.d, dataset.Ts, x0=x0)
        if pred is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            r = ((pred.T - meas_rows) / scales).ravel()
            if not math.isfinite(sum_squares(r)):
                return None
        return r

    return residuals, _jacobian_fn(gains, dataset.d, dataset.Ts, x0, scales[:, 0])


def _jacobian_fn(gains: FeedbackGains, d, Ts: float, x0, scales):
    """p -> the exact (3N x 8) Jacobian of the residuals, or None.

    Model derivatives: exp of the 36 x 36 block upper-triangular matrix with
    X Ts on its nine diagonal blocks and dX/dp_j Ts in block (0, j+1) holds
    exp(X Ts) in block (0, 0) and its derivative along p_j in block (0, j+1)
    (Van Loan 1978, "Computing integrals involving the matrix exponential");
    the loop closes each block, as the composition is linear in (A_d, B_d).

    Mode derivatives: with A_cl = V diag(lam) V^-1 and M_j = V^-1 dA_cl V,
    dlam = diag(M_j), dV = V C_j with (C_j)_ik = (M_j)_ik / (lam_k - lam_i)
    off the diagonal (zero on it, which fixes the eigenvector scaling), and
    so dc0 = -C_j c0, dw = V^-1 dB_cl - C_j w (Magnus 1985, "On
    differentiating eigenvalues and eigenvectors").

    Each mode z_i = c0_i h_i + w_i f_i, with h_i its impulse response and f_i
    its response to d; dz_i/dlam_i = g_i obeys g[k] = lam g[k-1] + z[k-1],
    the same scan on z shifted by one sample. So the derivative of output
    channel c is Re sum_i (a_h h_i + a_f f_i + a_g g_i) with
    a_h = dV_ci c0_i + V_ci dc0_i, a_f = dV_ci w_i + V_ci dw_i and
    a_g = V_ci dlam_i. A conjugate pair is solved once and doubled, and J' is
    one real product of the (24 x 6K) coefficients over the channel scales
    with the (6K x N) Re/Im rows of the K kept modes' h, f, g.

    None for a divergent candidate or a near-defective eigenbasis.
    """
    n = d.size
    forcing = np.zeros(n, dtype=complex)
    forcing[1:] = d[:-1]
    tmp = np.empty(n, dtype=complex)
    big = np.zeros((36, 36))
    F = feedback_row(gains)[1:]
    for j, dX in enumerate(_DX, start=1):
        big[:4, 4 * j:4 * j + 4] = dX * Ts

    def jacobian(p):
        X = _augmented(p) * Ts
        for b in range(9):
            big[4 * b:4 * b + 4, 4 * b:4 * b + 4] = X
        try:
            E = expm(big)
            blocks = [closed_loop(E[:3, 4 * b:4 * b + 3], E[:3, 4 * b + 3:4 * b + 4], F, gains.kp)
                      for b in range(9)]
            lam, V = np.linalg.eig(blocks[0][0])
        except (ValueError, np.linalg.LinAlgError):
            return None
        B_cl = blocks[0][1]
        dA = np.array([a for a, _ in blocks[1:]])          # (8, 3, 3)
        dB = np.array([b[:, 0] for _, b in blocks[1:]])    # (8, 3)
        if np.max(np.abs(lam)) > 1.05 or _near_defective(V):
            return None
        lam, V = lam.astype(complex), V.astype(complex)
        Vinv = np.linalg.inv(V)
        c0, w = Vinv @ x0, Vinv @ B_cl[:, 0]
        M = Vinv @ dA @ V
        dlam = np.diagonal(M, axis1=1, axis2=2)
        gap = lam[None, :] - lam[:, None]
        np.fill_diagonal(gap, np.inf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            C = M / gap
            dV = V @ C
            dc0 = -(C @ c0)
            dw = dB @ Vinv.T - C @ w
            keep = np.flatnonzero(lam.imag >= 0)
            weight = np.where(lam.imag[keep] > 0, 2.0, 1.0)
            basis = np.empty((keep.size, 3, 2, n))  # mode, (h, f, g), (Re, Im)
            seqs = np.empty((3, n), dtype=complex)
            h, f, g = seqs
            for m, i in enumerate(keep):
                k = _normal_length(lam[i], n)
                h[:] = 0.0
                h[0] = 1.0
                _modal_solve(lam[i], h[:k], tmp)
                f[:] = forcing
                _modal_solve(lam[i], f, tmp)
                g[0] = 0.0
                np.multiply(h[:-1], c0[i], out=g[1:])
                g[1:] += w[i] * f[:-1]
                _modal_solve(lam[i], g, tmp)
                basis[m, :, 0] = seqs.real
                basis[m, :, 1] = seqs.imag
            Vk, dVk = V[:, keep], dV[:, :, keep]
            coef = np.stack([dVk * c0[keep] + Vk * dc0[:, None, keep],
                             dVk * w[keep] + Vk * dw[:, None, keep],
                             Vk * dlam[:, None, keep]], axis=-1)  # j, c, mode, h/f/g
            coef *= weight[:, None] / scales[:, None, None]
            coef = np.stack([coef.real, -coef.imag], axis=-1).reshape(24, -1)
            Jt = (coef @ basis.reshape(coef.shape[1], n)).reshape(8, 3 * n)
        if not np.all(np.isfinite(Jt)):
            return None
        return Jt.T

    return jacobian


def _normal_length(lam, n) -> int:
    """Samples of lam^k before it falls below e^-708 (about the smallest
    normal double); at most n.

    The impulse response is left at zero past that point: rounding would
    hold lam^k at the smallest subnormal for |lam| > 1/2, and every product
    with a subnormal takes the processor's slow path.
    """
    r = abs(lam)
    if r >= 1.0:
        return n
    if r == 0.0:
        return 1
    return min(n, int(-708.0 / math.log(r)) + 1)


def identify(dataset: IdDataset, gains: FeedbackGains, config: IdConfig) -> IdResult:
    """Fit the eight model constants by Levenberg-Marquardt from the
    configured initial guess.

    The damping factor shrinks tenfold on every accepted step and grows
    tenfold on rejection. The fit converges when an accepted step improves
    the cost by less than the relative tolerance; one that stalls (25
    rejections in a row, or damping past 1e12) or has no Jacobian (a
    near-defective eigenbasis) ends unconverged. ``diagnostics["starts"]``
    records the one start's cost, iterations and convergence.
    """
    residuals, jacobian = _residual_fn(dataset, gains)
    p, cost, iters, converged = _levenberg_marquardt(
        config.initial_guess, residuals, jacobian, *config.parameter_bounds, config)
    diagnostics = {"starts": [
        {"start": 0, "cost": cost, "iterations": iters, "converged": converged}]}
    if not math.isfinite(cost):
        raise IdentificationFailedError(
            "the initial guess is a divergent candidate", diagnostics)
    return IdResult(p_hat=p, fit_rates={}, final_cost=cost, converged=converged,
                    iterations=iters, diagnostics=diagnostics)


def _levenberg_marquardt(p0, residuals, jacobian, lo, hi, config: IdConfig):
    p = p0.copy()
    r = residuals(p)
    if r is None:
        return p, float("inf"), 0, False
    cost = sum_squares(r)
    lam = config.lm_lambda0
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        J = jacobian(p)
        if J is None:
            break
        JtJ, Jtr = J.T @ J, J.T @ r
        del J  # 2.3 MB at fit length; not held while the next one is built
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
                cost_trial = sum_squares(r_trial)
                if cost_trial < cost:
                    rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                    p, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    converged = rel_drop < config.lm_tolerance
                    break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted or converged:
            break
    return p, cost, it, converged


def validate(p_hat, holdout: IdDataset, gains: FeedbackGains) -> dict:
    """Fit rates (percent) of the candidate model on held-out data.

    A channel whose held-out measurement is constant (a short run in which
    the quantized trackball never ticks) has no fit rate: None.
    """
    meas = holdout.measured_matrix()
    pred = simulate_syscl(p_hat, gains, holdout.d, holdout.Ts, x0=meas[0])
    if pred is None:
        raise IdentificationFailedError("candidate diverges on the holdout data")
    return {name: None if np.all(meas[:, i] == meas[0, i])
            else nrmse_fit(meas[:, i], pred[:, i])
            for i, name in enumerate(_CHANNELS)}
