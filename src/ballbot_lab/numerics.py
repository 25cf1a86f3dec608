"""Dense small-matrix kernels shared by the whole lab.

Everything here is sized for state dimensions of at most eight: the matrix
exponential uses scaling-and-squaring on a truncated series, the Riccati
solver is a structure-preserving doubling iteration, and eigenvalues come
from LAPACK through numpy. All reals are 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PlantBlowUpError, StabilizabilityError

__all__ = [
    "ContinuousSS",
    "DiscreteSS",
    "Biquad",
    "expm",
    "zoh_discretize",
    "solve_dare",
    "eigenvalues",
    "design_butterworth2",
    "nrmse_fit",
    "sum_squares",
    "rk4_step",
]

_SERIES_TOL = 1e-12


def _as_matrix(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass
class ContinuousSS:
    """Continuous-time state space dx/dt = A x + B u; every state is measured."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.B = _as_matrix(self.B, "B")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must match A")

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]


@dataclass
class DiscreteSS:
    """Discrete-time state space x+ = A_d x + B_d u sampled at Ts seconds."""

    A_d: np.ndarray
    B_d: np.ndarray
    Ts: float

    def __post_init__(self):
        self.A_d = _as_matrix(self.A_d, "A_d")
        self.B_d = _as_matrix(self.B_d, "B_d")
        if self.Ts <= 0:
            raise ValueError("Ts must be positive")
        n = self.A_d.shape[0]
        if self.A_d.shape[1] != n or self.B_d.shape[0] != n:
            raise ValueError("A_d/B_d dimensions inconsistent")

    @property
    def n_states(self):
        return self.A_d.shape[0]


def expm(M):
    """Matrix exponential by scaling-and-squaring with a truncated series.

    The argument is halved until its infinity norm is at most 0.5, the series
    is summed until the next term falls below 1e-12 in infinity norm, and the
    result is squared back up.
    """
    M = _as_matrix(M, "M")
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("expm needs a square matrix")
    norm = np.max(np.abs(M).sum(axis=1)) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    T = M / (2.0 ** squarings)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 80):
        term = term @ T / k
        E = E + term
        if np.max(np.abs(term)) < _SERIES_TOL:
            break
    else:
        raise ValueError("matrix exponential series did not converge")
    for _ in range(squarings):
        E = E @ E
    return E


def zoh_discretize(sys: ContinuousSS, Ts: float) -> DiscreteSS:
    """Exact zero-order-hold discretization via the augmented exponential.

    exp([[A, B], [0, 0]] * Ts) = [[A_d, B_d], [0, I]].
    """
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    n, m = sys.n_states, sys.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    E = expm(aug * Ts)
    return DiscreteSS(E[:n, :n], E[:n, n:], Ts)


def solve_dare(A_d, B_d, Q, R, tol=1e-10, max_iter=100):
    """Solve the discrete algebraic Riccati equation by doubling iteration.

    Each pass of the structure-preserving doubling recursion

        A <- A (I + G H)^-1 A
        G <- G + A G (I + H G)^-1 A'
        H <- H + A' (I + H G)^-1 H A

    (G = B R^-1 B', H starting at Q) composes twice as many steps of the
    Riccati difference equation as the one before, so H reaches the fixed
    point P quadratically even when the optimal closed loop has modes very
    close to the unit circle, where the literal one-step recursion would
    need millions of sweeps. Iteration stops when the H update falls below
    `tol` in infinity norm.

    Returns (P, K) with K = (R + B'PB)^-1 B'PA; the state feedback is
    u = -K x. Raises StabilizabilityError when the iteration fails to
    converge or the converged P leaves a residual of 1e-8 or more.
    """
    A = _as_matrix(A_d, "A_d")
    B = _as_matrix(B_d, "B_d")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    n = A.shape[0]
    eye = np.eye(n)
    Ak = A.copy()
    Gk = B @ np.linalg.solve(R, B.T)
    Hk = Q.copy()
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            W = eye + Gk @ Hk
            try:
                W_inv_A = np.linalg.solve(W, Ak)
                WT_inv_AT = np.linalg.solve(W.T, Ak.T)
            except np.linalg.LinAlgError as exc:
                raise StabilizabilityError(f"doubling iteration broke down: {exc}")
            A_next = Ak @ W_inv_A
            G_next = Gk + Ak @ Gk @ WT_inv_AT
            H_next = Hk + Ak.T @ Hk @ W_inv_A
            G_next = 0.5 * (G_next + G_next.T)
            H_next = 0.5 * (H_next + H_next.T)
            delta = np.max(np.abs(H_next - Hk))
            if not np.isfinite(delta):
                raise StabilizabilityError(
                    "Riccati doubling iteration diverged; (A_d, B_d) not stabilizable")
            Ak, Gk, Hk = A_next, G_next, H_next
            if delta < tol:
                converged = True
                break
    if not converged:
        raise StabilizabilityError(
            f"Riccati doubling iteration did not converge within {max_iter} iterations"
        )
    P = Hk
    BtP = B.T @ P
    Gm = R + BtP @ B
    K = np.linalg.solve(Gm, BtP @ A)
    residual = A.T @ P @ A - P - (A.T @ BtP.T) @ K + Q
    # 1e-8 absolute, relaxed to machine-level relative accuracy when the
    # solution itself is huge (near-unit-circle closed loops inflate P)
    gate = max(1e-8, 1e-14 * np.max(np.abs(P)))
    if np.max(np.abs(residual)) >= gate:
        raise StabilizabilityError(
            f"Riccati residual {np.max(np.abs(residual)):.3e} exceeds {gate:.1e}"
        )
    return P, K


def eigenvalues(M):
    """All eigenvalues of a square matrix, sorted by real then imaginary part.

    LAPACK's ``geev`` through ``np.linalg.eigvals``; complex eigenvalues of
    a real matrix come in exact conjugate pairs.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("eigenvalues needs a square matrix")
    return sorted((complex(z) for z in np.linalg.eigvals(M)),
                  key=lambda z: (z.real, z.imag))


@dataclass
class Biquad:
    """Second-order IIR section, direct-form-II transposed realization.

    y = b0 x + z1;  z1 <- b1 x - a1 y + z2;  z2 <- b2 x - a2 y.
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float
    z1: float = field(default=0.0)
    z2: float = field(default=0.0)

    def step(self, x: float) -> float:
        y = self.b0 * x + self.z1
        self.z1 = self.b1 * x - self.a1 * y + self.z2
        self.z2 = self.b2 * x - self.a2 * y
        return y


def design_butterworth2(fc: float, fs: float) -> Biquad:
    """Second-order Butterworth low-pass via the prewarped bilinear transform.

    The analog prototype has Q = 1/sqrt(2); prewarping makes the -3 dB point
    land exactly on fc. The numerator is renormalized so the DC gain is
    exactly one in floating point (sum of b's equals 1 + a1 + a2).
    """
    if fs <= 0:
        raise ValueError("fs must be positive")
    if not 0 < fc < fs / 2:
        raise ValueError(f"cutoff {fc} Hz must lie in (0, fs/2) = (0, {fs / 2}) Hz")
    K = np.tan(np.pi * fc / fs)
    root2 = np.sqrt(2.0)
    norm = 1.0 / (1.0 + root2 * K + K * K)
    b0 = K * K * norm
    b1 = 2.0 * b0
    b2 = b0
    a1 = 2.0 * (K * K - 1.0) * norm
    a2 = (1.0 - root2 * K + K * K) * norm
    scale = (1.0 + a1 + a2) / (b0 + b1 + b2)
    return Biquad(b0 * scale, b1 * scale, b2 * scale, a1, a2)


def nrmse_fit(y, yhat) -> float:
    """Fit quality in percent: 100 * (1 - ||y - yhat|| / ||y - mean(y)||)."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ValueError("y and yhat must be 1-D sequences of equal length")
    if y.size < 2:
        raise ValueError("need at least two samples")
    denom = np.sqrt(sum_squares(y - y.mean()))
    if denom == 0.0:
        raise ValueError("y is constant; fit metric undefined")
    return 100.0 * (1.0 - np.sqrt(sum_squares(y - yhat)) / denom)


def sum_squares(v) -> float:
    """Sum of squares in numpy's fixed-order pairwise reduction. A BLAS dot
    (``v @ v``, ``np.linalg.norm``) splits long vectors across threads, so
    its last bits would depend on the BLAS thread count."""
    return float(np.sum(v * v))


def rk4_step(f, x, u, dt: float) -> list:
    """Classical fourth-order Runge-Kutta step with the input held constant,
    on sequences of floats: each entry of x + dt/6 (k1 + 2 k2 + 2 k3 + k4) is
    summed in the order of that vector expression."""
    k1 = f(x, u)
    if not all(map(math.isfinite, k1)):
        raise PlantBlowUpError(np.asarray(x))
    h = 0.5 * dt
    k2 = f([a + h * b for a, b in zip(x, k1)], u)
    k3 = f([a + h * b for a, b in zip(x, k2)], u)
    k4 = f([a + dt * b for a, b in zip(x, k3)], u)
    h = dt / 6.0
    out = [a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise PlantBlowUpError(np.asarray(out))
    return out
