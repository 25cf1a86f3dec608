"""Independent reference computations used to pin expected test values.

Each helper is deliberately implemented along a different algorithmic path
than the library code it checks: plain series summation instead of
scaling-and-squaring, characteristic-polynomial root finding instead of QR,
brute-force active-set enumeration instead of an interior-point method,
literal step-by-step recursions instead of lifted or modal forms, and the
stacked MPC problem (states kept as variables) instead of the condensed one.
"""

import itertools

import numpy as np


def expm_series(M, terms=60):
    """Plain truncated-series matrix exponential, no scaling tricks."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def char_poly_coeffs(M):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion.

    Returns [1, c_{n-1}, ..., c_0] such that det(sI - M) = s^n + c_{n-1}
    s^{n-1} + ... + c_0.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * np.eye(n)
        ck = -np.trace(M @ Mk) / k
        coeffs.append(ck)
    return np.array(coeffs)


def durand_kerner(coeffs, iters=400, tol=1e-14):
    """All roots of a monic polynomial by the Durand-Kerner iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    if n == 0:
        return np.array([])
    radius = 1.0 + np.max(np.abs(coeffs[1:]))
    roots = radius * np.exp(2j * np.pi * (np.arange(n) / n + 0.13))

    def poly(z):
        out = np.zeros_like(z)
        for c in coeffs:
            out = out * z + c
        return out

    for _ in range(iters):
        delta = np.zeros_like(roots)
        for i in range(n):
            denom = np.prod(roots[i] - np.delete(roots, i))
            delta[i] = poly(np.array([roots[i]]))[0] / denom
        roots = roots - delta
        if np.max(np.abs(delta)) < tol:
            break
    return roots


def eig_via_char_poly(M):
    """Eigenvalues from the characteristic polynomial (independent of QR)."""
    return durand_kerner(char_poly_coeffs(M))


def enumerate_box_qp(P, q, lo, hi):
    """Global minimum of 1/2 z'Pz + q'z subject to lo <= z <= hi.

    Brute force over all lower/free/upper assignments of each coordinate:
    solve the reduced stationarity system, then keep candidates that are
    primal feasible with correctly signed multipliers. P must be positive
    definite so the valid KKT point is the unique optimum.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = q.size
    best = None
    for assignment in itertools.product((-1, 0, 1), repeat=n):
        a = np.array(assignment)
        z = np.where(a < 0, lo, np.where(a > 0, hi, 0.0)).astype(float)
        free = np.flatnonzero(a == 0)
        fixed = np.flatnonzero(a != 0)
        if free.size:
            Pff = P[np.ix_(free, free)]
            rhs = -q[free] - P[np.ix_(free, fixed)] @ z[fixed]
            try:
                z[free] = np.linalg.solve(Pff, rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(z < lo - 1e-9) or np.any(z > hi + 1e-9):
            continue
        g = P @ z + q
        # lower-active needs g >= 0, upper-active needs g <= 0
        if np.any(g[a < 0] < -1e-8) or np.any(g[a > 0] > 1e-8):
            continue
        obj = 0.5 * z @ P @ z + q @ z
        if best is None or obj < best[0]:
            best = (obj, z.copy())
    return best


def stacked_tracking_qp(A_bar, B_bar, Q, Q_N, R, boxes, x0, ref):
    """The MPC tracking QP with x_1..x_N kept as decision variables.

    z = (x_1..x_N, u_0..u_{N-1}); the lifted dynamics x_{k+1} = A_bar x_k +
    B_bar u_k are equality rows, the tilt, speed and tilt-rate boxes
    (boxes[:3]) act on every predicted state and boxes[3] on every input.
    The cost is sum_k (x_k - ref_k)'W_k(x_k - ref_k) + R u_k^2 without its
    constant. Returns P, q, A, l, u.
    """
    A_bar = np.asarray(A_bar, dtype=float)
    b = np.asarray(B_bar, dtype=float).reshape(-1)
    ref = np.asarray(ref, dtype=float)
    n = A_bar.shape[0]
    N = ref.shape[0] - 1
    nz = N * n + N
    P = np.zeros((nz, nz))
    q = np.zeros(nz)
    A = np.zeros((N * n + 4 * N, nz))
    rhs = np.zeros(N * n)
    rhs[:n] = A_bar @ np.asarray(x0, dtype=float)
    for k in range(N):
        W = Q_N if k == N - 1 else Q
        xs = slice(k * n, (k + 1) * n)
        P[xs, xs] = 2.0 * W
        q[xs] = -2.0 * (W @ ref[k + 1])
        P[N * n + k, N * n + k] = 2.0 * R
        A[xs, xs] = np.eye(n)
        if k > 0:
            A[xs, (k - 1) * n:k * n] = -A_bar
        A[xs, N * n + k] = -b
        for i in range(3):
            A[N * n + 3 * k + i, k * n + 1 + i] = 1.0
        A[N * n + 3 * N + k, N * n + k] = 1.0
    box = np.concatenate([np.tile(boxes[:3], N), np.full(N, boxes[3])])
    return P, q, A, np.concatenate([rhs, -box]), np.concatenate([rhs, box])


def fd_jacobian(f, x0, h=1e-5):
    """Central finite-difference Jacobian of f at x0."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0))
    J = np.zeros((f0.size, x0.size))
    for j in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def literal_lift(A_cl, B_d, x0, u, m):
    """m literal inner steps with the slow input held constant."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(m):
        x = A_cl @ x + B_d[:, 0] * u
    return x


def simulate_discrete(A, B, x0, d):
    """Literal state recursion x_{k+1} = A x_k + B d_k, returning all states."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0])
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((len(d), x.size))
    for k, dk in enumerate(d):
        out[k] = x
        x = A @ x + B * dk
    return out
