"""Synthetic ballbot plant: nonlinear planar dynamics, linearization, sensors.

State vector convention, used everywhere in the lab:

    x = [y, theta, ydot, thetadot]

with y in cm, theta in degrees, ydot in cm/s, thetadot in deg/s, and time in
seconds. Inputs are motor velocity commands in ticks/s. The identified model
constants are laid into this convention verbatim.

The nonlinear model evaluates its trigonometry on the tilt angle in radians
(the generalized coordinate of the rigid-body equations); the conversion
happens at this module's boundary so that callers only ever see degrees. The
closed-form linearization below therefore carries the matching degree/radian
factors, and it agrees with a finite-difference Jacobian of
``nonlinear_dynamics`` by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MassMatrixSingularError, PlantBlowUpError, PlantFellOverError
from .numerics import ContinuousSS, rk4_step, zoh_discretize

__all__ = [
    "DEG", "RAD",
    "LinearParams", "PhysicalParams", "SensorSpec", "Sensor", "Plant",
    "build_linear_ss", "nonlinear_dynamics", "linearize", "mix_to_wheels",
]

DEG = math.pi / 180.0   # radians per degree
RAD = 180.0 / math.pi   # degrees per radian

# Tilt beyond this bound aborts a simulation: the planar small-angle model is
# meaningless there and continuing would only produce garbage telemetry.
TILT_ENVELOPE_DEG = 45.0


@dataclass
class LinearParams:
    """The eight constants of the linearized planar model, plus the ball-radius
    scaling constant used by the reference parameter table (cm)."""

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    p6: float
    p7: float
    p8: float
    r: float = 10.9

    @classmethod
    def reference(cls, r: float = 10.9) -> "LinearParams":
        """Identified constants of the reference robot, scaled by the ball radius.

        Three of the eight constants were published relative to the ball
        radius; the radius itself was never stated, so it is configurable
        here. The default of 10.9 cm is a standard bowling-ball radius under
        this lab's cm convention (see README on the unit caveat).
        """
        return cls(
            p1=0.25 * r,
            p2=-13.87 * r,
            p3=0.01,
            p4=3.95,
            p5=214.68 / r,
            p6=-0.28,
            p7=-6.05,
            p8=5.50,
            r=r,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4,
                         self.p5, self.p6, self.p7, self.p8])

    @classmethod
    def from_array(cls, p, r: float = 10.9) -> "LinearParams":
        p = np.asarray(p, dtype=float)
        if p.shape != (8,):
            raise ValueError("expected eight parameters")
        return cls(*p.tolist(), r=r)


def build_linear_ss(lp: LinearParams) -> ContinuousSS:
    """Continuous state space of the planar model.

    The first column of A is structurally zero: the ball position never feeds
    back into any derivative, so balancing is position-independent.
    """
    A = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, lp.p1, lp.p2, lp.p7],
        [0.0, lp.p4, lp.p5, lp.p8],
    ])
    B = np.array([[0.0], [0.0], [lp.p3], [lp.p6]])
    return ContinuousSS(A, B)


@dataclass
class PhysicalParams:
    """Lumped coefficients of the nonlinear planar model.

    b1..b5 and ell are lumped combinations of inertia, mass, and friction
    terms; no individual physical dimension is asserted for them (ell in
    particular appears both in the mass matrix, as ell*r*cos(theta), and in
    the gravity torque, as ell*g*sin(theta)). r and r_w are the ball and
    omniwheel radii in cm, g the gravitational acceleration in cm/s^2.
    """

    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    ell: float
    r: float = 10.9
    r_w: float = 2.9
    g: float = 981.0

    def __post_init__(self):
        if self.r <= 0 or self.r_w <= 0 or self.g <= 0:
            raise ValueError("r, r_w, g must be positive")
        if abs(self._det_m0()) < 1e-12:
            raise MassMatrixSingularError("mass matrix singular at upright")

    def _det_m0(self) -> float:
        off = -self.b2 + self.ell * self.r
        return self.b1 * self.b3 - off * off

    @classmethod
    def reference(cls) -> "PhysicalParams":
        """Synthetic lumped parameters calibrated against the identified model.

        Found offline by least-squares inversion of ``linearize`` onto the
        reference LinearParams. The rigid-body structure cannot reproduce all
        eight identified constants at once (it forces p1*p8 == p4*p7, which
        the unconstrained identification result violates). This set matches
        p1, p3, p4, p6 and p8 within 2.5 % and concedes three: the velocity
        damping p2 and the cross-damping p5 and p7 come out at -0.0005,
        -0.21 and -0.61 times the table's values. So the README's known
        limitations hold for the linear plant only.
        """
        return cls(
            b1=18.635678321396604,
            b2=-585.6920958466828,
            b3=-749.8000642763874,
            b4=-585.053935975628,
            b5=160746.28277900766,
            ell=-121.41474542650366,
        )

    def mass_matrix(self, theta_rad: float) -> np.ndarray:
        off = -self.b2 + self.ell * self.r * math.cos(theta_rad)
        return np.array([[self.b1, off], [off, self.b3]])


def nonlinear_dynamics(pp: PhysicalParams, x, tau: float) -> list:
    """Time derivative of the state under the nonlinear planar model.

    Solves the 2x2 configuration-dependent system M q'' = btilde tau -
    coriolis - friction - gravity for the generalized accelerations by the
    adjugate formula, on Python floats. Input and output use the lab's
    cm/degree convention.
    """
    th = x[1] * DEG
    thd = x[3] * DEG
    off = -pp.b2 + pp.ell * pp.r * math.cos(th)  # the mass matrix [[b1, off], [off, b3]]
    det = pp.b1 * pp.b3 - off * off
    if abs(det) < 1e-12:
        raise MassMatrixSingularError(f"mass matrix singular at theta={x[1]} deg")
    bt = pp.r / pp.r_w                     # btilde = [bt, -bt]
    sin_th = math.sin(th)
    coriolis = -pp.ell * pp.r * sin_th * thd * thd
    gravity = -pp.ell * pp.g * sin_th
    rhs0 = bt * tau - coriolis - pp.b4 * x[2] / pp.r
    rhs1 = -bt * tau - pp.b5 * thd - gravity
    return [x[2], x[3], (pp.b3 * rhs0 - off * rhs1) / det,
            (-off * rhs0 + pp.b1 * rhs1) / det * RAD]


def linearize(pp: PhysicalParams) -> LinearParams:
    """Closed-form Jacobian of the nonlinear model at the upright equilibrium.

    With W the inverse of the upright mass matrix, the angle-consistent
    Jacobian maps as p1 = W12*ell*g, p4 = W22*ell*g, p2 = -W11*b4/r,
    p5 = -W21*b4/r, p7 = -W12*b5, p8 = -W22*b5 and (p3, p6) = W @ Btilde.
    The degree/radian conversion of this module's interface scales the
    mixed-unit entries (p1, p5, p6, p7) accordingly.
    """
    M0 = pp.mass_matrix(0.0)
    det = M0[0, 0] * M0[1, 1] - M0[0, 1] * M0[1, 0]
    if abs(det) < 1e-12:
        raise MassMatrixSingularError("mass matrix singular at upright")
    W = np.array([[M0[1, 1], -M0[0, 1]], [-M0[1, 0], M0[0, 0]]]) / det
    btilde = np.array([pp.r / pp.r_w, -pp.r / pp.r_w])
    wb = W @ btilde
    lg = pp.ell * pp.g
    return LinearParams(
        p1=W[0, 1] * lg * DEG,
        p2=-W[0, 0] * pp.b4 / pp.r,
        p3=wb[0],
        p4=W[1, 1] * lg,
        p5=-W[1, 0] * (pp.b4 / pp.r) * RAD,
        p6=wb[1] * RAD,
        p7=-W[0, 1] * pp.b5 * DEG,
        p8=-W[1, 1] * pp.b5,
        r=pp.r,
    )


_MIX_ALPHA = math.radians(45.0)  # latitude at which the omniwheels touch the ball


def mix_to_wheels(u_tx: float, u_ty: float, u_tz: float = 0.0):
    """Distribute planar commands to the three omniwheel motors."""
    ca = math.cos(_MIX_ALPHA)
    sa = math.sin(_MIX_ALPHA)
    s3 = math.sqrt(3.0)
    u1 = (2.0 / ca * u_tx + u_tz / sa) / 3.0
    u2 = (-u_tx / ca + s3 / ca * u_ty + u_tz / sa) / 3.0
    u3 = (-u_tx / ca - s3 / ca * u_ty + u_tz / sa) / 3.0
    return u1, u2, u3


@dataclass
class SensorSpec:
    """Noise and quantization model standing in for the IMU and trackball."""

    sigma_theta: float = 0.05        # deg, Gaussian
    sigma_thetadot: float = 0.2      # deg/s, Gaussian
    trackball_quantum: float = 0.05  # cm per encoder count (0 disables)
    Ts_sensor: float = 0.005         # s, the loop's tick: read once per tick


def _standard_normals(rng, block=4096):
    """The draws of ``rng.standard_normal()`` one by one, generated a block
    at a time: the same stream at a fraction of the per-call cost."""
    while True:
        yield from rng.standard_normal(block).tolist()


class Sensor:
    """Stateful measurement channel for one plane.

    Tilt and tilt rate get zero-mean Gaussian noise. Position is quantized to
    the trackball quantum (floor toward zero), and velocity is reported as
    encoder counts accumulated over the sample period divided by the period,
    exactly like reading a hardware counter: the quantization remainder
    carries over between samples, so the reported velocity dithers around the
    true one instead of collapsing to zero for slow motion.
    """

    def __init__(self, spec: SensorSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self._normals = _standard_normals(rng)
        self._prev_counts = None

    def measure(self, x) -> list:
        """The measured ``[y, theta, ydot, thetadot]`` of the true state ``x``.

        ``x`` is a list of four floats, as ``Plant.step`` returns it: Python
        floats do the same IEEE arithmetic as numpy scalars, cheaper.
        """
        s = self.spec
        theta = x[1] + (s.sigma_theta * next(self._normals) if s.sigma_theta else 0.0)
        thetadot = x[3] + (s.sigma_thetadot * next(self._normals) if s.sigma_thetadot else 0.0)
        if s.trackball_quantum > 0:
            counts = math.trunc(x[0] / s.trackball_quantum)
            y = counts * s.trackball_quantum
            if self._prev_counts is None:
                ydot = math.trunc(x[2] * s.Ts_sensor / s.trackball_quantum) \
                    * s.trackball_quantum / s.Ts_sensor
            else:
                ydot = (counts - self._prev_counts) * s.trackball_quantum / s.Ts_sensor
            self._prev_counts = counts
        else:
            y = x[0]
            ydot = x[2]
        return [y, theta, ydot, thetadot]


class Plant:
    """One vertical plane of the synthetic robot, stepped at the fixed period Ts.

    A LinearParams model steps the exact zero-order-hold discretization of its
    linear model; a PhysicalParams model takes one RK4 step of the rigid-body
    equations. Both abort with PlantFellOverError once the tilt leaves the
    validity envelope.
    """

    def __init__(self, model, Ts: float):
        self.model = model
        self.Ts = Ts
        self.t = 0.0
        self._rows = None  # [A_d | B_d] row by row, for a linear model
        if isinstance(model, LinearParams):
            dss = zoh_discretize(build_linear_ss(model), Ts)
            self._rows = np.hstack([dss.A_d, dss.B_d]).tolist()

    def step(self, x, u: float) -> list:
        """The state one period after ``x`` under the held input ``u``.

        ``x`` and the returned state are lists of four floats; a linear
        model sums A_d x + B_d u left to right. Leaving the tilt envelope
        raises PlantFellOverError, or PlantBlowUpError if the state is not
        finite: a NaN anywhere in ``x`` or ``u`` reaches the linear step's
        tilt, through A_d's zero entries if need be (0 NaN is NaN), and
        ``rk4_step`` checks its stages and result.
        """
        u = float(u)  # a numpy scalar would turn the whole state into numpy scalars
        if self._rows is None:
            xn = rk4_step(self._dynamics, x, u, self.Ts)
        else:
            ((a00, a01, a02, a03, b0), (a10, a11, a12, a13, b1),
             (a20, a21, a22, a23, b2), (a30, a31, a32, a33, b3)) = self._rows
            x0, x1, x2, x3 = x
            xn = [a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3 + b0 * u,
                  a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3 + b1 * u,
                  a20 * x0 + a21 * x1 + a22 * x2 + a23 * x3 + b2 * u,
                  a30 * x0 + a31 * x1 + a32 * x2 + a33 * x3 + b3 * u]
        self.t += self.Ts
        if not abs(xn[1]) < TILT_ENVELOPE_DEG:  # a NaN tilt fails this test too
            if not all(map(math.isfinite, xn)):
                raise PlantBlowUpError(np.asarray(xn))
            raise PlantFellOverError(self.t, np.asarray(xn))
        return xn

    def _dynamics(self, x, u) -> list:
        return nonlinear_dynamics(self.model, x, u)
