"""Double-loop balancing controllers and their closed-loop composition.

The outer loop turns the measured state into a reference ball speed; the
inner loop (discrete PID, or plain P during identification experiments)
turns the speed error into a motor command. Composing the plant with the
P-only loop gives the closed-loop system that the identification stage fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import DiscreteSS

__all__ = [
    "FeedbackGains", "PidState",
    "outer_reference", "pid_step", "p_step",
    "feedback_row", "closed_loop", "discrete_closed_loop",
]

# the measured speed that the speed error e = ydot_ref - ydot subtracts
_UNIT_YDOT = np.array([0.0, 0.0, 1.0, 0.0])


@dataclass
class FeedbackGains:
    """Outer-loop state feedback plus inner-loop controller gains.

    Defaults are the hand-tuned balancing set of the reference robot. There
    is no position gain: ``outer_vector`` holds 0.0 in the position slot, so
    position never enters the outer loop. ``identification()`` below gives
    the gains of the P-only identification loop.
    """

    k_theta: float = 1.2
    k_ydot: float = 1.1
    k_thetadot: float = 0.005
    kp: float = 300.0
    KP: float = 180.0
    KI: float = 830.0
    KD: float = 50.0

    @classmethod
    def identification(cls) -> "FeedbackGains":
        """Gains of the P-only identification loop, two of them retuned.

        k_thetadot: with the reference model constants, the plain-P loop is
        not stabilized by the balancing value (the PID derivative term
        supplied that damping). k_ydot: at 1.0 the net velocity feedback
        (k_ydot - 1) vanishes, which keeps the heavily quantized trackball
        velocity out of the loop; the measured channel is still logged and
        fitted. See the README identification notes.
        """
        return cls(k_thetadot=0.12, k_ydot=1.0)

    def outer_vector(self) -> np.ndarray:
        return np.array([0.0, self.k_theta, self.k_ydot, self.k_thetadot])


@dataclass
class PidState:
    """Inner-loop PID memory: integrated speed error and previous speed error."""

    e_y_accum: float = field(default=0.0)
    e_ydot_prev: float = field(default=0.0)


def outer_reference(k, x) -> float:
    """Reference ball speed from weighted state feedback (cm/s).

    ``k`` is ``FeedbackGains.outer_vector()`` as a tuple of floats. Like
    every sum of the tick path, the dot is summed left to right on floats.
    """
    return k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + k[3] * x[3]


def pid_step(state: PidState, e_ydot: float, gains: FeedbackGains, Ts: float) -> float:
    """One discrete PID update on the speed error; mutates `state`.

    Backward-difference derivative, rectangular integration, no anti-windup
    and no derivative filtering.
    """
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    state.e_y_accum += e_ydot * Ts
    e_yddot = (e_ydot - state.e_ydot_prev) / Ts
    state.e_ydot_prev = e_ydot
    return gains.KP * e_ydot + gains.KI * state.e_y_accum + gains.KD * e_yddot


def p_step(kp: float, e_ydot: float) -> float:
    """Plain proportional inner loop used during identification."""
    return kp * e_ydot


def feedback_row(gains: FeedbackGains, n_states: int = 4) -> np.ndarray:
    """Net state-to-speed-error row F = outer_vector() - [0, 0, 1, 0].

    The -1 comes from the speed error e = ydot_ref - ydot. Position has no
    gain, so F's leading entry is 0 and the 3-state (theta, ydot, thetadot)
    row simply drops it.
    """
    F = gains.outer_vector() - _UNIT_YDOT
    if n_states == 3:
        return F[1:]
    if n_states != 4:
        raise ValueError("expected a 3- or 4-state system")
    return F


def closed_loop(A, B, gains: FeedbackGains):
    """Plant + outer feedback + inner P gain: (A + kp B F, kp B).

    The excitation enters the speed-error summation, so it is scaled by kp
    like the feedback. The same algebra closes the continuous loop and the
    sampled one: the digital controller holds u = kp (F x_k + d_k) over each
    period, so closing (A_d, B_d) gives the realized transition. A 3-state
    system (position dropped) takes the 3-state feedback row.
    """
    F = feedback_row(gains, A.shape[0])
    return A + gains.kp * np.outer(B[:, 0], F), gains.kp * B


def discrete_closed_loop(dss: DiscreteSS, gains: FeedbackGains) -> DiscreteSS:
    """The sampled closed loop of a 3- or 4-state discrete model."""
    return DiscreteSS(*closed_loop(dss.A_d, dss.B_d, gains), dss.Ts)
