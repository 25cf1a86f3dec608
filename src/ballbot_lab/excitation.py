"""Multisine perturbation signal for the identification experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MultisineSpec", "SampledExcitation", "d_at", "sample_sequence"]

# amplitudes (cm/s) and frequencies (Hz) of the reference excitation signal
_REFERENCE_COMPONENTS = (
    (0.14, 0.43),
    (1.0, 0.64),
    (0.27, 0.7),
    (0.14, 3.4),
    (0.125, 5.1),
)


@dataclass
class MultisineSpec:
    """Zero-phase sum of sines: d(t) = alpha * sum_i a_i sin(2 pi b_i t)."""

    alpha_scale: float = 1.0
    components: tuple = _REFERENCE_COMPONENTS

    def __post_init__(self):
        self.components = tuple((float(a), float(b)) for a, b in self.components)
        if not self.components:
            raise ValueError("components must hold at least one sine")
        if any(b <= 0 for _, b in self.components):
            raise ValueError("components must all have a positive frequency")

    @classmethod
    def reference(cls, alpha_scale: float = 1.0) -> "MultisineSpec":
        return cls(alpha_scale=alpha_scale)


def d_at(spec: MultisineSpec, t):
    """Excitation value (cm/s) at time t; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    amps = np.array([a for a, _ in spec.components])
    freqs = np.array([b for _, b in spec.components])
    out = spec.alpha_scale * np.sin(2.0 * np.pi * np.outer(np.atleast_1d(t_arr), freqs)) @ amps
    return float(out[0]) if scalar else out.reshape(t_arr.shape)


@dataclass
class SampledExcitation:
    t: np.ndarray
    d: np.ndarray
    peak: float
    rms: float


def sample_sequence(spec: MultisineSpec, Ts: float, duration: float) -> SampledExcitation:
    """Sample d on the uniform grid k*Ts for k = 0..floor(duration/Ts).

    Peak and RMS come along for the over-excitation check: the scale is
    chosen so the loop is perturbed without leaving its linear regime.
    """
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    if duration < Ts:
        raise ValueError("duration must cover at least one sample period")
    n = int(np.floor(duration / Ts))
    t = np.arange(n + 1) * Ts
    d = d_at(spec, t)
    return SampledExcitation(t=t, d=d, peak=float(np.max(np.abs(d))),
                             rms=float(np.sqrt(np.mean(d * d))))
