"""Multisine perturbation signal for the identification experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MultisineSpec", "SampledExcitation", "d_at", "sample_sequence"]


@dataclass
class MultisineSpec:
    """Zero-phase sum of sines: d(t) = alpha * sum_i a_i sin(2 pi b_i t),
    with components (a_i, b_i) as amplitude (cm/s) and frequency (Hz)."""

    alpha_scale: float
    components: tuple

    def __post_init__(self):
        self.components = tuple((float(a), float(b)) for a, b in self.components)
        if not self.components:
            raise ValueError("components must hold at least one sine")
        if any(b <= 0 for _, b in self.components):
            raise ValueError("components must all have a positive frequency")


def d_at(spec: MultisineSpec, t) -> np.ndarray:
    """Excitation values (cm/s) at the times of the 1-D array t."""
    amps = np.array([a for a, _ in spec.components])
    freqs = np.array([b for _, b in spec.components])
    return spec.alpha_scale * np.sin(2.0 * np.pi * np.outer(t, freqs)) @ amps


@dataclass
class SampledExcitation:
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
    d = d_at(spec, np.arange(n + 1) * Ts)
    return SampledExcitation(d=d, peak=float(np.max(np.abs(d))),
                             rms=float(np.sqrt(np.mean(d * d))))
