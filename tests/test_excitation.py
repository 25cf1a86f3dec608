import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballbot_lab.excitation import MultisineSpec, d_at, sample_sequence

from oracles import default_multisine

AMPS = (0.14, 1.0, 0.27, 0.14, 0.125)
FREQS = (0.43, 0.64, 0.7, 3.4, 5.1)


def test_reference_components():
    spec = default_multisine()
    assert tuple(a for a, _ in spec.components) == AMPS
    assert tuple(b for _, b in spec.components) == FREQS
    assert spec.alpha_scale == 1.0


def test_zero_at_origin():
    assert d_at(default_multisine(), np.zeros(1)).tolist() == [0.0]


def test_value_at_quarter_second_matches_independent_sum():
    # independent evaluation: reversed accumulation order with math.fsum
    t = 0.25
    expected = math.fsum(a * math.sin(2 * math.pi * b * t)
                         for a, b in reversed(list(zip(AMPS, FREQS))))
    assert_allclose(d_at(default_multisine(), np.array([t])), [expected], rtol=1e-12)


def test_alpha_scaling():
    spec = default_multisine()
    doubled = default_multisine(2.0)
    t = np.linspace(0.0, 3.0, 100)
    assert_allclose(d_at(doubled, t), 2.0 * d_at(spec, t), rtol=1e-12)


def test_two_samples_minimum():
    seq = sample_sequence(default_multisine(), Ts=0.5, duration=0.5)
    assert seq.d.size == 2
    with pytest.raises(ValueError):
        sample_sequence(default_multisine(), Ts=0.5, duration=0.2)


def test_peak_bounded_by_amplitude_sum():
    seq = sample_sequence(default_multisine(), Ts=0.005, duration=60.0)
    assert seq.peak <= sum(AMPS) + 1e-12
    assert seq.peak == pytest.approx(np.max(np.abs(seq.d)))


def test_alpha_two_doubles_samples():
    s1 = sample_sequence(default_multisine(), 0.005, 10.0)
    s2 = sample_sequence(default_multisine(alpha_scale=2.0), 0.005, 10.0)
    assert_allclose(s2.d, 2.0 * s1.d, rtol=1e-12)


def test_long_window_mean_matches_partial_cycle_residue():
    # the 0.64 Hz component completes 38.4 cycles in 60 s, so the window
    # mean is not exactly zero; it equals the analytic partial-cycle
    # residue sum_i a_i (1 - cos(2 pi b_i T)) / (2 pi b_i T), about 1.1%
    # of the RMS, and shrinks with the window
    T = 60.0
    seq = sample_sequence(default_multisine(), Ts=0.005, duration=T)
    analytic = math.fsum(
        a * (1.0 - math.cos(2 * math.pi * b * T)) / (2 * math.pi * b * T)
        for a, b in zip(AMPS, FREQS))
    assert abs(np.mean(seq.d) - analytic) < 2e-4
    assert abs(np.mean(seq.d)) < 0.02 * seq.rms


def test_exact_zero_mean_on_common_period():
    # every design frequency completes an integer cycle count in 100 s
    seq = sample_sequence(default_multisine(), Ts=0.005, duration=100.0)
    # drop the duplicated endpoint sample so the window is exactly periodic
    assert abs(np.mean(seq.d[:-1])) < 1e-6 * seq.rms


def test_spectral_peaks_at_design_frequencies():
    # on the 100 s common period all five components land exactly on DFT
    # bins, so the five largest non-DC lines are the design frequencies
    Ts = 0.005
    seq = sample_sequence(default_multisine(), Ts=Ts, duration=100.0)
    d = seq.d[:-1]
    spectrum = np.abs(np.fft.rfft(d))
    freqs = np.fft.rfftfreq(d.size, d=Ts)
    spectrum[0] = 0.0
    top5 = np.argsort(spectrum)[-5:]
    found = sorted(freqs[top5])
    for f_found, f_want in zip(found, sorted(FREQS)):
        assert abs(f_found - f_want) <= freqs[1] / 2


def test_spectral_peaks_sixty_second_window():
    # with a Hann window the leakage sidelobes of the strong 0.64 Hz line
    # drop far enough that the five largest local maxima sit on the bins
    # nearest the design frequencies even on the non-periodic 60 s record
    Ts = 0.005
    seq = sample_sequence(default_multisine(), Ts=Ts, duration=60.0)
    d = seq.d * np.hanning(seq.d.size)
    spectrum = np.abs(np.fft.rfft(d))
    freqs = np.fft.rfftfreq(seq.d.size, d=Ts)
    interior = (spectrum[1:-1] > spectrum[:-2]) & (spectrum[1:-1] > spectrum[2:])
    peak_idx = np.flatnonzero(interior) + 1
    order = np.argsort(spectrum[peak_idx])[-5:]
    found = sorted(freqs[peak_idx[order]])
    for f_found, f_want in zip(found, sorted(FREQS)):
        assert abs(f_found - f_want) <= 2 * freqs[1]


def test_empty_components_rejected():
    with pytest.raises(ValueError):
        MultisineSpec(1.0, ())
    with pytest.raises(ValueError):
        MultisineSpec(1.0, ((1.0, -0.5),))
