"""Property test of noiseless identification: the fit recovers the truth
table for any accepted identification loop, not only the default one.

Each example draws the four gains that ``identify`` reads (the P loop's
``kp`` and ``k_theta`` and its two retuned gains), ``run.Ts_inner``,
``plant.linear.r`` and the multisine amplitudes around their defaults,
inside ``harness._RULES``, and runs a noiseless ``identify`` on the linear
truth plant. The PID gains and the balancing ``k_ydot`` and ``k_thetadot``
are not drawn: the identification loop never reads them, so a draw of them
would only repeat a loop. The fit composes the candidate model with the
controller that actually ran, so with no noise the truth is in its model set
and every draw must recover the table. The draw is derandomized and the
example count fixed, so every run tests the same configs.
"""

import numpy as np
import pytest

from ballbot_lab import harness
from ballbot_lab.numerics import ContinuousSS, zoh_discretize
from ballbot_lab.plant import build_linear_ss
from ballbot_lab.stabilizer import closed_loop, feedback_row

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_DURATION_S = 30.0
# each gain and amplitude is its default times a factor in this range
_FACTOR = st.floats(0.5, 2.0)
# the gains the identification loop reads, in the order of the config
_IDENTIFY_GAINS = ("k_theta", "kp", "k_thetadot_identification", "k_ydot_identification")


def _spectral_radius(cfg) -> float:
    """Of the sampled identification loop on the truth, without position."""
    full = build_linear_ss(harness._truth_model(cfg))
    dss = zoh_discretize(ContinuousSS(full.A[1:, 1:], full.B[1:]), cfg["run"]["Ts_inner"])
    gains = harness._identification_gains(cfg)
    A_cl = closed_loop(dss.A_d, dss.B_d, feedback_row(gains)[1:], gains.kp)[0]
    return float(np.max(np.abs(np.linalg.eigvals(A_cl))))


@hypothesis.settings(derandomize=True, max_examples=20, deadline=None, database=None)
@hypothesis.given(st.data())
def test_noiseless_identify_recovers_the_table(data):
    defaults = harness.DEFAULT_CONFIG
    components = [[a * data.draw(_FACTOR, label=f"amplitude {i}"), f]
                  for i, (a, f) in enumerate(defaults["excitation"]["components"])]
    cfg = harness.load_config(overrides={
        "gains": {name: defaults["gains"][name] * data.draw(_FACTOR, label=name)
                  for name in _IDENTIFY_GAINS},
        "run": {"Ts_inner": data.draw(st.sampled_from([0.002, 0.005, 0.01]),
                                      label="Ts_inner"),
                "noise": False},
        "plant": {"linear": {"r": data.draw(st.floats(6.0, 16.0), label="r")}},
        "excitation": {"components": components},
    })
    # An unstable identification loop falls over by design, so the run
    # aborts before any fit: that is outside this property. Only draws whose
    # composed loop has spectral radius < 1 are kept.
    hypothesis.assume(_spectral_radius(cfg) < 1.0)
    res = harness.run_identify(cfg, _DURATION_S)
    assert not res.summary["aborted"], res.summary.get("abort_reason")
    m = res.summary["metrics"]
    assert max(m["rel_error_vs_truth"]) <= 1e-6, (m["iterations"], m["rel_error_vs_truth"])
