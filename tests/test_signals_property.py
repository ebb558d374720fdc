"""Property test: the chunked sampled-drive quadrature is the trapezoid rule."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from emwavelets import SampledSignal, eval_derivs

from .test_signals import trapezoid_reference


@st.composite
def drive_and_taus(draw):
    """A Gaussian pulse on a uniform grid that holds it, and taus with |Im tau| >= 4*dt."""
    n = draw(st.integers(16, 600))
    dt = draw(st.floats(0.01, 0.2))
    t0 = draw(st.floats(-50.0, 50.0))
    t = t0 + dt * np.arange(n)
    span = t[-1] - t[0]
    # at least 4.8 widths from either grid end: below 1e-5 of the peak there
    width = draw(st.floats(0.02, 1.0)) * span / 12.0
    centre = t[0] + span / 2.0 + draw(st.floats(-0.1, 0.1)) * span
    amp = draw(st.floats(0.1, 10.0))
    g0 = amp * np.exp(-0.5 * ((t - centre) / width) ** 2)
    m = draw(st.integers(1, 40))
    re = draw(st.lists(st.floats(t[0] - span, t[-1] + span), min_size=m, max_size=m))
    im = draw(st.lists(st.floats(4.0, 200.0), min_size=m, max_size=m))
    side = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    sig = SampledSignal(t=t, g0=g0)
    return sig, np.array(re) + 1j * sig.dt * np.array(im) * np.array(side)


@settings(max_examples=60)
@given(drive_and_taus())
def test_eval_derivs_is_the_trapezoid_rule(case):
    sig, tau = case
    for k, got in enumerate(eval_derivs(sig, tau, 2)):
        ref = trapezoid_reference(sig, tau, k)
        # the rounding error of a sum scales with the sum of its terms' magnitudes
        kern = math.factorial(k) / (2 * np.pi) * np.abs(tau[:, None] - sig.t) ** -(k + 1.0)
        scale = np.trapezoid(kern * np.abs(sig.g0), sig.t, axis=-1)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
