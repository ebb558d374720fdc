"""Property tests of the drives: the chunked sampled-drive quadrature is the trapezoid rule,
and the Cauchy kernel is finite and accurate wherever its value is representable."""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from emwavelets import CauchySignal, SampledSignal, eval_derivs

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


@st.composite
def cauchy_case(draw):
    """An order n <= 60, a derivative order k <= 2, and taus with |tau| from 1e-3 to 1e300,
    many near where |tau|^(n+k) overflows, some on the real or imaginary axis."""
    n, k, m = draw(st.integers(1, 60)), draw(st.integers(0, 2)), draw(st.integers(1, 6))
    edge = min(308.25 / (n + k), 296.0)
    mags = st.one_of(st.floats(-3.0, 300.0), st.floats(edge - 0.5, edge + 4.0))
    units = st.one_of(st.sampled_from([1.0, 1j, -1.0, -1j]),
                      st.floats(-math.pi, math.pi).map(lambda arg: cmath.rect(1.0, arg)))
    taus = draw(st.lists(st.tuples(mags, units), min_size=m, max_size=m))
    return n, k, np.array([10.0**mag * unit for mag, unit in taus], dtype=complex)


@settings(max_examples=300)
@given(cauchy_case())
def test_cauchy_kernel_is_finite_where_representable(case):
    mp = pytest.importorskip("mpmath")
    n, k, tau = case
    got = CauchySignal(n).eval(tau, k)
    # an entry the plain power gets finite and nonzero keeps its bits
    coef = (-1) ** k * math.factorial(n + k - 1) / (2.0 * np.pi * 1j**n)
    with np.errstate(all="ignore"):
        plain = coef * tau ** (-(n + k))
    kept = np.isfinite(plain) & (plain != 0)
    assert got[kept].tobytes() == plain[kept].tobytes()
    with mp.workdps(30):
        for g, t in zip(got, tau):
            ref = (-1) ** k * mp.factorial(n + k - 1) / (2 * mp.pi * mp.j**n * mp.mpc(t.real, t.imag) ** (n + k))
            if abs(ref) < 1e307:  # representable: finite, and within rounding of subnormals below 1e-308
                assert np.isfinite(g), (n, k, t)
                assert abs(mp.mpc(g.real, g.imag) - ref) <= 1e-12 * abs(ref) + 2.0**-1069, (n, k, t, g, ref)
