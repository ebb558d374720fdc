import math
import tracemalloc

import numpy as np
import pytest

from emwavelets import (
    CauchySignal,
    FlatDisk,
    NoSolutionError,
    PoleOnPathError,
    QuadratureDivergenceError,
    SampledSignal,
    ScalarWavelet,
    diffraction_angle,
    eval_derivs,
    interior_psi,
    lmn,
    mixed_signals,
    peak_strength,
    pulse_duration,
    spectral_profile,
    spectrum_cauchy,
    tilde_lmn,
    UnderResolvedSignalError,
)
from emwavelets.harness.fd import richardson
from emwavelets.geometry import branch
from emwavelets.signals import KERNEL_CHUNK
from emwavelets.harness.spectral import cauchy_series_transform, quadpack_fourier

TWO_PI = 2 * np.pi


def trapezoid_reference(sig, tau, k):
    """d^k/dtau^k of (1/2*pi*i) int g0(t)/(tau - t) dt by np.trapezoid over a dense kernel."""
    tau = np.asarray(tau, dtype=complex)
    kern = (-1) ** k * math.factorial(k) / (2j * np.pi) / (tau[..., None] - sig.t) ** (k + 1)
    return np.trapezoid(kern * sig.g0, sig.t, axis=-1)


def fd_derivative(f, x, h):
    """4th-order stencil with one Richardson step: the derivative oracle."""
    stencil = lambda hh: (f(x - 2 * hh) - 8 * f(x - hh) + 8 * f(x + hh) - f(x + 2 * hh)) / (12 * hh)
    return richardson(stencil(h), stencil(h / 2), order=4)


class TestCauchyKernel:
    def test_unit_values(self):
        assert CauchySignal(1).eval(-1j) == pytest.approx(1 / TWO_PI)
        assert CauchySignal(2).eval(-1j) == pytest.approx(1 / TWO_PI)

    def test_derivative_is_next_kernel(self, rng):
        # i*d/dt C_n = C_{n+1}, checked against a finite-difference oracle
        taus = rng.uniform(0.5, 2, 50) - 1j * rng.uniform(0.5, 2, 50)
        for n in (1, 2, 5):
            sig = CauchySignal(n)
            num = fd_derivative(lambda x: sig.eval(x), taus, 1e-2)
            scale = np.abs(CauchySignal(n + 1).eval(taus))
            assert (np.abs(1j * num - CauchySignal(n + 1).eval(taus)) / scale).max() < 1e-10
            assert (np.abs(num - sig.eval(taus, 1)) / scale).max() < 1e-10

    def test_second_derivative_closed_form(self, rng):
        taus = rng.uniform(0.5, 2, 20) - 1j * rng.uniform(0.5, 2, 20)
        sig = CauchySignal(2)
        num = fd_derivative(lambda x: sig.eval(x, 1), taus, 1e-2)
        assert np.abs(num - sig.eval(taus, 2)).max() < 1e-9

    def test_pole_raises(self):
        with pytest.raises(PoleOnPathError):
            CauchySignal(1).eval(0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            CauchySignal(0)


class TestSampledSignal:
    def test_poisson_kernel_is_shifted_cauchy(self):
        # analytic-signal transform of the Poisson kernel: residue calculus
        # collapses it to C_1(tau - i*eps) for Im tau < 0
        eps = 0.5
        t = np.arange(-400.0, 400.0, 0.05)
        g0 = eps / (np.pi * (t**2 + eps**2))
        sig = SampledSignal(t=t, g0=g0)
        taus = np.array([0.3 - 1.0j, -1.2 - 0.7j, 2.0 - 2.5j])
        expect = CauchySignal(1).eval(taus - 1j * eps)
        got = sig.eval(taus)
        assert np.abs(got - expect).max() < 2e-3 * np.abs(expect).min()

    def test_derivatives_differentiate_kernel(self):
        eps = 0.5
        t = np.arange(-400.0, 400.0, 0.05)
        sig = SampledSignal(t=t, g0=eps / (np.pi * (t**2 + eps**2)))
        tau = 0.4 - 1.1j
        expect = CauchySignal(1).eval(tau - 1j * eps, 1)
        assert abs(sig.eval(tau, 1) - expect) < 5e-3 * abs(expect)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            SampledSignal(t=t, g0=np.exp(-t**2))

    def test_rejects_nondecaying(self):
        t = np.linspace(-1, 1, 64)
        with pytest.raises(QuadratureDivergenceError):
            SampledSignal(t=t, g0=np.cos(t))

    def test_rejects_underresolved_offset(self):
        t = np.linspace(-30, 30, 601)  # dt = 0.1
        sig = SampledSignal(t=t, g0=np.exp(-t**2))
        with pytest.raises(UnderResolvedSignalError):
            sig.eval(0.0 - 0.2j)
        sig.eval(0.0 - 0.5j)  # fine above 4*dt

    def test_from_csv(self, tmp_path):
        t = np.linspace(-20, 20, 801)
        g0 = np.exp(-(t**2))
        path = tmp_path / "sig.csv"
        np.savetxt(path, np.column_stack([t, g0]), delimiter=",")
        sig = SampledSignal.from_csv(path)
        assert sig.dt == pytest.approx(0.05)
        assert abs(sig.eval(0.0 - 1.0j)) > 0


class TestEvalDerivs:
    @pytest.fixture
    def sig(self):
        t = np.linspace(-15.0, 15.0, 401)
        return SampledSignal(t=t, g0=(1.0 - t) * np.exp(-((t - 0.3) ** 2)))

    @pytest.mark.parametrize("shape", [(), (7, 5), (3 * KERNEL_CHUNK // 401 + 11,)])
    def test_matches_trapezoid_reference(self, sig, rng, shape):
        # the last shape spans four kernel chunks, the last one partial
        tau = rng.uniform(-3, 3, shape) - 1j * rng.uniform(0.4, 2.5, shape)
        derivs = eval_derivs(sig, tau, 2)
        assert len(derivs) == 3
        for k, got in enumerate(derivs):
            ref = trapezoid_reference(sig, tau, k)
            assert np.shape(got) == shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(sig.eval(tau, k), got)

    def test_lower_half_plane_and_outside_grid(self, sig):
        # Im tau > 0, and a small offset where Re tau lies beyond the samples
        tau = np.array([0.5 + 1.0j, -2.0 + 0.7j, 40.0 - 0.01j])
        for k, got in enumerate(eval_derivs(sig, tau, 2)):
            ref = trapezoid_reference(sig, tau, k)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_peak_memory_bounded(self):
        # one dense 4000 x 2001 complex kernel alone is 128 MB
        t = np.linspace(-20.0, 20.0, 2001)
        sig = SampledSignal(t=t, g0=-t * np.exp(-(t**2) / 2))
        tau = np.linspace(-2.0, 2.0, 4000) - 1.0j
        tracemalloc.start()
        try:
            sig.eval(tau, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_repeated_arguments_take_the_bits_of_their_value(self, sig, rng):
        # a ring repeats each tau -+ sigma; a +-0.0 imaginary pair beyond the grid is among the values
        values = rng.uniform(-3, 3, 30) - 1j * rng.uniform(0.4, 2.5, 30)
        values = np.append(values, [complex(40.0, 0.0), complex(40.0, -0.0)])
        idx = rng.integers(0, values.size, (25, 40))
        tau = values[idx]
        derivs = eval_derivs(sig, tau, 2)
        for i, v in enumerate(values):
            alone = eval_derivs(sig, np.array([v]), 2)
            for got, ref in zip(derivs, alone):
                assert got.shape == tau.shape
                assert (got[idx == i].view(np.int64).reshape(-1, 2) == ref.view(np.int64)).all()

    def test_kernel_built_once_per_distinct_value(self):
        # 4000 entries, two values: a kernel per entry would trace two 262 x 2001 blocks (16 MB)
        t = np.linspace(-20.0, 20.0, 2001)
        sig = SampledSignal(t=t, g0=-t * np.exp(-(t**2) / 2))
        tau = np.resize(np.array([0.3 - 1.0j, -0.7 - 1.2j]), (40, 100))
        tracemalloc.start()
        try:
            sig._derivs(tau, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refusal_sees_repeated_offenders(self, sig):
        # dt = 0.075: Im tau = -0.1 is under-resolved, and it only ever appears repeated
        tau = np.array([[0.5 - 1.0j, 0.2 - 0.1j], [0.2 - 0.1j, 0.5 - 1.0j]])
        with pytest.raises(UnderResolvedSignalError, match="4\\*dt"):
            eval_derivs(sig, tau, 2)

    @pytest.mark.parametrize("sig", [CauchySignal(3)], ids=["cauchy"])
    def test_closed_form_drives_unchanged(self, sig, rng, cfg):
        s = rng.uniform(0.3, 2, 40) * np.exp(1j * rng.uniform(0, TWO_PI, 40))
        tau = rng.uniform(-2, 2, 40) - 1j * rng.uniform(0.5, 2, 40)
        assert all(np.array_equal(g, sig.eval(tau, k)) for k, g in enumerate(eval_derivs(sig, tau, 2)))
        expect = []
        for k in (0, 1, 2):
            em, ep = sig.eval(tau - s, k), sig.eval(tau + s, k)
            expect += [em + ep, em - ep]
        assert all(np.array_equal(a, b) for a, b in zip(mixed_signals(sig, s, tau), expect))
        g, g1, g2 = (sig.eval(tau - s, k) for k in (0, 1, 2))
        s1, s2, s3 = s, s**2, s**3
        L, M, N = lmn(sig, s, tau)
        assert np.array_equal(L, g2 / s1 + 3.0 * g1 / s2 + 3.0 * g / s3)
        assert np.array_equal(M, g2 / s1 + g1 / s2 + g / s3)
        assert np.array_equal(N, g2 / s1 + g1 / s2)
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=sig)
        r = rng.uniform(-2, 2, (40, 3))
        t = rng.uniform(0, 3, 40)
        sigma = branch(w.cut, r, cfg).sigma
        interior = (sig.eval(w.tau(t) - sigma, 0) - sig.eval(w.tau(t) + sigma, 0)) / sigma
        assert np.array_equal(interior_psi(w, r, t), interior)

    def test_eval_only_signal(self, rng):
        # a drive that provides nothing but eval(tau, order)
        class EvalOnly:
            def eval(self, tau, order=0):
                return CauchySignal(2).eval(tau, order)

        s = rng.uniform(0.3, 2, 30) * np.exp(1j * rng.uniform(0, TWO_PI, 30))
        tau = rng.uniform(-2, 2, 30) - 1j * rng.uniform(0.5, 2, 30)
        for got, expect in ((tilde_lmn(EvalOnly(), s, tau), tilde_lmn(CauchySignal(2), s, tau)),
                            (lmn(EvalOnly(), s, tau), lmn(CauchySignal(2), s, tau))):
            assert all(np.array_equal(a, b) for a, b in zip(got, expect))


class TestSpectrum:
    def test_point_values(self):
        assert spectrum_cauchy(1, 1.0, 1.0) == pytest.approx(np.exp(-1))
        assert spectrum_cauchy(2, -3.0, 1.0) == 0.0
        assert spectrum_cauchy(1, 0.0, 1.0) == pytest.approx(0.5)  # step at 0 -> 1/2

    def test_argmax_and_center(self):
        om = np.linspace(0.01, 4, 4000)
        vals = spectrum_cauchy(3, om, 2.0)
        assert om[np.argmax(vals)] == pytest.approx((3 - 1) / 2.0, abs=2e-3)
        assert spectral_profile(3, 2.0).center == pytest.approx(1.5)

    def test_profile_values(self):
        assert spectral_profile(4, 2.0) == pytest.approx((2.0, 1.0))
        assert spectral_profile(1, 1.0) == pytest.approx((1.0, 1.0))
        assert spectral_profile(9, 3.0) == pytest.approx((3.0, 1.0))

    def test_numeric_transform_matches(self):
        b = 1.0
        for n in (1, 2):
            sig = CauchySignal(n)
            om = np.linspace(0.0, 10.0 / b, 11)
            ft = quadpack_fourier(lambda t: sig.eval(np.asarray(t) - 1j * b), om)
            exact = spectrum_cauchy(n, om, b)
            assert np.abs(ft - exact).max() < 1e-6 * np.abs(exact).max()

    def test_low_pass_energy(self):
        # Cauchy(1): energy above omega = 10/b is negligible
        b = 1.0
        om_lo = np.linspace(0.0, 10.0, 400)
        om_hi = np.linspace(10.0, 40.0, 400)
        lo = np.trapezoid(np.abs(cauchy_series_transform({1: 1.0}, 1j * b, om_lo)) ** 2, om_lo)
        hi = np.trapezoid(np.abs(cauchy_series_transform({1: 1.0}, 1j * b, om_hi)) ** 2, om_hi)
        assert hi / (hi + lo) < 1e-3

    def test_analyticity_cauchy_riemann(self, rng):
        # residual of d/d(conj tau) vanishes on each half-plane
        sig = CauchySignal(3)
        for half in (1.0, -1.0):
            tau = rng.uniform(0.5, 2, 100) - 1j * half * rng.uniform(0.5, 2, 100)
            h = 1e-5 * np.abs(tau)
            d_re = (sig.eval(tau + h) - sig.eval(tau - h)) / (2 * h)
            d_im = (sig.eval(tau + 1j * h) - sig.eval(tau - 1j * h)) / (2 * h)
            res = np.abs(d_re + 1j * d_im) / np.abs(sig.eval(tau) / np.abs(tau))
            assert res.max() < 1e-8


class TestBeamDesign:
    def test_pulse_duration(self):
        assert pulse_duration(0.0, 1.0, 1.5) == pytest.approx(0.5)
        assert pulse_duration(np.pi, 1.0, 1.5) == pytest.approx(2.5)
        assert pulse_duration(np.pi / 2, 1.0, 1.5) == pytest.approx(1.5)

    def test_peak_strength(self):
        assert peak_strength(0.0, 1, 1.0, 1.5) == pytest.approx(1 / (TWO_PI * 0.5))
        assert peak_strength(0.0, 3, 1.0, 1.5) == pytest.approx(2 / (TWO_PI * 0.125))
        ratio = peak_strength(0.0, 2, 1.0, 1.5) / peak_strength(np.pi, 2, 1.0, 1.5)
        assert ratio == pytest.approx(25.0)

    def test_diffraction_angle_against_solver(self):
        from scipy.optimize import brentq

        beta, n, a, b = 1.0, 1, 1.0, 1.01
        rhs = (np.exp(beta / n) - 1) * (b - a) / a
        oracle = brentq(lambda th: 2 * np.sin(th / 2) ** 2 - rhs, 0.0, np.pi, xtol=1e-14)
        assert diffraction_angle(beta, n, a, b) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.18564, abs=1e-4)

    def test_diffraction_angle_limits(self):
        assert diffraction_angle(1e-9, 2, 1.0, 1.5) < 1e-4
        # large n: theta^2/2 -> beta*(b-a)/(n*a)
        th = diffraction_angle(1.0, 400, 1.0, 1.5)
        assert th**2 / 2 == pytest.approx(0.5 / 400, rel=2e-3)

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            diffraction_angle(5.0, 1, 1.0, 4.0)


class TestMixedSignals:
    def test_zero_sigma(self):
        sig = CauchySignal(1)
        tau = 1.0 - 1.5j
        gp, gm, *_ = mixed_signals(sig, 0.0, tau)
        assert gm == 0.0
        assert gp == pytest.approx(2 * sig.eval(tau))

    def test_impulse_closed_forms(self, rng):
        sig = CauchySignal(1)
        s = rng.uniform(0.3, 2, 50) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        tau = rng.uniform(0.3, 2, 50) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        keep = np.abs(tau**2 - s**2) > 0.2 * (np.abs(tau) ** 2 + np.abs(s) ** 2)
        s, tau = s[keep], tau[keep]
        gp, gm, *_ = mixed_signals(sig, s, tau)
        u = tau**2 - s**2
        assert np.abs(gp - tau / (1j * np.pi * u)).max() < 1e-13 * np.abs(gp).max()
        assert np.abs(gm - s / (1j * np.pi * u)).max() < 1e-13 * np.abs(gm).max()

    def test_parity(self, rng):
        sig = CauchySignal(2)
        s = rng.uniform(0.3, 2, 200) * np.exp(1j * rng.uniform(0, TWO_PI, 200))
        tau = 2.0 - 1.8j
        a = mixed_signals(sig, s, tau)
        b = mixed_signals(sig, -s, tau)
        for k in (0, 2, 4):  # even members
            assert np.abs(a[k] - b[k]).max() < 1e-13 * np.abs(a[k]).max()
        for k in (1, 3, 5):  # odd members
            assert np.abs(a[k] + b[k]).max() < 1e-13 * np.abs(a[k]).max()


def recovered(sig, t, b):
    """g(t - i*b) - g(t + i*b): the boundary values of a sampled drive, which tend to g0(t) as b -> 0+."""
    return sig.eval(t - 1j * b) - sig.eval(t + 1j * b)


class TestBoundaryRecovery:
    def test_gaussian(self):
        # the smoothing bias at offset b is 2b/sqrt(pi) exactly (heavy
        # Poisson tails make it first order); the recovery must hit it
        t = np.arange(-12.0, 12.0, 1e-4)
        sig = SampledSignal(t=t, g0=np.exp(-t**2))
        for b in (1e-2, 1e-3):
            got = recovered(sig, 0.0, b)
            bias = 2 * b / np.sqrt(np.pi)
            assert abs(got - 1.0) == pytest.approx(bias, rel=0.05)
        assert abs(recovered(sig, 0.0, 1e-3) - 1.0) < 1.2e-3

    def test_vanishing_window(self):
        # g0 supported away from t = 0: recovery at 0 tends to zero
        t = np.arange(-40.0, 40.0, 5e-3)
        g0 = np.exp(-((np.abs(t) - 10.0) ** 2)) * (np.abs(t) > 5)
        sig = SampledSignal(t=t, g0=g0)
        assert abs(recovered(sig, 0.0, 0.05)) < 5e-3

    def test_poisson_closed_form(self):
        eps = 0.5
        t = np.arange(-400.0, 400.0, 0.05)
        sig = SampledSignal(t=t, g0=eps / (np.pi * (t**2 + eps**2)))
        b = 0.3
        got = recovered(sig, 0.0, b)
        expect = CauchySignal(1).eval(-1j * (b + eps)) - CauchySignal(1).eval(1j * (b + eps))
        assert abs(got - expect) < 2e-3 * abs(expect)
