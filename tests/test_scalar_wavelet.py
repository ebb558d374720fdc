import numpy as np
import pytest

from emwavelets import (
    CauchySignal,
    FlatDisk,
    LowerSpheroid,
    OnBranchCircleError,
    OnCutError,
    ScalarWavelet,
    SmoothSpheroid,
    TooCloseToCutError,
    UpperSpheroid,
    branch,
    complex_distance_principal,
    interior_psi,
    mixed_signals,
    psi,
    spheroid_point,
    wave_residual,
)
from emwavelets.harness.spectral import cauchy_series_transform


@pytest.fixture
def wavelet(cfg):
    return ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))


class TestPsi:
    def test_far_zone_on_axis(self, wavelet):
        R = 200.0
        val = psi(wavelet, np.array([0.0, 0.0, R]), R)
        # on axis sigma = R - i exactly, so the value is C_1(-i(b-a))/sigma
        expect = CauchySignal(1).eval(-1j * 0.5) / (R - 1j)
        assert val == pytest.approx(expect, rel=1e-14)
        assert abs(val) == pytest.approx(1 / (np.pi * R), rel=2 / R)

    def test_advanced_branch(self, cfg):
        # inside the upper lens the flipped branch turns retarded into advanced
        w = ScalarWavelet(cut=UpperSpheroid(0.1), cfg=cfg, sig=CauchySignal(1))
        pt = np.array([0.0, 0.0, 0.05])
        t = 1.7
        sigma0, _, _ = complex_distance_principal(pt, cfg)
        tau = t - 1j * cfg.b
        expect = -CauchySignal(1).eval(tau + sigma0) / sigma0
        assert psi(w, pt, t) == pytest.approx(expect, rel=1e-13)

    def test_discontinuous_across_cut(self, wavelet, cfg):
        rho = 0.6
        up = psi(wavelet, np.array([rho, 0.0, 1e-7]), 1.4)
        dn = psi(wavelet, np.array([rho, 0.0, -1e-7]), 1.4)
        assert abs(up - dn) > 0.05 * abs(up)

    def test_branch_circle_guard(self, wavelet):
        with pytest.raises(OnBranchCircleError):
            psi(wavelet, np.array([1.0, 0.0, 0.0]), 1.0)


class TestSigmaDerivatives:
    def test_matches_finite_difference(self, cfg):
        # differentiate psi(sigma, tau) = g(tau-sigma)/sigma in the sigma plane
        sig = CauchySignal(1)
        sigma = 1.0 - 0.5j
        tau = 2.0 - 2.0j
        f = lambda s: sig.eval(tau - s) / s
        h = 1e-6
        fd1 = (f(sigma + h) - f(sigma - h)) / (2 * h)
        analytic = -sig.eval(tau - sigma, 1) / sigma - sig.eval(tau - sigma) / sigma**2
        assert abs(fd1 - analytic) < 1e-7 * abs(analytic)


class TestInterior:
    def test_even_in_sigma_across_disk(self, wavelet):
        up = interior_psi(wavelet, np.array([0.5, 0.2, 1e-8]), 1.3)
        dn = interior_psi(wavelet, np.array([0.5, 0.2, -1e-8]), 1.3)
        assert abs(up - dn) < 1e-7 * abs(up)

    def test_small_sigma_limit(self, wavelet, cfg):
        # interior combination tends to -2*gdot(tau) on the branch circle
        pt = np.array([1.0 + 1e-7, 0.0, 0.0])
        t = 1.1
        got = interior_psi(wavelet, pt, t)
        expect = -2.0 * wavelet.sig.eval(wavelet.tau(t), 1)
        assert got == pytest.approx(expect, rel=1e-5)

    @pytest.mark.parametrize("cut", [
        UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005),
    ], ids=["upper", "lower", "smooth"])
    def test_defined_on_the_wavelets_cut(self, cut, wavelet, cfg):
        # even in sigma, so the same on every cut, and on the membrane of the wavelet's own cut too
        if isinstance(cut, (UpperSpheroid, LowerSpheroid)):
            pt = spheroid_point(0.1, cut.side * 0.5, 0.3, cfg)
        else:
            pt = spheroid_point(cut.cut_function(0.5), 0.5, 0.3, cfg)
        with pytest.raises(OnCutError):
            psi(ScalarWavelet(cut=cut, cfg=cfg, sig=wavelet.sig), pt, 1.3)
        got = interior_psi(ScalarWavelet(cut=cut, cfg=cfg, sig=wavelet.sig), pt, 1.3)
        assert got == interior_psi(wavelet, pt, 1.3)

    def test_matches_mixed_signal(self, wavelet, rng):
        pts = rng.uniform(-2, 2, (20, 3))
        pts = pts[np.linalg.norm(pts, axis=-1) > 1.3]
        t = 1.9
        sigma = branch(wavelet.cut, pts, wavelet.cfg).sigma
        _, gm, *_ = mixed_signals(wavelet.sig, sigma, wavelet.tau(t))
        assert np.abs(interior_psi(wavelet, pts, t) - gm / sigma).max() < 1e-14


class TestWaveResidual:
    def test_second_order_convergence(self, wavelet):
        pt = np.array([1.4, 0.5, 0.9])
        r1 = abs(wave_residual(wavelet, pt, 2.0, h=1e-2, order=2))
        r2 = abs(wave_residual(wavelet, pt, 2.0, h=5e-3, order=2))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_interior_sourceless(self, wavelet):
        # the symmetrized combination passes the residual test even inside
        pt = np.array([0.3, 0.1, 0.02])
        r1 = abs(wave_residual(wavelet, pt, 1.2, h=2e-3, order=2, interior=True))
        r2 = abs(wave_residual(wavelet, pt, 1.2, h=1e-3, order=2, interior=True))
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_point_source_analogue(self):
        # real-source sanity: box(g(t-r)/r) residual explodes only near r = 0
        from emwavelets.harness.fd import dalembertian

        g = CauchySignal(2)
        f = lambda rr, tt: g.eval((tt - np.linalg.norm(rr, axis=-1)) - 1.5j) / np.linalg.norm(
            rr, axis=-1
        )
        far = abs(dalembertian(f, np.array([2.0, 0.0, 0.0]), 1.0, 1e-3))
        near = abs(dalembertian(f, np.array([0.02, 0.0, 0.0]), 1.0, 1e-3))
        assert far < 1e-5
        assert near > 1e3 * far

    def test_refuses_near_cut(self, wavelet):
        with pytest.raises(TooCloseToCutError):
            wave_residual(wavelet, np.array([0.5, 0.0, 1e-4]), 1.5, h=1e-3)


class TestSpectralOneSidedness:
    def test_far_point_positive_frequencies_only(self, wavelet, cfg):
        r = 40.0 * np.array([0.3, 0.0, np.sqrt(1 - 0.09)])
        sigma, _, q = complex_distance_principal(r, cfg)
        z_c = 1j * cfg.b + sigma
        scale = cfg.b - q
        om = np.linspace(0.05 / scale, 12.0 / scale, 80)
        pos = cauchy_series_transform({1: 1.0}, z_c, om)
        neg = cauchy_series_transform({1: 1.0}, z_c, -om[::-1])
        energy = lambda om, values: np.trapezoid(np.abs(values) ** 2, om)
        assert energy(-om[::-1], neg) / energy(om, pos) < 1e-6
