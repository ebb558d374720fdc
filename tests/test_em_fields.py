import warnings

import numpy as np
import pytest

from emwavelets import (
    CauchySignal,
    FlatDisk,
    LowerSpheroid,
    OnCutError,
    PolarizationVector,
    ScalarWavelet,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    cut_sign,
    far_field,
    field,
    field_curl_oracle,
    four_potential,
    helicity_residual,
    interior_field,
    joint_field,
    lmn,
    lorenz_residual,
    poynting_energy_far,
    psi,
)
from emwavelets.em_fields import far_point_series
from emwavelets.harness import fd
from emwavelets.harness.spectral import cauchy_series_transform, energy_split
from tests.test_signals import fd_derivative

POL_X = np.array([1.0, 0.0, 0.0], dtype=complex)


@pytest.fixture
def wavelet(cfg):
    return ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))


def off_cut_points(rng, cfg, n, clearance=0.3, box=2.5):
    pts = rng.uniform(-box, box, (4 * n, 3))
    pts = pts[FlatDisk().clearance(pts, cfg) > clearance]
    return pts[:n]


class TestLMN:
    def test_algebraic_relations(self, rng):
        sig = CauchySignal(2)
        s = rng.uniform(0.5, 2, 100) * np.exp(1j * rng.uniform(-1.0, 1.0, 100))
        tau = 2.2 - 1.7j
        L, M, N = lmn(sig, s, tau)
        g = sig.eval(tau - s)
        g1 = sig.eval(tau - s, 1)
        assert np.abs(N - (M - g / s**3)).max() < 1e-14 * np.abs(N).max()
        assert np.abs((L - M) - (2 * g1 / s**2 + 2 * g / s**3)).max() < 1e-13 * np.abs(L).max()

    def test_far_zone_collapse(self):
        sig = CauchySignal(1)
        s = 300.0 - 0.8j
        tau = 300.0 - 1.5j
        L, M, N = lmn(sig, s, tau)
        lead = sig.eval(tau - s, 2) / s
        for x in (L, M, N):
            assert x == pytest.approx(lead, rel=2e-2)

    def test_matches_derivative_oracle(self):
        # assemble L, M, N from finite-difference derivatives of g
        sig = CauchySignal(1)
        s, tau = 1.0 - 0.5j, 2.0 - 2.0j
        g = sig.eval(tau - s)
        g1 = fd_derivative(lambda x: sig.eval(x), tau - s, 1e-2)
        g2 = fd_derivative(lambda x: sig.eval(x, 1), tau - s, 1e-2)
        L, M, N = lmn(sig, s, tau)
        assert L == pytest.approx(g2 / s + 3 * g1 / s**2 + 3 * g / s**3, rel=1e-10)
        assert M == pytest.approx(g2 / s + g1 / s**2 + g / s**3, rel=1e-10)
        assert N == pytest.approx(g2 / s + g1 / s**2, rel=1e-10)


class TestField:
    def test_oracle_equivalence(self, wavelet, cfg, rng):
        pts = off_cut_points(rng, cfg, 25)
        t = 2.0
        F = field(wavelet, POL_X, pts, t).F
        Fo = field_curl_oracle(wavelet, POL_X, pts, t, h=1e-4)
        rel = np.linalg.norm(F - Fo, axis=-1) / np.linalg.norm(F, axis=-1)
        assert rel.max() < 1e-5

    def test_oracle_convergence_order(self, wavelet):
        pt = np.array([1.3, 0.4, 0.8])
        t = 2.0
        F = field(wavelet, POL_X, pt, t).F
        e1 = np.linalg.norm(field_curl_oracle(wavelet, POL_X, pt, t, h=2e-3) - F)
        e2 = np.linalg.norm(field_curl_oracle(wavelet, POL_X, pt, t, h=1e-3) - F)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_linear_in_polarization(self, wavelet, rng):
        pts = off_cut_points(rng, wavelet.cfg, 10)
        p1 = np.array([1.0, 0.5j, 0.0])
        p2 = np.array([0.0, 1.0, -0.3j])
        t = 1.7
        lhs = field(wavelet, 2.0 * p1 + 1j * p2, pts, t).F
        rhs = 2.0 * field(wavelet, p1, pts, t).F + 1j * field(wavelet, p2, pts, t).F
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(lhs).max()

    def test_d_b_decomposition(self, wavelet, rng):
        pts = off_cut_points(rng, wavelet.cfg, 5)
        sample = field(wavelet, POL_X, pts, 1.5)
        assert np.allclose(sample.D + 1j * sample.B, sample.F)

    def test_parallel_polarization_degenerate(self, wavelet, cfg):
        # pol complex-proportional to u at a point: the cross term dies and
        # F collapses to (L - M)*pol there
        from emwavelets.geometry import frame

        r = np.array([1.2, -0.5, 0.9])
        t = 1.8
        fr = frame(r, cfg)
        pol = 0.7 * fr.u
        F = field(wavelet, pol, r, t).F
        L, M, _ = lmn(wavelet.sig, fr.sigma, wavelet.tau(t))
        assert np.abs(F - (L - M) * pol).max() < 1e-13 * np.abs(F).max()
        Fo = field_curl_oracle(wavelet, pol, r, t, h=1e-4)
        assert np.linalg.norm(F - Fo) < 1e-5 * np.linalg.norm(F)

    def test_real_imag_polarization_swap_roles(self, wavelet, rng):
        # i*pol swaps electric and magnetic parts up to sign
        pts = off_cut_points(rng, wavelet.cfg, 5)
        t = 1.5
        Fe = field(wavelet, POL_X, pts, t).F
        Fm = field(wavelet, 1j * POL_X, pts, t).F
        assert np.abs(Fm - 1j * Fe).max() < 1e-14 * np.abs(Fe).max()


class TestFarField:
    def test_asymptotic_formula(self, wavelet, cfg):
        R = 300.0
        theta = 0.5
        r = R * np.array([np.sin(theta), 0.0, np.cos(theta)])
        exact = field(wavelet, POL_X, r, R).F
        asym = far_field(wavelet, POL_X, r, R)
        assert np.linalg.norm(exact - asym) < 5.0 / R * np.linalg.norm(exact)

    def test_transverse(self, wavelet):
        R = 500.0
        r = R * np.array([0.4, 0.1, np.sqrt(1 - 0.17)])
        Ff = far_field(wavelet, POL_X, r, R)
        e_r = r / R
        assert abs(np.sum(e_r * Ff)) < 1e-12 * np.linalg.norm(Ff)

    def test_peak_at_retarded_time(self, wavelet):
        R = 100.0
        r = np.array([0.0, 0.0, R])
        ts = np.linspace(R - 3, R + 3, 601)
        vals = np.abs([np.linalg.norm(far_field(wavelet, POL_X, r, t)) for t in ts])
        assert abs(ts[np.argmax(vals)] - R) < 0.05

    def test_helicity_residual_decay(self, wavelet, cfg):
        dirv = np.array([np.sin(0.4), 0.0, np.cos(0.4)])
        h10 = helicity_residual(wavelet, POL_X, 10.0 * dirv, 10.0)
        h100 = helicity_residual(wavelet, POL_X, 100.0 * dirv, 100.0)
        assert h100 <= 0.15 * h10

    def test_spectral_one_sidedness(self, wavelet, cfg):
        # every field component at a far point is one-sided in frequency
        r = 30.0 * np.array([0.3, 0.2, np.sqrt(1 - 0.13)])
        z_c, coeffs = far_point_series(wavelet, POL_X, r)
        scale = float(np.imag(z_c))  # b - q > 0: pole in the upper half-plane
        assert scale > 0
        om = np.linspace(0.05 / scale, 12.0 / scale, 60)
        for comp in range(3):
            cdict = {n: c[comp] for n, c in coeffs.items()}
            if max(abs(v) for v in cdict.values()) < 1e-14:
                continue  # polarization kills this component identically
            pos = cauchy_series_transform(cdict, z_c, om)
            neg = cauchy_series_transform(cdict, z_c, -om[::-1])
            e_neg, _ = energy_split(-om[::-1], neg)
            _, e_pos = energy_split(om, pos)
            assert e_neg / e_pos < 1e-6

    def test_series_decomposition_matches_field(self, wavelet):
        r = np.array([3.0, -1.0, 2.5])
        t = 4.2
        z_c, coeffs = far_point_series(wavelet, POL_X, r)
        series = sum(c * CauchySignal(n).eval(t - z_c) for n, c in coeffs.items())
        assert np.abs(series - field(wavelet, POL_X, r, t).F).max() < 1e-14


class TestPotentials:
    def test_lorenz_residual_order(self, wavelet, rng):
        pts = off_cut_points(rng, wavelet.cfg, 10)
        r1 = lorenz_residual(wavelet, POL_X, pts, 1.8, h=2e-3)
        r2 = lorenz_residual(wavelet, POL_X, pts, 1.8, h=1e-3)
        ratio = np.mean(r1 / r2)
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_b_field_from_curl_a(self, wavelet, rng):
        pts = off_cut_points(rng, wavelet.cfg, 10)
        t = 1.6
        B_num = fd.curl(lambda rr, tt: four_potential(wavelet, POL_X, rr, tt)[1], pts, t, 1e-4)
        B_exact = np.imag(field(wavelet, POL_X, pts, t).F)
        assert np.abs(B_num - B_exact).max() < 1e-5 * np.abs(B_exact).max()

    def test_slow_pulse_dominated_by_magnetic_curl(self, cfg):
        # with a long pulse (large b) the dZ_e/dt part of A is subdominant
        slow = SourceConfig(a=cfg.a, b=60.0)
        w = ScalarWavelet(cut=FlatDisk(), cfg=slow, sig=CauchySignal(1))
        pol = np.array([1.0 + 1.0j, 0.0, 0.0])
        pt = np.array([1.5, 0.3, 0.9])
        t = 2.0
        sigma = w.sigma(pt)
        g1 = w.sig.eval(w.tau(t) - sigma, 1)
        dze_dt = np.linalg.norm(np.real(g1 / sigma * pol))
        _, A = four_potential(w, pol, pt, t)
        assert dze_dt < 0.1 * np.linalg.norm(A)


class TestInteriorAndJoint:
    def test_interior_even_and_continuous(self, wavelet, rng):
        qs = rng.uniform(0.3, 0.9, 20)
        rho = np.sqrt(1 - qs**2)
        up = np.column_stack([rho, np.zeros(20), np.full(20, 1e-8)])
        dn = np.column_stack([rho, np.zeros(20), np.full(20, -1e-8)])
        t = 1.4
        Fu = interior_field(wavelet, POL_X, up, t)
        Fd = interior_field(wavelet, POL_X, dn, t)
        rel = np.linalg.norm(Fu - Fd, axis=-1) / np.linalg.norm(Fu, axis=-1)
        assert rel.max() < 1e-7

    def test_interior_maxwell_residual(self, wavelet):
        pt = np.array([0.4, 0.1, 0.05])
        t = 1.2
        Ffun = lambda rr, tt: interior_field(wavelet, POL_X, rr, tt)
        r1 = np.linalg.norm(
            fd.time_derivative(Ffun, pt, t, 2e-3) + 1j * fd.curl(Ffun, pt, t, 2e-3)
        )
        r2 = np.linalg.norm(
            fd.time_derivative(Ffun, pt, t, 1e-3) + 1j * fd.curl(Ffun, pt, t, 1e-3)
        )
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    def test_joint_exterior_doubles(self, wavelet):
        pt = np.array([1.5, 0.0, 0.7])
        t = 1.9
        J = joint_field(wavelet, POL_X, pt, t, alpha=0.1)
        assert np.allclose(J, 2.0 * field(wavelet, POL_X, pt, t).F)

    def test_joint_general_interior(self, wavelet, cfg):
        # interior is nu times the symmetric combination; nu = 0 empties it
        pt = np.array([0.3, 0.0, 0.02])
        t = 1.2
        J0 = joint_field(wavelet, POL_X, pt, t, alpha=0.1, mu=2.0, nu=0.0)
        assert np.allclose(J0, 0.0)
        J32 = joint_field(wavelet, POL_X, pt, t, alpha=0.1, mu=0.5, nu=1.5)
        assert np.allclose(J32, 1.5 * interior_field(wavelet, POL_X, pt, t))

    def test_joint_minus_interior_is_jump(self, wavelet, cfg):
        # exterior limit minus interior limit reproduces the surface jump
        from emwavelets.geometry import frame, spheroid_point
        from emwavelets.surface_sources import field_jump

        alpha, qv, phiv, t = 0.1, 0.55, 0.8, 1.4
        base = spheroid_point(alpha, qv, phiv, cfg)
        nhat = frame(base, cfg).e_p
        eps = 1e-7
        for mu in (1.0, 0.4):
            nu = 2.0 - mu
            outside = joint_field(wavelet, POL_X, base + eps * nhat, t, alpha=alpha, mu=mu, nu=nu)
            inside = joint_field(wavelet, POL_X, base - eps * nhat, t, alpha=alpha, mu=mu, nu=nu)
            dF, _, _ = field_jump(wavelet, POL_X, qv, phiv, alpha, t, mu=mu, nu=nu)
            assert np.linalg.norm(outside - inside - dF) < 1e-5 * np.linalg.norm(dF)

    def test_joint_continuity_any_split(self, wavelet):
        up = np.array([0.5, 0.0, 1e-8])
        dn = np.array([0.5, 0.0, -1e-8])
        t = 1.3
        for mu in (0.5, 1.0, 1.7):
            Ju = joint_field(wavelet, POL_X, up, t, alpha=0.1, mu=mu, nu=2 - mu)
            Jd = joint_field(wavelet, POL_X, dn, t, alpha=0.1, mu=mu, nu=2 - mu)
            assert np.linalg.norm(Ju - Jd) < 1e-7 * np.linalg.norm(Ju)

    def test_joint_rejects_bad_split(self, wavelet):
        with pytest.raises(ValueError):
            joint_field(wavelet, POL_X, np.array([1.5, 0.0, 0.7]), 1.0, alpha=0.1, mu=1.5, nu=1.0)

    def test_joint_on_surface_raises(self, wavelet, cfg):
        from emwavelets.geometry import spheroid_point

        pt = spheroid_point(0.1, 0.5, 0.2, cfg)
        with pytest.raises(OnCutError):
            joint_field(wavelet, POL_X, pt, 1.0, alpha=0.1)


class TestPoynting:
    def test_circular_polarization(self):
        e_r = np.array([0.0, 0.0, 1.0])
        F = np.array([1.0, 1.0j, 0.0])  # |F|^2 = 2, helicity eigenstate
        S, E, mismatch = poynting_energy_far(F, e_r)
        assert E == pytest.approx(1.0)
        assert np.allclose(S, e_r)
        assert mismatch < 1e-14

    def test_non_transverse_flagged(self):
        e_r = np.array([0.0, 0.0, 1.0])
        F = np.array([0.0, 1.0, 1.0], dtype=complex)  # radial component present
        _, _, mismatch = poynting_energy_far(F, e_r)
        assert mismatch > 0.5

    def test_far_sample_agreement(self, wavelet):
        R = 200.0
        r = R * np.array([0.3, 0.0, np.sqrt(0.91)])
        F = field(wavelet, POL_X, r, R).F
        _, _, mismatch = poynting_energy_far(F, r / R)
        hel = helicity_residual(wavelet, POL_X, r, R)
        assert mismatch < 4 * hel + 1e-12


class TestPolarizationVector:
    def test_projects_parallel_component(self, cfg):
        with pytest.warns(UserWarning):
            pv = PolarizationVector(np.array([1.0, 0.0, 0.5]), cfg=cfg)
        assert pv.vec[2] == 0.0

    def test_keep_parallel(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pv = PolarizationVector(np.array([1.0, 0.0, 0.5]), cfg=cfg, keep_parallel=True)
        assert pv.vec[2] == 0.5

    def test_rejects_zero(self, cfg):
        with pytest.raises(ValueError):
            PolarizationVector(np.zeros(3), cfg=cfg)

    def test_accepted_by_field(self, wavelet, cfg):
        pv = PolarizationVector(POL_X, cfg=cfg)
        out = field(wavelet, pv, np.array([1.5, 0.0, 0.8]), 1.5)
        assert np.isfinite(out.F).all()


class TestRotationCovariance:
    @pytest.mark.parametrize(
        "cut",
        [FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005)],
        ids=["flat", "upper", "lower", "smooth"],
    )
    def test_arbitrary_axis(self, cut, cfg, rng):
        # rotating the source axis with the field point leaves every scalar
        # unchanged and rotates F, with the polarization rotated too
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        R *= np.sign(np.linalg.det(R))
        cfg_r = SourceConfig(a=R @ cfg.a, b=cfg.b)
        pts = rng.uniform(-2, 2, (3000, 3))
        pts = pts[cut.clearance(pts, cfg) >= 1e-3 * cfg.a_mag]
        rot = pts @ R.T
        pol = np.array([1.0, 0.5j, 0.2 - 0.3j])
        w = ScalarWavelet(cut=cut, cfg=cfg, sig=CauchySignal(2))
        w_r = ScalarWavelet(cut=cut, cfg=cfg_r, sig=CauchySignal(2))
        c, c_r = cut.clearance(pts, cfg), cut.clearance(rot, cfg_r)
        assert np.all(np.abs(c_r - c) <= 1e-12 * c)
        assert np.array_equal(cut_sign(cut, rot, cfg_r), cut_sign(cut, pts, cfg))
        v, v_r = psi(w, pts, 1.7), psi(w_r, rot, 1.7)
        assert np.all(np.abs(v_r - v) <= 1e-12 * np.abs(v))
        F = field(w, pol, pts, 1.7).F @ R.T
        F_r = field(w_r, R @ pol, rot, 1.7).F
        assert np.all(np.linalg.norm(F_r - F, axis=-1) <= 1e-12 * np.linalg.norm(F, axis=-1))
