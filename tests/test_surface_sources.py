import math

import numpy as np
import pytest

from emwavelets import (
    CauchySignal,
    FlatDisk,
    LightConePoleError,
    NearRimError,
    OnBranchCircleError,
    RimSingularityError,
    ScalarWavelet,
    SourceConfig,
    SubRadiatingError,
    coulomb_disk_sources,
    coulomb_spheroid_sources,
    effective_aperture,
    impulse_surface_sources,
    impulse_tilde_lmn,
    joint_field,
    surface_sources_approx,
    surface_sources_exact,
    tilde_lmn,
)
from emwavelets.em_fields import assemble, lmn
from emwavelets.geometry import frame, spheroid_point
from emwavelets.harness.fd import bandpass_via_impulse
from emwavelets.signals import DrivingSignal, SampledSignal
from emwavelets.surface_sources import _surface_geometry, ring_jump

POL_X = np.array([1.0, 0.0, 0.0], dtype=complex)
TWO_PI = 2 * np.pi


@pytest.fixture
def wavelet(cfg):
    return ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))


class DenseSampled(DrivingSignal):
    """A sampled drive's trapezoid sum, evaluated entry by entry over a dense kernel."""

    def __init__(self, sig):
        self.sig = sig

    def eval(self, tau, order=0):
        kern = 1.0 / (np.asarray(tau, dtype=complex)[..., None] - self.sig.t) ** (order + 1)
        coef = (-1) ** order * math.factorial(order) / (2j * np.pi)
        return coef * np.sum(kern * self.sig.weights, axis=-1)


def bits(x):
    """The (real, imaginary) bit patterns of a complex array, along a trailing axis."""
    x = np.asarray(x, dtype=complex)
    return x.view(np.int64).reshape(x.shape + (2,))


def random_sigma_tau(rng, n, lightcone_frac=0.2):
    s = rng.uniform(0.3, 3, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    tau = rng.uniform(0.3, 3, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    keep = np.abs(tau**2 - s**2) > lightcone_frac * (np.abs(tau) ** 2 + np.abs(s) ** 2)
    return s[keep], tau[keep]


class TestTildeLMN:
    def test_l_minus_m(self, rng):
        sig = CauchySignal(2)
        s, tau = random_sigma_tau(rng, 200)
        Lt, Mt, Nt = tilde_lmn(sig, s, tau)
        _, gm, _, gm1, _, _ = __import__("emwavelets").mixed_signals(sig, s, tau)
        gp = sig.eval(tau - s) + sig.eval(tau + s)
        expect = 2 * gm1 / s**2 + 2 * gp / s**3
        assert np.abs((Lt - Mt) - expect).max() < 1e-13 * np.abs(Lt).max()

    def test_branch_pair_assembly(self, rng):
        # tilde coefficients are L(sigma)-L(-sigma), M(sigma)-M(-sigma), N(sigma)+N(-sigma)
        sig = CauchySignal(3)
        s, tau = random_sigma_tau(rng, 200)
        Lt, Mt, Nt = tilde_lmn(sig, s, tau)
        Lp, Mp, Np = lmn(sig, s, tau)
        Lm, Mm, Nm = lmn(sig, -s, tau)
        assert np.abs(Lt - (Lp - Lm)).max() < 1e-12 * np.abs(Lt).max()
        assert np.abs(Mt - (Mp - Mm)).max() < 1e-12 * np.abs(Mt).max()
        assert np.abs(Nt - (Np + Nm)).max() < 1e-12 * np.abs(Nt).max()

    def test_lightcone_pole_raises(self):
        with pytest.raises(LightConePoleError):
            tilde_lmn(CauchySignal(1), 1.0 - 0.5j, 1.0 - 0.5j)

    def test_one_refusal_per_pole(self):
        # lmn and both tilde forms refuse sigma = 0 with one message, both tilde forms tau = +-sigma with another
        sig, s, tau = CauchySignal(1), 1.0 - 0.5j, 2.0 - 1.5j
        for error, calls in [
            (OnBranchCircleError, [lambda: lmn(sig, 0.0, tau), lambda: tilde_lmn(sig, 0.0, tau),
                                   lambda: impulse_tilde_lmn(0.0, tau)]),
            (LightConePoleError, [lambda: tilde_lmn(sig, s, s), lambda: impulse_tilde_lmn(s, -s)]),
        ]:
            messages = set()
            for call in calls:
                with pytest.raises(error) as caught:
                    call()
                messages.add(str(caught.value))
            assert len(messages) == 1, messages


class TestImpulseClosedForms:
    def test_matches_generic(self, rng):
        s, tau = random_sigma_tau(rng, 2000)
        generic = tilde_lmn(CauchySignal(1), s, tau)
        closed = impulse_tilde_lmn(s, tau)
        assert type(generic) is type(closed) is type(lmn(CauchySignal(1), s, tau))
        for x, y in zip(generic, closed):
            assert (np.abs(x - y) / np.abs(y)).max() < 1e-11

    def test_small_sigma_divergence(self):
        # Ntilde grows like 1/sigma^2 toward the branch circle
        tau = 2.0 - 1.0j
        n1 = abs(impulse_tilde_lmn(1e-2, tau).N)
        n2 = abs(impulse_tilde_lmn(1e-3, tau).N)
        assert n2 / n1 == pytest.approx(100.0, rel=0.05)

    def test_large_tau_decay(self):
        s = 0.7 - 0.2j
        for tau in (200.0 - 3j, 400.0 - 3j):
            Lt = impulse_tilde_lmn(s, tau).L
            assert Lt == pytest.approx(3.0 / (1j * np.pi * s**3 * tau), rel=1e-3)

    def test_lightcone_pole_raises(self):
        with pytest.raises(LightConePoleError):
            impulse_tilde_lmn(0.3 + 0.1j, 0.3 + 0.1j)


class TestSurfaceFrame:
    @pytest.mark.parametrize("per_ring_alpha", [False, True], ids=["scalar", "array"])
    def test_sigma_is_alpha_minus_iq_along_each_ring(self, cfg, per_ring_alpha):
        qs = np.linspace(-0.95, 0.95, 9)
        Q, P = np.meshgrid(qs, np.linspace(0.0, TWO_PI, 7, endpoint=False), indexing="ij")
        alpha = np.linspace(0.03, 0.07, 9)[:, None] if per_ring_alpha else 0.05
        _, fr = _surface_geometry(Q, P, alpha, cfg)
        assert fr.sigma.shape == Q.shape
        assert (bits(fr.sigma) == bits(alpha - 1j * Q)).all()
        assert (bits(fr.sigma) == bits(fr.sigma)[:, :1]).all()

    @pytest.mark.parametrize("call", ["sources", "jump", "impulse-jump"])
    def test_negative_alpha_refused(self, wavelet, cfg, call):
        # the jump coefficients refuse it as the surface frame does, for a drive and the impulse
        with pytest.raises(ValueError, match="non-negative"):
            if call == "sources":
                surface_sources_exact(wavelet, POL_X, 0.5, 0.0, -0.05, 1.4)
            else:
                ring_jump(wavelet if call == "jump" else None, 0.5, -0.05, 1.4, cfg)

    @pytest.mark.parametrize("a_vec", [(0.0, 0.0, 1.0), (0.4, -0.65, 1.05)], ids=["axis-z", "oblique"])
    def test_frame_matches_cartesian_frame(self, a_vec, rng):
        cfg = SourceConfig(a=np.array(a_vec), b=2.0)
        a = cfg.a_mag
        # both hemispheres, the rim band |q| < 0.1a included
        mags = np.concatenate([rng.uniform(0.02, 0.1, 40), rng.uniform(0.1, 0.98, 40)]) * a
        qs = mags * rng.choice([-1.0, 1.0], mags.size)
        phis = rng.uniform(0, TWO_PI, mags.size)
        alpha = 0.05 * a
        pos, fr = _surface_geometry(qs, phis, alpha, cfg)
        ref = frame(spheroid_point(alpha, qs, phis, cfg), cfg)
        assert np.array_equal(pos, spheroid_point(alpha, qs, phis, cfg))
        assert (np.abs(fr.sigma - ref.sigma) / np.abs(ref.sigma)).max() <= 1e-12
        for got, want in ((fr.u, ref.u), (fr.e_p, ref.e_p)):
            dev = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
            assert dev.max() <= 1e-12

    def test_sampled_sources_match_per_point_reference(self, cfg):
        # the Cartesian frame and a kernel row per entry: no shared sigma, no deduplication
        t = np.linspace(-20.0, 20.0, 801)
        sig = SampledSignal(t=t, g0=-t * np.exp(-(t**2) / 2))
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=sig)
        Q, P = np.meshgrid(np.linspace(-0.98, 0.98, 12), np.linspace(0.0, TWO_PI, 8, endpoint=False),
                           indexing="ij")
        qs, phis, alpha, t_obs = Q.ravel(), P.ravel(), 0.04, 1.2
        s = surface_sources_exact(w, POL_X, qs, phis, alpha, t_obs, q_min=0.0)
        pos = spheroid_point(alpha, qs, phis, cfg)
        fr = frame(pos, cfg)
        dF = assemble(*tilde_lmn(DenseSampled(sig), fr.sigma, w.tau(t_obs)), fr.u, POL_X)
        j0 = np.sum(fr.e_p * dF, axis=-1)
        j = -1j * np.cross(fr.e_p, dF)
        got = np.column_stack([s.j0, s.j])
        want = np.column_stack([j0, j])
        dev = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert dev.max() <= 1e-12


class TestExactSources:
    def test_sources_carry_joint_field_jump(self, wavelet, cfg, rng):
        # the joint field's exterior limit minus its interior limit, both from one call,
        # is the jump dF the sources carry: j0 = e_p . dF, j = -i e_p x dF
        alpha, t, eps, n = 0.1, 1.4, 1e-7, 20
        qs = rng.uniform(0.25, 0.95, n) * rng.choice([-1.0, 1.0], n)
        phis = rng.uniform(0, TWO_PI, n)
        base = spheroid_point(alpha, qs, phis, cfg)
        e_p = frame(base, cfg).e_p
        F = joint_field(wavelet, POL_X, np.concatenate([base + eps * e_p, base - eps * e_p]), t, alpha=alpha)
        dF = F[:n] - F[n:]
        s = surface_sources_exact(wavelet, POL_X, qs, phis, alpha, t)
        got = np.column_stack([s.j0, s.j])
        want = np.column_stack([np.sum(e_p * dF, axis=-1), -1j * np.cross(e_p, dF)])
        dev = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert dev.max() <= 1e-5

    def test_two_branch_oracle(self, wavelet, cfg, rng):
        # the sources carry dF = F(sigma) - F(-sigma), each branch's field assembled from lmn
        qs = rng.uniform(0.25, 0.95, 50) * rng.choice([-1.0, 1.0], 50)
        phis = rng.uniform(0, TWO_PI, 50)
        t = 1.6
        s = surface_sources_exact(wavelet, POL_X, qs, phis, 0.05, t)
        _, fr = _surface_geometry(qs, phis, 0.05, cfg)
        tau = wavelet.tau(t)
        dF = assemble(*lmn(wavelet.sig, fr.sigma, tau), fr.u, POL_X) - assemble(
            *lmn(wavelet.sig, -fr.sigma, tau), -fr.u, POL_X)
        assert np.abs(s.j0 - np.sum(fr.e_p * dF, axis=-1)).max() < 1e-12 * np.abs(s.j0).max()
        assert np.abs(s.j + 1j * np.cross(fr.e_p, dF)).max() < 1e-12 * np.abs(s.j).max()

    def test_near_rim_refused(self, wavelet):
        with pytest.raises(NearRimError):
            surface_sources_exact(wavelet, POL_X, 0.01, 0.0, 0.05, 1.5)

    def test_tangency(self, wavelet, rng):
        qs = rng.uniform(0.25, 0.95, 100) * rng.choice([-1.0, 1.0], 100)
        phis = rng.uniform(0, TWO_PI, 100)
        s = surface_sources_exact(wavelet, POL_X, qs, phis, 0.05, 1.4)
        fr = frame(s.position, wavelet.cfg)
        tangency = np.abs(np.sum(fr.e_p * s.j, axis=-1))
        assert tangency.max() < 1e-13 * np.abs(s.j).max()

    def test_impulse_assembly_matches(self, wavelet, cfg, rng):
        qs = rng.uniform(0.25, 0.95, 40)
        phis = rng.uniform(0, TWO_PI, 40)
        a_path = surface_sources_exact(wavelet, POL_X, qs, phis, 0.03, 1.5)
        b_path = impulse_surface_sources(POL_X, qs, phis, 0.03, 1.5, cfg)
        assert np.abs(a_path.j0 - b_path.j0).max() < 1e-10 * np.abs(a_path.j0).max()
        assert np.abs(a_path.j - b_path.j).max() < 1e-10 * np.abs(a_path.j).max()

    def test_electric_magnetic_split(self, wavelet):
        s = surface_sources_exact(wavelet, POL_X, 0.5, 0.3, 0.05, 1.4)
        assert s.j0_magnetic == pytest.approx(np.imag(s.j0))
        assert np.allclose(s.j_magnetic, np.imag(s.j))


class TestApproxSources:
    @pytest.mark.parametrize("a_vec", [(0.0, 0.0, 1.0), (0.3, -0.2, 1.4)], ids=["axis-z", "oblique"])
    @pytest.mark.parametrize("pol_kind", ["x", "a_hat", "1,i,1"])
    def test_within_ten_percent(self, a_vec, pol_kind, rng):
        # the polarization's component along a_hat feeds both sources too
        cfg = SourceConfig(a=np.array(a_vec), b=1.5)
        pol = {"x": POL_X, "a_hat": cfg.a_hat.astype(complex), "1,i,1": np.array([1.0, 1j, 1.0])}[pol_kind]
        a = cfg.a_mag
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(4))
        qs = rng.uniform(0.2, 0.98, 300) * rng.choice([-1.0, 1.0], 300) * a
        phis = rng.uniform(0, TWO_PI, 300)
        t = 1.2 * a
        ex = surface_sources_exact(w, pol, qs, phis, 0.01 * a, t, q_min=0.0)
        ap = surface_sources_approx(w, pol, qs, phis, 0.01 * a, t, q_min=0.0)
        dev_j0 = np.abs(ap.j0 - ex.j0) / np.abs(ex.j0).max()
        dev_j = np.linalg.norm(ap.j - ex.j, axis=-1) / np.linalg.norm(ex.j, axis=-1).max()
        assert dev_j0.max() < 0.10
        assert dev_j.max() < 0.10

    def test_azimuthal_polarization_term_selection(self, cfg):
        # with pol along e_phi at the sample point, only the Ntilde term feeds j0
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))
        qv, phiv, alpha, t = 0.6, 0.0, 0.01, 1.3
        pol = np.array([0.0, 1.0, 0.0], dtype=complex)  # e_phi at phi = 0
        s = surface_sources_approx(w, pol, qv, phiv, alpha, t, q_min=0.0)
        sigma = alpha - 1j * qv
        rho = np.sqrt(1 - qv**2)
        Nt = tilde_lmn(w.sig, sigma, w.tau(t)).N
        expect = Nt * sigma * rho / (sigma * abs(sigma))
        assert s.j0 == pytest.approx(expect, rel=1e-12)

    def test_convergence_as_alpha_shrinks(self, cfg):
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(4))
        qs = np.linspace(0.5, 0.9, 20)
        phis = np.full_like(qs, 0.8)
        gaps = []
        for alpha in (0.04, 0.02, 0.01):
            ex = surface_sources_exact(w, POL_X, qs, phis, alpha, 1.2, q_min=0.0)
            ap = surface_sources_approx(w, POL_X, qs, phis, alpha, 1.2, q_min=0.0)
            gaps.append(np.abs(ap.j0 - ex.j0).max() / np.abs(ex.j0).max())
        assert gaps[2] < gaps[1] < gaps[0]

    def test_rim_band_refused(self, cfg):
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))
        with pytest.raises(NearRimError):
            surface_sources_approx(w, POL_X, 0.02, 0.0, 0.01, 1.2)


def driven_by(w, n):
    """The wavelet w re-driven by the band-pass kernel C_n."""
    return ScalarWavelet(cut=w.cut, cfg=w.cfg, sig=CauchySignal(n))


class TestBandpass:
    def test_n1_is_impulse(self, wavelet, cfg, rng):
        qs = rng.uniform(0.3, 0.9, 10)
        phis = rng.uniform(0, TWO_PI, 10)
        direct = surface_sources_exact(driven_by(wavelet, 1), POL_X, qs, phis, 0.03, 1.5)
        via = bandpass_via_impulse(1, wavelet, POL_X, qs, phis, 0.03, 1.5)
        assert np.abs(direct.j0 - via.j0).max() < 1e-12 * np.abs(direct.j0).max()

    def test_n2_parameter_derivative(self, wavelet, cfg, rng):
        qs = rng.uniform(0.3, 0.9, 10)
        phis = rng.uniform(0, TWO_PI, 10)
        direct = surface_sources_exact(driven_by(wavelet, 2), POL_X, qs, phis, 0.03, 1.5)
        coarse = bandpass_via_impulse(2, wavelet, POL_X, qs, phis, 0.03, 1.5, db_step=2e-4)
        fine = bandpass_via_impulse(2, wavelet, POL_X, qs, phis, 0.03, 1.5, db_step=1e-4)
        e1 = np.abs(coarse.j0 - direct.j0).max()
        e2 = np.abs(fine.j0 - direct.j0).max()
        assert e2 < 1e-7 * np.abs(direct.j0).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)

    def test_n4_finite_off_rim(self, wavelet, rng):
        qs = rng.uniform(0.25, 0.95, 50) * rng.choice([-1.0, 1.0], 50)
        phis = rng.uniform(0, TWO_PI, 50)
        s = surface_sources_exact(driven_by(wavelet, 4), POL_X, qs, phis, 0.02, 1.1)
        assert np.isfinite(s.j0).all() and np.isfinite(s.j).all()


class TestCoulomb:
    def test_center_values(self, cfg):
        j0, j = coulomb_disk_sources(0.0, 0.0, cfg)
        assert j0 == pytest.approx(-1 / TWO_PI)
        assert np.allclose(j, 0.0)

    def test_charge_velocity(self):
        # the spinning-disk picture: the disk current is the charge moving at v = (rho/a) e_phi,
        # a rigid rotation at rate 1/a about the source's own axis, here a tilted one
        tilted = SourceConfig(a=[0.6, -0.8, 1.2], b=2.5)
        a = tilted.a_mag
        rho = np.array([0.3, 0.9, 1.5])
        phi = np.array([0.2, 2.5, 4.4])
        j0, j = coulomb_disk_sources(rho, phi, tilted)
        pos = spheroid_point(0.0, np.sqrt(a**2 - rho**2), phi, tilted)
        e_phi = np.cross(tilted.a_hat, pos) / rho[:, None]
        assert np.allclose(j / j0[:, None], (rho / a)[:, None] * e_phi, rtol=0, atol=1e-14)
        # and the thin charged spheroid about that axis carries the same current
        s = coulomb_spheroid_sources(1e-7, np.sqrt(a**2 - rho**2), phi, tilted)
        assert np.abs(s.j - j).max() < 1e-6 * np.abs(j).max()

    def test_face_limits(self, cfg):
        # above and below the disk the continued Coulomb field is conjugate-mirrored, and the
        # outward normal flips with it, so both faces of a thin spheroid carry the disk sources
        rho = 0.5
        q = np.sqrt(1 - rho**2)
        j0_disk, j_disk = coulomb_disk_sources(rho, 0.0, cfg)
        for face in (q, -q):
            s = coulomb_spheroid_sources(1e-7, face, 0.0, cfg)
            assert abs(s.j0 - j0_disk) < 1e-6 * abs(j0_disk)
            assert np.abs(s.j - j_disk).max() < 1e-6 * np.abs(j_disk).max()

    def test_spheroid_sources_match_disk_limit(self, cfg):
        rho = 0.5
        q = np.sqrt(1 - rho**2)
        s = coulomb_spheroid_sources(1e-5, q, 0.0, cfg)
        j0_exact, j_exact = coulomb_disk_sources(rho, 0.0, cfg)
        assert s.j0.real == pytest.approx(j0_exact, rel=1e-3)
        assert np.abs(s.j - j_exact).max() < 1e-3 * np.abs(j_exact).max()

    def test_magnetic_parts_shrink(self, cfg):
        rho = np.linspace(0.1, 0.8, 10)
        q = np.sqrt(1 - rho**2)
        mags = []
        for alpha in (0.25, 0.125, 0.0625):
            s = coulomb_spheroid_sources(alpha, q, 0.3, cfg)
            mags.append(np.abs(s.j0_magnetic) + np.linalg.norm(s.j_magnetic, axis=-1))
        assert np.all(mags[1] < mags[0]) and np.all(mags[2] < mags[1])

    def test_rim_divergence(self, cfg):
        totals = []
        for k in (2, 3, 4, 5):
            rho_max = 1.0 - 4.0**-k
            rr = np.linspace(0.0, rho_max, 4000)
            j0, _ = coulomb_disk_sources(rr, 0.0, cfg)
            totals.append(abs(TWO_PI * np.trapezoid(j0 * rr, rr)))
        assert all(b > 1.5 * a for a, b in zip(totals, totals[1:]))

    def test_rim_singularity_raises(self, cfg):
        with pytest.raises(RimSingularityError):
            coulomb_disk_sources(1.0, 0.0, cfg)


class TestEffectiveAperture:
    def test_values(self):
        q_min, rho_max = effective_aperture(2.0, 1.0)
        assert (q_min, rho_max) == (pytest.approx(0.5), pytest.approx(np.sqrt(0.75)))

    def test_full_disk_limit(self):
        q_min, rho_max = effective_aperture(1e6, 1.0)
        assert q_min < 1e-5 and rho_max == pytest.approx(1.0, abs=1e-9)

    def test_subradiating(self):
        with pytest.raises(SubRadiatingError):
            effective_aperture(1.0, 1.0)

