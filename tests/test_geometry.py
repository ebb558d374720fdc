import warnings

import numpy as np
import pytest

from emwavelets import (
    CustomCut,
    FlatDisk,
    LowerSpheroid,
    OnBranchCircleError,
    OnCutError,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    complex_distance,
    complex_distance_principal,
    cut_sign,
    frame,
    from_oblate,
    smooth_cut_function,
    spheroid_point,
    to_oblate,
)
from emwavelets.geometry import branch_circle_distance, continued_sign, on_reference_cut


def meridian_distance(cut, cfg, rho, z, n=200_001, stride=100):
    """Distance from (rho, z) to the nearest of n vertices sampled along the cut's meridian.

    Never below the true distance.  A coarse pass over every stride-th
    vertex picks the window that the full-resolution pass searches.
    """
    a = cfg.a_mag
    if isinstance(cut, FlatDisk):
        verts = np.column_stack([np.linspace(0.0, a, n), np.zeros(n)])
    else:
        big = np.hypot(a, cut.alpha)
        side = 1.0 if isinstance(cut, UpperSpheroid) else -1.0
        theta = np.linspace(0.0, np.pi / 2, n)
        k = n // 100
        verts = np.vstack(
            [
                np.column_stack([np.linspace(a, big, k), np.zeros(k)]),
                np.column_stack([big * np.cos(theta), side * cut.alpha * np.sin(theta)]),
            ]
        )
    coarse = np.argmin(np.hypot(rho[:, None] - verts[::stride, 0], z[:, None] - verts[::stride, 1]), axis=1)
    window = np.clip(coarse[:, None] * stride + np.arange(-2 * stride, 2 * stride + 1), 0, len(verts) - 1)
    return np.min(np.hypot(rho[:, None] - verts[window, 0], z[:, None] - verts[window, 1]), axis=1)


def wobbly_chi(q, phi):
    """A membrane whose height varies with azimuth: (0.1 + 0.03 cos 2phi) tanh(q/0.02)."""
    return (0.1 + 0.03 * np.cos(2 * phi)) * np.tanh(np.asarray(q) / 0.02)


class TestSourceConfig:
    def test_rejects_zero_displacement(self):
        with pytest.raises(ValueError):
            SourceConfig(a=np.zeros(3), b=2.0)

    def test_rejects_small_imaginary_time(self):
        with pytest.raises(ValueError):
            SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=0.5)

    def test_speed_scales_validity(self):
        # c*|b| > |a| is the dimensionally consistent bound
        SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=0.5, c=3.0)
        with pytest.raises(ValueError):
            SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=0.5, c=1.5)

    def test_basis_orthonormal(self, cfg):
        for u, v in ((cfg.e1, cfg.e2), (cfg.e1, cfg.a_hat), (cfg.e2, cfg.a_hat)):
            assert abs(np.dot(u, v)) < 1e-15
        assert np.allclose([np.linalg.norm(cfg.e1), np.linalg.norm(cfg.e2)], 1.0)


class TestComplexDistance:
    def test_on_axis(self, cfg):
        sigma, p, q = complex_distance_principal(np.array([0.0, 0.0, 2.0]), cfg)
        assert sigma == pytest.approx(2.0 - 1.0j, abs=1e-15)
        assert (p, q) == (pytest.approx(2.0), pytest.approx(1.0))

    def test_branch_circle_zero(self, cfg):
        sigma, _, _ = complex_distance_principal(np.array([1.0, 0.0, 0.0]), cfg)
        assert sigma == 0.0

    def test_upper_face_limit(self, cfg):
        # approaching the disk from a.r > 0 gives -i*sqrt(a^2 - rho^2)
        sigma, _, _ = complex_distance_principal(np.array([0.5, 0.0, 1e-9]), cfg)
        assert sigma == pytest.approx(-1j * np.sqrt(0.75), abs=1e-8)
        on_disk, _, q = complex_distance_principal(np.array([0.5, 0.0, 0.0]), cfg)
        assert on_disk == pytest.approx(-1j * np.sqrt(0.75), abs=1e-15)
        assert q > 0

    def test_sigma_squared_identity(self, cfg, rng):
        pts = rng.uniform(-4, 4, (20000, 3))
        sigma, p, _ = complex_distance_principal(pts, cfg)
        target = np.sum(pts * pts, -1) - 1.0 - 2j * pts[:, 2]
        rel = np.abs(sigma**2 - target) / np.maximum(np.abs(target), 1e-30)
        assert rel.max() < 1e-12
        assert np.all(p >= 0.0)

    def test_complexness_bound(self, cfg, rng):
        pts = rng.uniform(-4, 4, (20000, 3))
        _, _, q = complex_distance_principal(pts, cfg)
        assert np.all(np.abs(q) <= 1.0 + 1e-12)

    def test_far_zone(self, cfg):
        R = 50.0
        thetas = np.linspace(0, np.pi, 31)
        pts = R * np.column_stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)])
        sigma, _, _ = complex_distance_principal(pts, cfg)
        gap = np.abs(sigma - (R - 1j * np.cos(thetas)))
        assert np.all(gap <= 1.0 / R)

    def test_disk_point_raises_no_warning(self, cfg):
        pts = np.array([[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma, _, _ = complex_distance_principal(pts, cfg)
        assert sigma[0] == pytest.approx(-1j * np.sqrt(0.75))
        assert sigma[1] == pytest.approx(np.sqrt(3.0))

    def test_on_reference_cut_flag(self, cfg):
        assert on_reference_cut(np.array([0.5, 0.0, 0.0]), cfg)
        assert not on_reference_cut(np.array([0.5, 0.0, 0.1]), cfg)
        assert not on_reference_cut(np.array([1.5, 0.0, 0.0]), cfg)


class TestOblate:
    def test_on_axis_example(self, cfg):
        p, q, phi = to_oblate(np.array([0.0, 0.0, 2.0]), cfg)
        assert (p, q, phi) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(0.0))

    def test_degenerate_axis_point(self, cfg):
        r = from_oblate(0.0, 1.0, 0.7, cfg)
        assert np.linalg.norm(r) < 1e-15

    def test_round_trip_and_identities(self, cfg, rng):
        pts = rng.uniform(-3, 3, (3000, 3))
        p, q, phi = to_oblate(pts, cfg)
        z = pts[:, 2]
        rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.allclose(z, p * q, atol=1e-10)
        assert np.allclose(rho2, (p**2 + 1) * (1 - q**2), atol=1e-10)
        side = np.where(z >= 0, "upper", "lower")
        for s in ("upper", "lower"):
            m = side == s
            back = from_oblate(p[m], np.abs(q[m]), phi[m], cfg, side=s)
            assert np.max(np.abs(back - pts[m])) < 1e-10

    def test_rejects_large_q(self, cfg):
        with pytest.raises(ValueError):
            from_oblate(1.0, 1.5, 0.0, cfg)


class TestCutSign:
    def test_far_zone_positive(self, cfg):
        assert cut_sign(UpperSpheroid(0.1), np.array([0.0, 0.0, 50.0]), cfg) == 1

    def test_inside_upper_lens(self, cfg):
        pt = np.array([0.0, 0.0, 0.05])
        assert cut_sign(UpperSpheroid(0.1), pt, cfg) == -1
        assert cut_sign(LowerSpheroid(0.1), pt, cfg) == 1

    def test_flat_disk_always_positive(self, cfg, rng):
        pts = rng.uniform(-2, 2, (100, 3))
        assert np.all(cut_sign(FlatDisk(), pts, cfg) == 1)

    def test_on_cut_raises(self, cfg):
        surface_pt = spheroid_point(0.1, 0.6, 0.3, cfg)
        with pytest.raises(OnCutError):
            cut_sign(UpperSpheroid(0.1), surface_pt, cfg)

    def test_on_apron_raises(self, cfg):
        # the flat annulus bridging the circle to the half spheroid is part of the cut
        apron_pt = np.array([1.002, 0.0, 0.0])
        with pytest.raises(OnCutError):
            cut_sign(UpperSpheroid(0.1), apron_pt, cfg)
        with pytest.raises(OnCutError):
            cut_sign(LowerSpheroid(0.1), apron_pt, cfg)

    def test_custom_cut_validation(self):
        with pytest.raises(ValueError, match="odd"):
            CustomCut(chi=lambda q, phi: 0.1 * np.abs(q))
        with pytest.raises(ValueError, match="periodic"):
            CustomCut(chi=lambda q, phi: 0.02 * q * phi)

    def test_branched_distance_examples(self, cfg):
        assert complex_distance(FlatDisk(), np.array([0.0, 0.0, 2.0]), cfg) == pytest.approx(2 - 1j)
        pt = np.array([0.0, 0.0, 0.05])
        sigma0, _, _ = complex_distance_principal(pt, cfg)
        assert complex_distance(UpperSpheroid(0.1), pt, cfg) == pytest.approx(-sigma0)

    def test_straddle_flip(self, cfg):
        base = spheroid_point(0.1, 0.6, 1.2, cfg)
        nhat = frame(base, cfg).e_p
        plus = base + 1e-6 * nhat
        minus = base - 1e-6 * nhat
        sp = complex_distance(UpperSpheroid(0.1), plus, cfg)
        sm = complex_distance(UpperSpheroid(0.1), minus, cfg)
        assert abs(sp + sm) < 1e-4 * abs(sp)

    def test_smooth_region_rule_matches_continuation(self, cfg, rng):
        cut = SmoothSpheroid(0.1, 0.005)
        pts = np.vstack(
            [
                rng.uniform(-2, 2, (30, 3)),
                np.column_stack(
                    [rng.uniform(-0.3, 0.3, 20), np.zeros(20), rng.uniform(0.005, 0.09, 20)]
                ),
            ]
        )
        analytic = cut.sign(pts, cfg)
        continued = continued_sign(cut, pts, cfg)
        assert np.all(analytic == continued)
        assert np.any(analytic == -1)

    @pytest.mark.parametrize(
        "cut",
        [UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005), CustomCut(chi=wobbly_chi)],
        ids=["upper", "lower", "smooth", "custom"],
    )
    def test_disk_plane_matches_limits(self, cut, cfg, rng):
        # inside the circle the disk is no part of these cuts: sigma is
        # continuous across it, so a point on it takes the common limit
        rho = rng.uniform(0.05, 0.95, 40)
        phi = rng.uniform(0.0, 2 * np.pi, 40)
        disk = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.zeros(40)])
        on = complex_distance(cut, disk, cfg)
        for dz in (1e-12, -1e-12):
            near = complex_distance(cut, disk + [0.0, 0.0, dz], cfg)
            assert np.all(np.abs(on - near) <= 1e-9 * np.abs(on))

    def test_phi_dependent_custom_cut_matches_continuation(self, cfg, rng):
        cut = CustomCut(chi=wobbly_chi)
        qs = rng.uniform(0.05, 0.95, 40)
        phis = rng.uniform(0.0, 2 * np.pi, 40)
        chi = wobbly_chi(qs, phis)
        pts = np.vstack(
            [
                rng.uniform(-2, 2, (40, 3)),
                from_oblate(chi * (1 + 1e-3), qs, phis, cfg),
                from_oblate(chi * (1 - 1e-3), qs, phis, cfg),
            ]
        )
        analytic = cut.sign(pts, cfg)
        assert np.all(analytic == continued_sign(cut, pts, cfg))
        assert set(np.unique(analytic[40:])) == {-1, 1}

    def test_custom_cut_matches_smooth(self, cfg, rng):
        chi = lambda q, phi: smooth_cut_function(q, 0.1, 0.005)
        custom = CustomCut(chi=chi)
        smooth = SmoothSpheroid(0.1, 0.005)
        pts = np.vstack(
            [
                rng.uniform(-1.5, 1.5, (20, 3)),
                [[0.0, 0.0, 0.05], [0.0, 0.0, -0.05], [0.3, 0.0, 0.02]],
            ]
        )
        assert np.all(custom.sign(pts, cfg) == smooth.sign(pts, cfg))

    def test_path_continuity_and_flip(self, cfg):
        # a loop that stays off the cut: adjacent samples close; crossing flips
        cut = UpperSpheroid(0.1)
        angles = np.linspace(-np.pi / 2 + 0.2, np.pi / 2 - 0.2, 400)
        path = np.column_stack([2.0 * np.cos(angles), np.zeros_like(angles), 2.0 * np.sin(angles)])
        vals = complex_distance(cut, path, cfg)
        steps = np.abs(np.diff(vals))
        arc = 2.0 * (angles[1] - angles[0])
        assert steps.max() < 5 * arc


class TestSmoothCutFunction:
    def test_odd_and_zero(self):
        assert smooth_cut_function(0.0, 0.3, 0.01) == 0.0
        q = np.linspace(-1, 1, 41)
        assert np.allclose(
            smooth_cut_function(q, 0.3, 0.01), -smooth_cut_function(-q, 0.3, 0.01)
        )

    def test_half_height_at_eps(self):
        assert smooth_cut_function(0.01, 0.3, 0.01) == pytest.approx(0.15)

    def test_asymptote(self):
        val = smooth_cut_function(1.0, 0.3, 0.01)
        assert val == pytest.approx(0.3 * (1 - 2 / (100 * np.pi)), rel=1e-4)

    def test_approaches_sharp_cut(self, cfg):
        # off the apron the smoothed sign rule converges to the sharp one
        pts = np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.5], [0.3, 0.0, -0.4], [0.5, 0.0, 0.02]])
        sharp = UpperSpheroid(0.1).sign(pts, cfg)
        for eps in (1e-3, 1e-5):
            assert np.all(SmoothSpheroid(0.1, eps).sign(pts, cfg) == sharp)


class TestFrame:
    def test_on_axis(self, cfg):
        fr = frame(np.array([0.0, 0.0, 2.0]), cfg)
        assert np.allclose(fr.grad_p, [0, 0, 1], atol=1e-15)
        assert np.allclose(fr.grad_q, [0, 0, 0], atol=1e-15)
        assert np.allclose(fr.e_q, 0.0)

    def test_identities(self, cfg, rng):
        pts = rng.uniform(-3, 3, (100000, 3))
        d = branch_circle_distance(pts, cfg)
        fr = frame(pts[d > 1e-3], cfg)
        uu = np.sum(fr.u * fr.u, -1)
        gp2 = np.sum(fr.grad_p**2, -1)
        gq2 = np.sum(fr.grad_q**2, -1)
        pq2 = fr.p**2 + fr.q**2
        assert np.abs(uu - 1).max() < 1e-10
        assert np.abs(gp2 - gq2 - 1).max() < 1e-10
        assert np.abs(np.sum(fr.grad_p * fr.grad_q, -1)).max() < 1e-10
        assert np.abs(gp2 - (fr.p**2 + 1) / pq2).max() < 1e-10
        assert np.abs(gq2 - (1 - fr.q**2) / pq2).max() < 1e-10

    def test_unit_vectors(self, cfg, rng):
        pts = rng.uniform(-3, 3, (1000, 3))
        d = branch_circle_distance(pts, cfg)
        fr = frame(pts[d > 1e-2], cfg)
        assert np.abs(np.linalg.norm(fr.e_p, axis=-1) - 1).max() < 1e-12
        on_axis = np.abs(fr.q) > 1 - 1e-12
        nq = np.linalg.norm(fr.e_q, axis=-1)
        assert np.all((np.abs(nq - 1) < 1e-12) | on_axis)

    def test_branch_circle_guard(self, cfg):
        with pytest.raises(OnBranchCircleError):
            frame(np.array([1.0, 0.0, 0.0]), cfg)


class TestSpheroidPoint:
    def test_poles_and_equator(self, cfg):
        north = spheroid_point(0.4, 1.0, 0.0, cfg)
        assert np.allclose(north, [0, 0, 0.4], atol=1e-15)
        eq = spheroid_point(0.4, 0.0, 0.0, cfg)
        assert np.allclose(eq, [np.sqrt(1.16), 0, 0], atol=1e-15)

    def test_surface_equation(self, cfg, rng):
        alpha = 0.25
        qs = rng.uniform(-1, 1, 200)
        phis = rng.uniform(0, 2 * np.pi, 200)
        pts = spheroid_point(alpha, qs, phis, cfg)
        rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        val = rho2 / (1 + alpha**2) + pts[:, 2] ** 2 / alpha**2
        assert np.abs(val - 1).max() < 1e-10
        assert np.allclose(pts[:, 2], alpha * qs, atol=1e-12)

    def test_rejects_large_q(self, cfg):
        with pytest.raises(ValueError):
            spheroid_point(0.3, 1.2, 0.0, cfg)


class TestClearance:
    def test_disk(self, cfg):
        d = FlatDisk().clearance(np.array([0.5, 0.0, 0.3]), cfg)
        assert d == pytest.approx(0.3)
        d = FlatDisk().clearance(np.array([2.0, 0.0, 0.0]), cfg)
        assert d == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "cut", [FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1)], ids=["flat", "upper", "lower"]
    )
    def test_lower_bound(self, cut, cfg, rng):
        alpha = getattr(cut, "alpha", 0.0)
        side = -1.0 if isinstance(cut, LowerSpheroid) else 1.0
        q = side * rng.uniform(0.0, 1.0, 2000)
        phi = rng.uniform(0.0, 2 * np.pi, 2000)
        base = spheroid_point(alpha, q, phi, cfg)
        offset = rng.choice([-1.0, 1.0], 2000) * 10 ** rng.uniform(-6, -1, 2000)
        rim = np.column_stack(
            [rng.uniform(0.9, 1.1, 1000), np.zeros(1000), rng.uniform(-0.05, 0.05, 1000)]
        )
        pts = np.vstack(
            [rng.uniform(-2, 2, (2000, 3)), base + offset[:, None] * frame(base, cfg).e_p, rim]
        )
        reference = meridian_distance(cut, cfg, np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
        assert np.all(cut.clearance(pts, cfg) <= reference + 1e-12 * cfg.a_mag)

    @pytest.mark.parametrize(
        "cut", [FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1)], ids=["flat", "upper", "lower"]
    )
    def test_exact_at_membrane(self, cut, cfg, rng):
        side = -1.0 if isinstance(cut, LowerSpheroid) else 1.0
        q = side * rng.uniform(0.05, 0.95, 400)
        phi = rng.uniform(0.0, 2 * np.pi, 400)
        base = spheroid_point(getattr(cut, "alpha", 0.0), q, phi, cfg)
        delta = rng.choice([-1.0, 1.0], 400) * 10 ** rng.uniform(-9, -6, 400)
        d = cut.clearance(base + delta[:, None] * frame(base, cfg).e_p, cfg)
        assert np.all(np.abs(d - np.abs(delta)) <= 1e-6 * np.abs(delta))

    def test_spheroid_near_surface(self, cfg):
        pt = spheroid_point(0.1, 0.6, 0.0, cfg) + 0.05 * frame(spheroid_point(0.1, 0.6, 0.0, cfg), cfg).e_p
        d = UpperSpheroid(0.1).clearance(pt, cfg)
        assert 0.01 < d < 0.1
