import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

from emwavelets import (
    FlatDisk,
    LowerSpheroid,
    OnBranchCircleError,
    OnCutError,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    branch,
    complex_distance_principal,
    frame,
    spheroid_point,
    to_oblate,
)
from emwavelets.geometry import (
    _SCREEN_MARGIN,
    ComplexDistanceSample,
    branch_circle_distance,
    continued_sign,
)


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
        side = cut.side
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


AXES = {"axis_z": (0.0, 0.0, 1.0), "tilted": (0.3, -0.4, 0.866)}
SPHEROIDS = [cls(alpha) for cls in (UpperSpheroid, LowerSpheroid) for alpha in (0.01, 0.1, 1.0)]
CUTS = [FlatDisk(), *SPHEROIDS]


def cut_cases(cuts):
    """(cut, axis) parameters on both axes; alpha = 0.1 on the z axis keeps the short id (upper, lower)."""
    names = {FlatDisk: "flat", UpperSpheroid: "upper", LowerSpheroid: "lower"}
    cases = []
    for cut in cuts:
        for axis_name, axis in AXES.items():
            ident = names[type(cut)]
            if getattr(cut, "alpha", 0.1) != 0.1:
                ident += f"-{cut.alpha}"
            if axis_name != "axis_z":
                ident += f"-{axis_name}"
            cases.append(pytest.param(cut, axis, id=ident))
    return cases


def cut_side(cut):
    return getattr(cut, "side", 1.0)


def meridian_points(cfg, rho, z, phi):
    """Points at distance rho from the source axis, at height z along it, at azimuth phi."""
    return (
        (rho * np.cos(phi))[:, None] * cfg.e1 + (rho * np.sin(phi))[:, None] * cfg.e2 + z[:, None] * cfg.a_hat
    )


def meridian_coords(pts, cfg):
    """(rho, z) of points about the source axis."""
    z = pts @ cfg.a_hat
    return np.linalg.norm(pts - z[:, None] * cfg.a_hat, axis=1), z


def probe_points(cut, cfg, rng, n=2000):
    """Uniform points, points 1e-12..1e-1 a from the membrane along e_p, the rim band, beyond the disk plane."""
    a, alpha, side = cfg.a_mag, getattr(cut, "alpha", 0.0), cut_side(cut)
    base = spheroid_point(alpha, side * rng.uniform(0.0, 1.0, n) * a, rng.uniform(0.0, 2 * np.pi, n), cfg)
    offset = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, -1, n) * a
    big = np.hypot(a, alpha)
    rim = meridian_points(
        cfg, rng.uniform(0.9 * a, 1.1 * big, n // 2), rng.uniform(-0.05, 0.05, n // 2) * a,
        rng.uniform(0.0, 2 * np.pi, n // 2),
    )
    beyond = meridian_points(
        cfg, rng.uniform(0.0, 1.5 * big, n // 2), -side * 10 ** rng.uniform(-12, 0, n // 2) * a,
        rng.uniform(0.0, 2 * np.pi, n // 2),
    )
    return np.vstack([rng.uniform(-2, 2, (n, 3)) * a, base + offset[:, None] * frame(base, cfg).e_p, rim, beyond])


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


class TestOblate:
    def test_on_axis_example(self, cfg):
        p, q, phi = to_oblate(np.array([0.0, 0.0, 2.0]), cfg)
        assert (p, q, phi) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(0.0))

    def test_degenerate_axis_point(self, cfg):
        r = spheroid_point(0.0, 1.0, 0.7, cfg)
        assert np.linalg.norm(r) < 1e-15

    def test_round_trip_and_identities(self, rng):
        # on an arbitrary axis, with z = r.a_hat; the sign of q carries the sheet
        cfg = SourceConfig(a=np.array([0.3, -0.2, 0.9]), b=1.5)
        a = cfg.a_mag
        pts = rng.uniform(-3, 3, (3000, 3))
        p, q, phi = to_oblate(pts, cfg)
        z = pts @ cfg.a_hat
        rho2 = np.sum(pts**2, axis=1) - z**2
        assert np.allclose(a * z, p * q, atol=1e-10)
        assert np.allclose(a**2 * rho2, (p**2 + a**2) * (a**2 - q**2), atol=1e-10)
        assert np.any(q < 0.0) and np.any(q > 0.0)
        assert np.max(np.abs(spheroid_point(*to_oblate(pts, cfg), cfg) - pts)) < 1e-10

    def test_rejects_large_q(self, cfg):
        with pytest.raises(ValueError):
            spheroid_point(1.0, 1.5, 0.0, cfg)


class TestCutSign:
    def test_far_zone_positive(self, cfg):
        assert branch(UpperSpheroid(0.1), np.array([0.0, 0.0, 50.0]), cfg).sign == 1

    def test_inside_upper_lens(self, cfg):
        pt = np.array([0.0, 0.0, 0.05])
        assert branch(UpperSpheroid(0.1), pt, cfg).sign == -1
        assert branch(LowerSpheroid(0.1), pt, cfg).sign == 1

    def test_flat_disk_always_positive(self, cfg, rng):
        pts = rng.uniform(-2, 2, (100, 3))
        assert np.all(branch(FlatDisk(), pts, cfg).sign == 1)

    def test_on_cut_raises(self, cfg):
        surface_pt = spheroid_point(0.1, 0.6, 0.3, cfg)
        with pytest.raises(OnCutError):
            branch(UpperSpheroid(0.1), surface_pt, cfg)

    def test_on_apron_raises(self, cfg):
        # the flat annulus bridging the circle to the half spheroid is part of the cut
        apron_pt = np.array([1.002, 0.0, 0.0])
        with pytest.raises(OnCutError):
            branch(UpperSpheroid(0.1), apron_pt, cfg)
        with pytest.raises(OnCutError):
            branch(LowerSpheroid(0.1), apron_pt, cfg)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-4])
    @pytest.mark.parametrize("cut, axis", cut_cases(SPHEROIDS))
    def test_refuses_where_clearance_below_tol(self, cut, axis, tol, rng):
        """The screened refusal set, count and first point are those of clearance < tol_cut."""
        cfg = SourceConfig(a=np.array(axis), b=1.5)
        a, n = cfg.a_mag, 64
        tol_cut = tol * a
        dist = tol_cut * rng.choice([1 - 1e-6, 1 + 1e-6], 2 * n) * rng.choice([-1.0, 1.0], 2 * n)
        phi = rng.uniform(0.0, 2 * np.pi, 2 * n)
        base = spheroid_point(cut.alpha, cut_side(cut) * rng.uniform(0.05, 0.95, n) * a, phi[:n], cfg)
        membrane = base + dist[:n, None] * frame(base, cfg).e_p
        apron = meridian_points(cfg, a + rng.uniform(0.1, 0.9, n) * (np.hypot(a, cut.alpha) - a), dist[n:], phi[n:])
        pts = rng.permutation(np.vstack([membrane, apron]))
        expected = cut.clearance(pts, cfg) < tol_cut
        assert expected.any() and not expected.all()
        for shape in [(2 * n, 3), (n // 4, 8, 3)]:
            r = pts.reshape(shape)
            assert np.array_equal(cut.near_cut(r, cfg, tol_cut), expected.reshape(shape[:-1]))
            with pytest.raises(OnCutError) as err:
                branch(cut, r, cfg, tol_cut=tol_cut)
            first = ", ".join(f"{v:g}" for v in pts[np.flatnonzero(expected)[0]])
            assert str(err.value).endswith(
                f"{np.count_nonzero(expected)} of {2 * n} points refused, first at ({first})"
            )
        for pt, refused in zip(pts[:16], expected[:16]):
            if refused:
                with pytest.raises(OnCutError, match=r"1 of 1 points refused"):
                    branch(cut, pt, cfg, tol_cut=tol_cut)
            else:
                assert branch(cut, pt, cfg, tol_cut=tol_cut).sign in (-1, 1)

    def test_branched_distance_examples(self, cfg):
        assert branch(FlatDisk(), np.array([0.0, 0.0, 2.0]), cfg).sigma == pytest.approx(2 - 1j)
        pt = np.array([0.0, 0.0, 0.05])
        sigma0, _, _ = complex_distance_principal(pt, cfg)
        assert branch(UpperSpheroid(0.1), pt, cfg).sigma == pytest.approx(-sigma0)

    def test_straddle_flip(self, cfg):
        base = spheroid_point(0.1, 0.6, 1.2, cfg)
        nhat = frame(base, cfg).e_p
        plus = base + 1e-6 * nhat
        minus = base - 1e-6 * nhat
        sp = branch(UpperSpheroid(0.1), plus, cfg).sigma
        sm = branch(UpperSpheroid(0.1), minus, cfg).sigma
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
        [UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005)],
        ids=["upper", "lower", "smooth"],
    )
    def test_disk_plane_matches_limits(self, cut, cfg, rng):
        # inside the circle the disk is no part of these cuts: sigma is
        # continuous across it, so a point on it takes the common limit
        rho = rng.uniform(0.05, 0.95, 40)
        phi = rng.uniform(0.0, 2 * np.pi, 40)
        disk = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.zeros(40)])
        on = branch(cut, disk, cfg).sigma
        for dz in (1e-12, -1e-12):
            near = branch(cut, disk + [0.0, 0.0, dz], cfg).sigma
            assert np.all(np.abs(on - near) <= 1e-9 * np.abs(on))

    def test_path_continuity_and_flip(self, cfg):
        # a loop that stays off the cut: adjacent samples close; crossing flips
        cut = UpperSpheroid(0.1)
        angles = np.linspace(-np.pi / 2 + 0.2, np.pi / 2 - 0.2, 400)
        path = np.column_stack([2.0 * np.cos(angles), np.zeros_like(angles), 2.0 * np.sin(angles)])
        vals = branch(cut, path, cfg).sigma
        steps = np.abs(np.diff(vals))
        arc = 2.0 * (angles[1] - angles[0])
        assert steps.max() < 5 * arc


class TestContinuedSign:
    @pytest.mark.parametrize(
        "cut",
        [FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005)],
        ids=["flat", "upper", "lower", "smooth"],
    )
    def test_matches_closed_form_sign(self, cut, cfg, rng):
        # 1000 random points and 500 pairs straddling the membrane
        qs = rng.uniform(0.05, 0.95, 500)
        phis = rng.uniform(0.0, 2 * np.pi, 500)
        if isinstance(cut, FlatDisk):
            straddle = [spheroid_point(1e-7, qs, phis, cfg), spheroid_point(1e-7, -qs, phis, cfg)]
        else:
            chi = cut.cut_function(qs)
            side = np.sign(chi) * qs
            straddle = [spheroid_point(np.abs(chi) * (1 + d), side, phis, cfg) for d in (1e-4, -1e-4)]
        pts = np.vstack([rng.uniform(-2, 2, (1000, 3)), *straddle])
        closed = cut.sign(pts, cfg)
        assert np.array_equal(continued_sign(cut, pts, cfg), closed)
        assert set(np.unique(closed[1000:])) == ({1} if isinstance(cut, FlatDisk) else {-1, 1})

    def test_memory_bounded_by_one_chunk(self, cfg, rng):
        peaks = []
        for n in (256, 2048):
            pts = rng.uniform(-2, 2, (n, 3))
            tracemalloc.start()
            try:
                continued_sign(UpperSpheroid(0.1), pts, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestSmoothCutFunction:
    chi = SmoothSpheroid(0.3, 0.01).cut_function

    def test_odd_and_zero(self):
        assert self.chi(0.0) == 0.0
        q = np.linspace(-1, 1, 41)
        assert np.allclose(self.chi(q), -self.chi(-q))

    def test_half_height_at_eps(self):
        assert self.chi(0.01) == pytest.approx(0.15)

    def test_asymptote(self):
        val = self.chi(1.0)
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

    def test_branch_circle_guard(self, cfg):
        with pytest.raises(OnBranchCircleError):
            frame(np.array([1.0, 0.0, 0.0]), cfg)

    def test_guard_in_the_constructor(self, cfg):
        # a sample built from a (sigma, p, q) the caller holds refuses the circle too
        r = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        with pytest.raises(OnBranchCircleError, match=r"1 of 2 points refused, first at \(1, 0, 0\)"):
            ComplexDistanceSample(r, cfg, *complex_distance_principal(r, cfg))

    def test_vectors_built_on_read(self, cfg):
        fr = frame(np.array([[1.2, 0.4, 0.8], [0.0, 0.0, 2.0]]), cfg)
        assert not set(SAMPLE_PROPERTIES) & set(vars(fr))
        assert fr.u.shape == (2, 3)
        assert {"grad_p", "grad_q", "u"} <= set(vars(fr)) and "e_p" not in vars(fr)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 2.0, 0.0), (0.3, -0.5, 0.8)])
    def test_frame_of_kept_points_from_the_principal_sigma(self, axis, rng):
        """A sample built from the masked (sigma, p, q) a caller already holds is frame on the masked points."""
        cfg = SourceConfig(a=np.array(axis), b=3.0)
        pts = rng.uniform(-3, 3, (4000, 3)) * cfg.a_mag
        axis_aligned = np.count_nonzero(cfg.a) == 1
        if axis_aligned:  # a.r == 0 inside the circle, where the on-disk branch applies
            pts[:200] *= 0.2
            pts[:200, np.flatnonzero(cfg.a)] = 0.0
        sigma, p, q = complex_distance_principal(pts, cfg)
        keep = (p**2 + q**2 > (1e-3 * cfg.a_mag) ** 2) & (rng.uniform(size=len(pts)) < 0.7)
        assert not axis_aligned or (keep & (p == 0.0)).sum() > 100
        got = ComplexDistanceSample(pts[keep], cfg, sigma[keep], p[keep], q[keep])
        want = frame(pts[keep], cfg)
        assert got.sign is None and want.sign is None
        for name in ("sigma", "p", "q", *SAMPLE_PROPERTIES):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


# the frame vectors a sample builds when they are read
SAMPLE_PROPERTIES = tuple(
    name for name, attr in vars(ComplexDistanceSample).items()
    if isinstance(attr, cached_property) and not name.startswith("_")
)


class TestBranch:
    @pytest.mark.parametrize("cut", [
        FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005),
    ], ids=["flat", "upper", "lower", "smooth"])
    @pytest.mark.parametrize("axis", AXES.values(), ids=AXES.keys())
    def test_matches_the_public_pieces_bitwise(self, cut, axis, rng):
        cfg = SourceConfig(a=np.array(axis), b=1.5)
        tol = 1e-6
        pts = np.vstack([
            rng.uniform(-2, 2, (3000, 3)),
            meridian_points(cfg, rng.uniform(0.0, 1.2, 1000), rng.uniform(-0.15, 0.15, 1000),
                            rng.uniform(0.0, 2 * np.pi, 1000)),
            np.linspace(-2.0, 2.0, 41)[:, None] * cfg.a_hat,  # the symmetry axis, r = 0 included
            np.array([[0.0, 0.0, 0.05], [0.0, 0.0, -0.05], [0.0, 0.5, 0.0]]),
        ])
        pts = pts[~cut.near_cut(pts, cfg, tol) & (branch_circle_distance(pts, cfg) > 1e-3)]
        b = branch(cut, pts, cfg, tol)
        sign = cut.sign(pts, cfg)  # the unrefused rule; no point here is refused
        if not isinstance(cut, FlatDisk):
            assert (sign == -1).sum() > 50
        assert (pts == 0.0).any()  # zero components, where s*u and -u differ in the sign of a zero
        sigma0, p, q = complex_distance_principal(pts, cfg)
        expect = {"sign": sign, "sigma": sign * sigma0, "p": p, "q": q, "u": sign[..., None] * frame(pts, cfg).u}
        for name in ("grad_p", "grad_q", "e_p"):
            expect[name] = getattr(frame(pts, cfg), name)
        for name, want in expect.items():
            got = getattr(b, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_refuses_the_cut_then_the_circle(self, cfg):
        # the circle bounds every cut, so a cut that refuses its points reports the cut
        circle = np.array([1.0, 0.0, 0.0])
        with pytest.raises(OnCutError):
            branch(UpperSpheroid(0.1), circle, cfg)
        with pytest.raises(OnBranchCircleError, match="branch circle"):
            branch(FlatDisk(), circle, cfg)

    def test_scalar_point(self, cfg):
        b = branch(UpperSpheroid(0.1), np.array([0.0, 0.0, 0.05]), cfg)
        assert b.sign == -1 and b.u.shape == (3,)
        assert b.sigma == -complex_distance_principal(np.array([0.0, 0.0, 0.05]), cfg)[0]


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

    @pytest.mark.parametrize("cut, axis", cut_cases(CUTS))
    def test_lower_bound(self, cut, axis, rng):
        cfg = SourceConfig(a=np.array(axis), b=1.5)
        pts = probe_points(cut, cfg, rng)
        reference = meridian_distance(cut, cfg, *meridian_coords(pts, cfg))
        assert np.all(cut.clearance(pts, cfg) <= reference + 1e-12 * cfg.a_mag)

    @pytest.mark.parametrize("cut, axis", cut_cases(CUTS))
    def test_exact_at_membrane(self, cut, axis, rng):
        cfg = SourceConfig(a=np.array(axis), b=1.5)
        q = cut_side(cut) * rng.uniform(0.05, 0.95, 400) * cfg.a_mag
        phi = rng.uniform(0.0, 2 * np.pi, 400)
        base = spheroid_point(getattr(cut, "alpha", 0.0), q, phi, cfg)
        delta = rng.choice([-1.0, 1.0], 400) * 10 ** rng.uniform(-9, -6, 400)
        d = cut.clearance(base + delta[:, None] * frame(base, cfg).e_p, cfg)
        assert np.all(np.abs(d - np.abs(delta)) <= 1e-6 * np.abs(delta))

    @pytest.mark.parametrize("cut, axis", cut_cases(SPHEROIDS))
    def test_bound_is_sound(self, cut, axis, rng):
        """The screen's closed-form bound never exceeds the distance, nor the exact clearance but by the margin."""
        cfg = SourceConfig(a=np.array(axis), b=1.5)
        pts = probe_points(cut, cfg, rng)
        bound = cut.clearance_bound(pts, cfg)
        reference = meridian_distance(cut, cfg, *meridian_coords(pts, cfg))
        assert np.all(bound <= reference + 1e-12 * cfg.a_mag)
        margin = _SCREEN_MARGIN * np.hypot(cfg.a_mag, cut.alpha)
        assert np.all(bound <= cut.clearance(pts, cfg) + margin)

    def test_spheroid_near_surface(self, cfg):
        pt = spheroid_point(0.1, 0.6, 0.0, cfg) + 0.05 * frame(spheroid_point(0.1, 0.6, 0.0, cfg), cfg).e_p
        d = UpperSpheroid(0.1).clearance(pt, cfg)
        assert 0.01 < d < 0.1
