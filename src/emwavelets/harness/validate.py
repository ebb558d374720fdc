"""Validation suites: every numerical identity the package promises, measured.

Each suite returns a SuiteResult with the worst measured value against its
threshold; run_all executes the battery on a desk-scale configuration in
well under a minute.  Every threshold is a constant written in its suite:
a tolerance on an identity, or an order of convergence.
"""

from __future__ import annotations

import functools
import io
import time
from dataclasses import dataclass

import numpy as np

from ..em_fields import field, joint_field, lmn
from ..geometry import (
    ComplexDistanceSample,
    FlatDisk,
    HalfSpheroid,
    LowerSpheroid,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    _cylindrical_basis,
    _dot,
    _spheroid_rho,
    _sum3,
    branch,
    complex_distance_principal,
    frame,
    spheroid_point,
)
from ..scalar_wavelet import ScalarWavelet, interior_psi
from ..signals import CauchySignal, spectrum_cauchy
from ..surface_sources import (
    coulomb_disk_sources,
    coulomb_spheroid_sources,
    impulse_tilde_lmn,
    surface_sources_approx,
    surface_sources_exact,
    tilde_lmn,
)
from . import fd
from .beam import R_FACTOR, beam_profile_rows, diffraction_angles, helicity_residuals, spectral_profiles
from .config import AxisSpec, RunConfig, default_config
from .datasets import write_csv
from .fd import field_curl_oracle, lorenz_residual, wave_residual
from .runs import FIELD_HEADER_F, field_rows
from .spectral import cauchy_series_transform, de_fourier

__all__ = ["SuiteResult", "run_all", "ALL_SUITES"]

# Points per batch of the million-point identity suite, a constant: a batch's complex
# (..., 3) temporaries (~0.4 MB each) fit together in a 2 MB per-core L2 cache, where
# those of 2^16 points (~3 MB each) did not.  The frame built on a batch is
# component-major, so a per-component pass reads 64 kB of contiguous floats.  The
# points and results do not depend on it.
BATCH = 1 << 13


@dataclass
class SuiteResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{tag} {self.name:<28s} measured={self.measured:.3e} "
            f"threshold={self.threshold:.3e} ({self.seconds:.1f}s){extra}"
        )


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.seconds = time.perf_counter() - t0
        return res

    return wrapper


def _slope(hs, residuals):
    """Least-squares slope of log residual vs log h."""
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def _off_cut_points(rng, cfg, cut, n, clearance):
    pts = np.empty((0, 3))
    while len(pts) < n:
        cand = rng.uniform(-3.0, 3.0, (4 * n, 3)) * cfg.a_mag
        ok = cut.clearance(cand, cfg) > clearance
        _, p, q = complex_distance_principal(cand, cfg)
        ok &= p**2 + q**2 > (0.05 * cfg.a_mag) ** 2
        pts = np.vstack([pts, cand[ok]])
    return pts[:n]


def _uniform_batches(rng, n_points, half_width):
    """The points of rng.uniform(-half_width, half_width, (n_points, 3)), in batches.

    The stream is drawn in the same order, so the points are the same,
    while each batch's temporaries stay bounded by BATCH.
    """
    for lo in range(0, n_points, BATCH):
        yield rng.uniform(-half_width, half_width, (min(BATCH, n_points - lo), 3))


@_timed
def suite_appendix_identities(rc: RunConfig, rng, n_points=1_000_000):
    """sigma^2 = r.r - a^2 - 2i a.r, and on the same points off the circle u.u = 1,
    |grad p|^2 - |grad q|^2 = 1, grad p.grad q = 0 and the norm closed forms.

    The sigma^2 target is built from the points here, not from the r.r and
    a.r that complex_distance_principal forms: shared values would make the
    check compare the function with itself.  p^2 + q^2 is formed once per
    batch, for the circle cut and the norm closed forms.
    """
    cfg = rc.source
    a = cfg.a_mag
    worst, worst_s2, kept = 0.0, 0.0, 0
    for pts in _uniform_batches(rng, n_points, 3 * a):
        sigma, p, q = complex_distance_principal(pts, cfg)
        target = _dot(pts, pts) - a**2 - 2j * _dot(pts, cfg.a)
        rel = np.abs(sigma**2 - target) / np.maximum(np.abs(target), 1e-30)
        worst_s2 = max(worst_s2, float(rel.max()))
        p2, q2 = p**2, q**2
        pq2 = p2 + q2
        keep = pq2 > (1e-3 * a) ** 2
        if not keep.all():
            pts, sigma, p, q, p2, q2, pq2 = (v[keep] for v in (pts, sigma, p, q, p2, q2, pq2))
        fr = ComplexDistanceSample(pts, cfg, sigma, p, q)
        uu = np.abs(_dot(fr.u, fr.u) - 1.0)
        gp2 = _dot(fr.grad_p, fr.grad_p)
        gq2 = _dot(fr.grad_q, fr.grad_q)
        e1 = np.abs(gp2 - gq2 - 1.0)
        e2 = np.abs(_dot(fr.grad_p, fr.grad_q))
        e3 = np.abs(gp2 - (p2 + a**2) / pq2)
        e4 = np.abs(gq2 - (a**2 - q2) / pq2)
        worst = max(worst, *(float(e.max(initial=0.0)) for e in (uu, e1, e2, e3, e4)))
        kept += len(pts)
    thr, thr_s2 = 1e-10, 1e-12
    return SuiteResult("appendix-identities", worst <= thr and worst_s2 <= thr_s2, worst, thr,
                       detail=f"{kept} points, sigma^2 residual {worst_s2:.1e} (<={thr_s2:.0e})")


def _straddle_pairs_for_cut(cut, cfg, rng, n):
    """Pairs of points offset +-delta along the local cut normal."""
    a = cfg.a_mag
    delta = 1e-7 * a
    qs = rng.uniform(0.05 * a, 0.95 * a, n)
    phis = rng.uniform(0.0, 2 * np.pi, n)
    if isinstance(cut, FlatDisk):
        base = spheroid_point(0.0, qs, phis, cfg)
        nhat = np.broadcast_to(cfg.a_hat, base.shape)
        return base + delta * nhat, base - delta * nhat
    if isinstance(cut, HalfSpheroid):
        base = spheroid_point(cut.alpha, cut.side * qs, phis, cfg)
        fr = frame(base, cfg)
        return base + delta * fr.e_p, base - delta * fr.e_p
    # smoothed: surface p = chi(q); offset along grad(p - chi), which crosses it
    ps = cut.cut_function(qs)
    qs = np.where(ps > 1e-4 * a, qs, qs + 0.2 * a)  # stay off the infinitely thin tail
    ps = cut.cut_function(qs)
    base = spheroid_point(ps, qs, phis, cfg)
    fr = frame(base, cfg)
    dchi = fd.nth_derivative_param(cut.cut_function, qs, 1, 1e-7 * a)
    nvec = fr.grad_p - dchi[:, None] * fr.grad_q
    nhat = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
    return base + delta * nhat, base - delta * nhat


def _region_sign(cut, r, cfg):
    """The sign rule of the flat and half-spheroid cuts from Cartesian geometry alone.

    sigma_cut = -sigma_principal exactly in the region swept between the disk and
    the membrane: for the spheroid p = alpha on the side side*(a_hat.r) > 0, the
    points on that side inside the ellipsoid rho^2/(a^2 + alpha^2) + z^2/alpha^2 < 1.
    The flat disk is the reference cut, and its sign is +1 everywhere.
    """
    if isinstance(cut, FlatDisk):
        return np.ones(np.shape(r)[:-1], dtype=int)
    z = _dot(r, cfg.a_hat)
    rho2 = _dot(r, r) - z**2
    inside = rho2 / (cfg.a_mag**2 + cut.alpha**2) + (z / cut.alpha) ** 2 < 1.0
    return np.where((cut.side * z > 0.0) & inside, -1, 1)


def _disk_discontinuities(cut, cfg):
    """Count the pairs across the reference disk where sigma_cut jumps or the principal sigma does not.

    Inside the circle, where chi(q) != 0, the membrane lies away from the disk, so
    sigma_cut is continuous across it while the principal sigma changes sign; the
    flip is the negative control that keeps the count from passing vacuously.
    The (q, phi) are fixed, so the suite's random stream does not move.
    """
    a = cfg.a_mag
    qs = np.linspace(0.2 * a, 0.95 * a, 32)
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False) + 0.1
    base = spheroid_point(0.0, qs, phis, cfg)
    delta = 1e-7 * a * cfg.a_hat
    plus, minus = base + delta, base - delta
    s0p, _, _ = complex_distance_principal(plus, cfg)
    s0m, _, _ = complex_distance_principal(minus, cfg)
    jump = np.abs(branch(cut, plus, cfg).sigma - branch(cut, minus, cfg).sigma) / np.abs(s0p)
    flip = np.abs(s0p + s0m) / np.abs(s0p)
    return int(np.sum((jump > 1e-3) | (flip > 1e-3)))


@_timed
def suite_sigma_algebra(rc: RunConfig, rng, n_straddle=1000):
    """The sign flip across every cut kind, the closed-form sign rule and disk continuity.

    The sigma^2 identity is checked by suite_appendix_identities, on the
    points it resolves anyway.
    """
    cfg = rc.source
    a = cfg.a_mag
    cuts = [
        FlatDisk(),
        UpperSpheroid(0.1 * a),
        LowerSpheroid(0.1 * a),
        SmoothSpheroid(0.1 * a, 0.005 * a),
        SmoothSpheroid(0.12 * a, 0.01 * a),
    ]
    worst_flip = 0.0
    mismatches = 0
    for cut in cuts:
        plus, minus = _straddle_pairs_for_cut(cut, cfg, rng, n_straddle)
        sp = branch(cut, plus, cfg).sigma
        sm = branch(cut, minus, cfg).sigma
        flip = np.abs(sp + sm) / np.maximum(np.abs(sp), 1e-30)
        worst_flip = max(worst_flip, float(flip.max()))
        # the closed-form sign rule against the Cartesian region it must describe
        if isinstance(cut, (FlatDisk, HalfSpheroid)):
            both = np.vstack([plus[:32], minus[:32]])
            mismatches += int(np.sum(cut.sign(both, cfg) != _region_sign(cut, both, cfg)))
        if not isinstance(cut, FlatDisk):
            mismatches += _disk_discontinuities(cut, cfg)
    thr = 1e-3
    passed = worst_flip <= thr and mismatches == 0
    return SuiteResult("sigma-algebra", passed, worst_flip, thr,
                       detail=f"5 cut kinds, {mismatches} region/disk-continuity mismatches (=0)")


@_timed
def suite_wave_maxwell(rc: RunConfig, rng, n_points=100):
    """Order >= 1.9 convergence of box(psi), div F and dF/dt + i curl F."""
    cfg = rc.source
    a = cfg.a_mag
    cut = FlatDisk()
    pol = rc.polarization()
    hs = np.array([1e-2, 5e-3, 2.5e-3]) * a
    t = 2.0 * a
    worst_slope = np.inf
    detail = []
    for n in (1, 4):
        w = ScalarWavelet(cut=cut, cfg=cfg, sig=CauchySignal(n))
        pts = _off_cut_points(rng, cfg, cut, n_points, clearance=6 * hs[0])
        F_of = lambda rr, tt: field(w, pol, rr, tt)
        res_wave, res_div, res_cc = [], [], []
        for h in hs:
            res_wave.append(float(np.sqrt(np.mean(np.abs(wave_residual(w, pts, t, h=h, order=2)) ** 2))))
            divF = fd.divergence(F_of, pts, t, h)
            dtF = fd.time_derivative(F_of, pts, t, h)
            curlF = fd.curl(F_of, pts, t, h)
            res_div.append(float(np.sqrt(np.mean(np.abs(divF) ** 2))))
            res_cc.append(float(np.sqrt(np.mean(_sum3(np.abs(dtF + 1j * curlF) ** 2)))))
        slopes = (_slope(hs, res_wave), _slope(hs, res_div), _slope(hs, res_cc))
        worst_slope = min(worst_slope, *slopes)
        detail.append(f"n={n}: orders {slopes[0]:.2f}/{slopes[1]:.2f}/{slopes[2]:.2f}")
    return SuiteResult("wave-maxwell-residuals", worst_slope >= 1.9, worst_slope, 1.9,
                       detail="; ".join(detail))


@_timed
def suite_oracle_equivalence(rc: RunConfig, rng, n_points=100):
    """field() vs the curl-curl oracle, and Lorenz-residual convergence."""
    cfg = rc.source
    a = cfg.a_mag
    pol = rc.polarization()
    w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))
    pts = _off_cut_points(rng, cfg, w.cut, n_points, clearance=0.3 * a)
    t = 2.0 * a
    F = field(w, pol, pts, t)
    Fo = field_curl_oracle(w, pol, pts, t, h=1e-4 * a)
    rel = np.linalg.norm(F - Fo, axis=-1) / np.linalg.norm(F, axis=-1)
    worst = float(rel.max())
    hs = np.array([1e-2, 5e-3, 2.5e-3]) * a
    lr = [float(np.sqrt(np.mean(lorenz_residual(w, pol, pts[:20], t, h=h) ** 2))) for h in hs]
    slope = _slope(hs, lr)
    thr = 1e-5
    passed = worst <= thr and slope >= 1.9
    return SuiteResult("oracle-equivalence", passed, worst, thr,
                       detail=f"lorenz order {slope:.2f} (>=1.9)")


@_timed
def suite_impulse_response(rc: RunConfig, rng, n_points=10_000):
    """Closed-form impulse coefficients against the generic mixed-signal route."""
    mag_s = rng.uniform(0.3, 3.0, n_points)
    mag_t = rng.uniform(0.3, 3.0, n_points)
    s = mag_s * np.exp(1j * rng.uniform(0, 2 * np.pi, n_points))
    tau = mag_t * np.exp(1j * rng.uniform(0, 2 * np.pi, n_points))
    wlc = tau**2 - s**2
    keep = np.abs(wlc) > 0.2 * (np.abs(tau) ** 2 + np.abs(s) ** 2)
    s, tau = s[keep], tau[keep]
    generic = tilde_lmn(CauchySignal(1), s, tau)
    closed = impulse_tilde_lmn(s, tau)
    worst = 0.0
    for x, y in zip(generic, closed):
        worst = max(worst, float((np.abs(x - y) / np.abs(y)).max()))
    thr = 1e-11
    return SuiteResult("impulse-closed-forms", worst <= thr, worst, thr,
                       detail=f"{len(s)} (sigma,tau) samples off the light cone")


@_timed
def suite_coulomb(rc: RunConfig, rng):
    """Disk sources, vanishing magnetic parts, and the rim-divergence control."""
    cfg = rc.source
    a = cfg.a_mag
    j0, _ = coulomb_disk_sources(0.0, 0.0, cfg)
    err_center = abs(j0 + a / (2 * np.pi * a**3)) / abs(j0)
    # magnetic parts on the disk interior must fall with alpha
    rhos = np.linspace(0.05 * a, 0.8 * a, 20)
    qs = np.sqrt(a**2 - rhos**2)
    phis = np.linspace(0.3, 5.9, 20)
    mags = []
    for k in (2, 3, 4):
        s = coulomb_spheroid_sources(a / 2**k, qs, phis, cfg)
        mags.append(np.abs(s.j0_magnetic) + np.linalg.norm(s.j_magnetic, axis=-1))
    mono = np.all(mags[1] < mags[0]) and np.all(mags[2] < mags[1])
    # total disk charge diverges as the mesh refines toward the rim
    totals = []
    for k in (2, 3, 4, 5):
        rho_max = a * (1.0 - 2.0 ** -(2 * k))
        rr = np.linspace(0.0, rho_max, 2000)
        jj, _ = coulomb_disk_sources(rr, 0.0, cfg)
        totals.append(abs(2 * np.pi * np.trapezoid(jj * rr, rr)))
    diverges = all(t2 > 1.5 * t1 for t1, t2 in zip(totals, totals[1:]))
    passed = err_center <= 1e-14 and bool(mono) and diverges
    return SuiteResult(
        "coulomb-disk", passed, float(err_center), 1e-14,
        detail=f"magnetic monotone={bool(mono)}, rim integral {totals[0]:.2f}->{totals[-1]:.2f}",
    )


@_timed
def suite_beam_diagnostics(rc: RunConfig, rng):
    """Duration, diffraction angle, spectral moments and far-field helicity."""
    cfg0 = rc.source
    a = cfg0.a_mag
    worst_T = worst_ang = worst_spec = 0.0
    for n in (1, 4, 16):
        for b in (1.01 * a, 1.5 * a):
            cfg = SourceConfig(a=cfg0.a, b=b)
            thetas = [0.0, np.pi / 3, 2 * np.pi / 3, np.pi]
            rows = beam_profile_rows(n, cfg, thetas, R=R_FACTOR * a)
            worst_T = max(worst_T, max(r[3] for r in rows))
            th_pred, th_meas = diffraction_angles(n, cfg)
            worst_ang = max(worst_ang, abs(th_meas / th_pred - 1.0))
            prof, (c_meas, w_meas) = spectral_profiles(n, cfg.b)
            worst_spec = max(worst_spec, abs(c_meas / prof.center - 1.0), abs(w_meas / prof.width - 1.0))
    # helicity residual must fall by at least x0.15 from r = 10a to 100a
    cfg = SourceConfig(a=cfg0.a, b=1.5 * a)
    h10, h100 = helicity_residuals(ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1)), rc.polarization())
    hel_ok = h100 <= 0.15 * h10
    passed = worst_T <= 0.05 and worst_ang <= 0.10 and worst_spec <= 0.02 and hel_ok
    return SuiteResult(
        "beam-diagnostics", passed, worst_T, 0.05,
        detail=f"angle gap {worst_ang:.3f} (<=0.10), spectral gap {worst_spec:.4f} (<=0.02), "
        f"helicity {h100:.2e} vs 0.15*{h10:.2e}",
    )


@_timed
def suite_interior_continuity(rc: RunConfig, rng, n_pairs=1000):
    """No jump of the interior wavelet and joint field across the disk."""
    cfg = rc.source
    a = cfg.a_mag
    alpha = 0.1 * a
    delta = 2.5e-10 * a
    w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))
    pol = rc.polarization()
    qs = rng.uniform(0.2 * a, 0.95 * a, n_pairs)
    phis = rng.uniform(0, 2 * np.pi, n_pairs)
    base = spheroid_point(0.0, qs, phis, cfg)
    up = base + delta * cfg.a_hat
    dn = base - delta * cfg.a_hat
    t = 1.3 * a
    pu = interior_psi(w, up, t)
    pd = interior_psi(w, dn, t)
    rel_psi = np.abs(pu - pd) / np.maximum(np.abs(pu), 1e-30)
    Fu = joint_field(w, pol, up, t, alpha=alpha)
    Fd = joint_field(w, pol, dn, t, alpha=alpha)
    rel_F = np.linalg.norm(Fu - Fd, axis=-1) / np.maximum(np.linalg.norm(Fu, axis=-1), 1e-30)
    worst = float(max(rel_psi.max(), rel_F.max()))
    thr = 1e-8
    return SuiteResult("interior-continuity", worst <= thr, worst, thr,
                       detail=f"{n_pairs} straddle pairs across the disk")


@_timed
def suite_sources_approx(rc: RunConfig, rng, n_samples=1000):
    """Flat-spheroid approximate sources against the exact boundary values.

    At the configured polarization and at a_hat, whose sources come from the
    p_z = a_hat . pol terms alone (a transverse polarization has p_z = 0).
    """
    cfg = rc.source
    a = cfg.a_mag
    alpha = 0.01 * a
    w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(4))
    qs = rng.uniform(0.2 * a, 0.98 * a, n_samples) * rng.choice([-1.0, 1.0], n_samples)
    phis = rng.uniform(0, 2 * np.pi, n_samples)
    t = 1.2 * a
    worst = med = 0.0
    for pol in (rc.polarization(), cfg.a_hat):
        ex = surface_sources_exact(w, pol, qs, phis, alpha, t, q_min=0.0)
        ap = surface_sources_approx(w, pol, qs, phis, alpha, t, q_min=0.0)
        dev_j0 = np.abs(ap.j0 - ex.j0) / np.abs(ex.j0).max()
        dev_j = np.linalg.norm(ap.j - ex.j, axis=-1) / np.linalg.norm(ex.j, axis=-1).max()
        worst = max(worst, float(dev_j0.max()), float(dev_j.max()))
        med = max(
            med,
            float(np.median(np.abs(ap.j0 - ex.j0) / np.abs(ex.j0))),
            float(np.median(np.linalg.norm(ap.j - ex.j, axis=-1) / np.linalg.norm(ex.j, axis=-1))),
        )
    thr = 0.10
    passed = worst <= thr and med <= thr
    return SuiteResult("sources-approx-vs-exact", passed, worst, thr,
                       detail=f"median pointwise rel {med:.3f}, alpha=0.01a, |q|>=0.2a, pol and a_hat")


@_timed
def suite_spectra(rc: RunConfig, rng):
    """Numeric transforms against the closed-form spectrum; one-sidedness."""
    cfg = rc.source
    b = abs(cfg.b)
    worst = 0.0
    for n in (1, 2, 4):
        sig = CauchySignal(n)
        om = np.linspace(0.0, 10.0 / b, 21)
        ft = de_fourier(lambda t: sig.eval(np.asarray(t) - 1j * b), om)
        exact = spectrum_cauchy(n, om, b)
        worst = max(worst, float(np.abs(ft - exact).max() / np.abs(exact).max()))
    om16 = np.linspace(0.0, 30.0 / b, 40)
    ft16 = cauchy_series_transform({16: 1.0}, 1j * b, om16)
    worst = max(worst, float(np.abs(ft16 - spectrum_cauchy(16, om16, b)).max()
                             / np.abs(spectrum_cauchy(16, om16, b)).max()))
    # far-point wavelet time series carries no negative frequencies
    a = cfg.a_mag
    r = 50.0 * a * (0.3 * cfg.e1 + np.sqrt(1 - 0.09) * cfg.a_hat)
    sigma, _, q = complex_distance_principal(r, cfg)
    z_c = 1j * cfg.b + sigma
    om_neg = np.linspace(-10.0 / (b - q), -0.05 / (b - q), 60)
    om_pos = np.linspace(0.05 / (b - q), 10.0 / (b - q), 60)
    neg = cauchy_series_transform({1: 1.0}, z_c, om_neg)
    pos = cauchy_series_transform({1: 1.0}, z_c, om_pos)
    ratio = np.trapezoid(np.abs(neg) ** 2, om_neg) / np.trapezoid(np.abs(pos) ** 2, om_pos)
    thr = 1e-6
    passed = worst <= thr and ratio <= thr
    return SuiteResult("spectra", passed, worst, thr,
                       detail=f"negative-frequency energy ratio {ratio:.1e}")


@_timed
def suite_analyticity(rc: RunConfig, rng, n_points=200):
    """Cauchy-Riemann residuals of g(tau) and of the field coefficients in (sigma, tau)."""
    sig = CauchySignal(2)
    worst = 0.0
    for half in (+1.0, -1.0):
        tau = rng.uniform(0.5, 3.0, n_points) - 1j * half * rng.uniform(0.5, 3.0, n_points)
        h = 1e-4 * np.abs(tau)
        d_re = fd.nth_derivative_param(sig.eval, tau, 1, h)
        d_im = fd.nth_derivative_param(lambda e: sig.eval(tau + 1j * e), 0.0, 1, h)
        res = np.abs(d_re + 1j * d_im) / np.abs(sig.eval(tau))
        worst = max(worst, float((res * np.abs(tau)).max()))
    # L, M, N in both complex variables
    s = rng.uniform(0.5, 2.0, n_points) * np.exp(1j * rng.uniform(-1.2, 1.2, n_points))
    tau = 2.5 - 1.5j + 0.3 * rng.standard_normal(n_points)
    for var in ("sigma", "tau"):
        h = 1e-5
        if var == "sigma":
            f = lambda x: np.stack(lmn(sig, x, tau))
            x0 = s
        else:
            f = lambda x: np.stack(lmn(sig, s, x))
            x0 = tau
        d_re = fd.nth_derivative_param(f, x0, 1, h)
        d_im = fd.nth_derivative_param(lambda e: f(x0 + 1j * e), 0.0, 1, h)
        res = np.abs(d_re + 1j * d_im) / np.maximum(np.abs(f(x0)), 1e-30)
        worst = max(worst, float(res.max()))
    thr = 1e-6
    return SuiteResult("analyticity", worst <= thr, worst, thr)


def _surface_divergence(w, pol, alpha, qs, phis, t, h):
    """(d j0/dt + surface divergence of j) on the spheroid, by central differences."""
    cfg = w.cfg
    a = cfg.a_mag

    rho_of = lambda q: _spheroid_rho(alpha, q, a)
    drho_of = lambda q: -q * (alpha**2 + a**2) / (a**2 * rho_of(q))
    h_q_of = lambda q: np.hypot(drho_of(q), alpha / a)

    def jcomp(q, phi, which):
        j = surface_sources_exact(w, pol, q, phi, alpha, t, q_min=0.0).j
        e_rho, e_phi = _cylindrical_basis(phi, cfg)
        if which == "phi":
            return _dot(j, e_phi)
        tvec = drho_of(q)[..., None] * e_rho + (alpha / a) * cfg.a_hat
        return _dot(j, tvec / np.linalg.norm(tvec, axis=-1)[..., None])

    j0_of = lambda tt: surface_sources_exact(w, pol, qs, phis, alpha, tt, q_min=0.0).j0
    dj0_dt = fd.nth_derivative_param(j0_of, t, 1, h)
    term_q = fd.nth_derivative_param(lambda q: rho_of(q) * jcomp(q, phis, "q"), qs, 1, h)
    term_phi = fd.nth_derivative_param(lambda phi: h_q_of(qs) * jcomp(qs, phi, "phi"), phis, 1, h)
    div_s = (term_q + term_phi) / (h_q_of(qs) * rho_of(qs))
    return dj0_dt + div_s


@_timed
def suite_surface_continuity(rc: RunConfig, rng):
    """Charge conservation on the spheroid: d j0/dt + div_s j -> 0 at O(h^2)."""
    cfg = rc.source
    a = cfg.a_mag
    alpha = 0.05 * a
    w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(4))
    pol = rc.polarization()
    qs = np.linspace(0.25 * a, 0.9 * a, 12)
    phis = np.linspace(0.2, 6.0, 12)
    t = 1.2 * a
    hs = np.array([2e-3, 1e-3, 5e-4]) * a
    res = [
        float(np.sqrt(np.mean(np.abs(_surface_divergence(w, pol, alpha, qs, phis, t, h)) ** 2)))
        for h in hs
    ]
    slope = _slope(hs, res)
    return SuiteResult("surface-continuity", slope >= 1.9, slope, 1.9,
                       detail=f"residuals {res[0]:.2e} -> {res[-1]:.2e}, |q| >= 0.25a")


@_timed
def suite_determinism(rc: RunConfig, rng):
    """Serial and parallel grid sweeps produce byte-identical CSV."""
    rc2 = default_config()
    rc2.grid = {
        "x": AxisSpec(-1.5, 1.5, 29),
        "y": AxisSpec(0.0, 0.0, 1),
        "z": AxisSpec(0.5, 2.0, 29),
        "t": AxisSpec(1.0, 2.0, 3),
    }
    outs = []
    for threads in (1, 4):
        blocks = list(field_rows(rc2, threads=threads))  # a single block would run serially whatever the threads
        buf = io.BytesIO()
        write_csv(buf, FIELD_HEADER_F, blocks)
        outs.append(buf.getvalue())
    same = outs[0] == outs[1]
    return SuiteResult("determinism", same and len(blocks) >= 2, 0.0 if same else 1.0, 0.0,
                       detail=f"{len(outs[0].splitlines()) - 1} records in {len(blocks)} chunks, threads 1 vs 4")


ALL_SUITES = [
    suite_appendix_identities,
    suite_sigma_algebra,
    suite_wave_maxwell,
    suite_oracle_equivalence,
    suite_impulse_response,
    suite_coulomb,
    suite_beam_diagnostics,
    suite_interior_continuity,
    suite_sources_approx,
    suite_spectra,
    suite_analyticity,
    suite_surface_continuity,
    suite_determinism,
]


def run_all(rc: RunConfig, seed: int = 0):
    """Run the battery; returns the list of SuiteResult."""
    results = []
    for suite in ALL_SUITES:
        rng = np.random.default_rng(seed)
        results.append(suite(rc, rng))
    return results
