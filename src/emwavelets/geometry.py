"""Complex distance from an imaginary source point and its branch structure.

The distance from the displaced point i*a to a real field point r is
sigma = sqrt((r - i a).(r - i a)) = p - i q.  Level sets of p are oblate
spheroids confocal with the circle C = {|r| = a, a.r = 0} where sigma
vanishes; level sets of q are the orthogonal hyperboloids.  sigma is
double-valued on R^3 - C and a branch cut (a membrane spanning C) must be
chosen to make it single-valued.  This module provides the principal
branch (flat-disk cut, p >= 0), the standard cut families with their shared
sign rule, the coordinate transforms, and the gradient/unit-vector frame.

Conventions: vectors are ndarrays with shape (..., 3); scalar results
broadcast over the leading axes.  On the disk itself the principal branch
takes the limit from the a.r > 0 side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import OnBranchCircleError, OnCutError, _refuse

__all__ = [
    "SourceConfig",
    "OblateCoords",
    "ComplexDistanceSample",
    "BranchCut",
    "FlatDisk",
    "UpperSpheroid",
    "LowerSpheroid",
    "SmoothSpheroid",
    "CustomCut",
    "complex_distance_principal",
    "complex_distance",
    "cut_sign",
    "continued_sign",
    "to_oblate",
    "from_oblate",
    "spheroid_point",
    "smooth_cut_function",
    "frame",
    "on_reference_cut",
    "branch_circle_distance",
]

_AXIS_TOL = 0.9


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def _norm(v):
    return np.sqrt(np.sum(np.real(v) ** 2 + np.imag(v) ** 2, axis=-1))


def _axial(r, cfg):
    """(z, rho): height along a_hat and distance from the source axis."""
    z = _dot(r, cfg.a_hat)
    return z, _norm(r - z[..., None] * cfg.a_hat)


def _cylindrical_basis(phi, cfg):
    """(e_rho, e_phi): the horizontal unit vectors at azimuth phi about a_hat."""
    c = np.cos(phi)[..., None]
    s = np.sin(phi)[..., None]
    return c * cfg.e1 + s * cfg.e2, -s * cfg.e1 + c * cfg.e2


def _spheroid_rho(alpha, q, a):
    """Distance from the axis of the point q on the spheroid p = alpha."""
    return np.sqrt((alpha**2 + a**2) * (a**2 - q**2)) / a


@dataclass(frozen=True)
class SourceConfig:
    """Imaginary source displacement a, imaginary time b, propagation speed c.

    Requires |a| > 0 (the branch circle must not degenerate to a point)
    and c*|b| > |a| so that pulses built on this source are defined
    everywhere.
    """

    a: np.ndarray
    b: float
    c: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (3,):
            raise ValueError("a must be a 3-vector")
        object.__setattr__(self, "a", a)
        a_mag = float(np.linalg.norm(a))
        if not a_mag > 0.0:
            raise ValueError("|a| must be positive; a real point source has no branch circle")
        if not self.c > 0.0:
            raise ValueError("propagation speed c must be positive")
        if not self.c * abs(self.b) > a_mag:
            raise ValueError("need c*|b| > |a| for globally defined pulses")
        object.__setattr__(self, "a_mag", a_mag)
        a_hat = a / a_mag
        # deterministic transverse basis (e1, e2, a_hat)
        ref = np.array([1.0, 0.0, 0.0]) if abs(a_hat[0]) < _AXIS_TOL else np.array([0.0, 1.0, 0.0])
        e1 = ref - np.dot(ref, a_hat) * a_hat
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(a_hat, e1)
        object.__setattr__(self, "a_hat", a_hat)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    a_mag: float = field(init=False)
    a_hat: np.ndarray = field(init=False)
    e1: np.ndarray = field(init=False)
    e2: np.ndarray = field(init=False)


class OblateCoords(NamedTuple):
    p: np.ndarray
    q: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class ComplexDistanceSample:
    """Principal-branch sigma with its gradient frame at a field point."""

    sigma: np.ndarray
    p: np.ndarray
    q: np.ndarray
    grad_p: np.ndarray
    grad_q: np.ndarray
    u: np.ndarray
    e_p: np.ndarray
    e_q: np.ndarray


def complex_distance_principal(r, cfg: SourceConfig):
    """Principal branch of sigma(r - i a), flat disk as reference cut.

    Returns (sigma, p, q) with sigma = p - i q and p >= 0.  On the disk
    (p = 0) the value is the limit from the a.r > 0 face, q >= 0.
    """
    r = np.asarray(r, dtype=float)
    adotr = _dot(r, cfg.a)
    sigma2 = _dot(r, r) - cfg.a_mag**2 - 2j * adotr
    sigma = np.sqrt(sigma2)
    # Exactly-real negative sigma^2 (a.r == 0 inside the circle): take the
    # a.r -> 0+ face so that sigma = -i*sqrt(a^2 - rho^2).
    on_disk = (sigma2.imag == 0.0) & (sigma2.real < 0.0)
    if np.any(on_disk):
        fixed = -1j * np.sqrt(np.where(on_disk, -np.real(sigma2), 0.0))
        sigma = np.where(on_disk, fixed, sigma)
    return sigma, np.real(sigma), -np.imag(sigma)


def on_reference_cut(r, cfg: SourceConfig, tol: float | None = None):
    """True where r lies on the flat-disk reference cut (within tol)."""
    r = np.asarray(r, dtype=float)
    if tol is None:
        tol = 1e-9 * cfg.a_mag
    z, rho = _axial(r, cfg)
    return (np.abs(z) <= tol) & (rho <= cfg.a_mag)


def branch_circle_distance(r, cfg: SourceConfig):
    """Euclidean distance from r to the branch circle."""
    z, rho = _axial(np.asarray(r, dtype=float), cfg)
    return np.hypot(rho - cfg.a_mag, z)


def to_oblate(r, cfg: SourceConfig) -> OblateCoords:
    """Oblate spheroidal coordinates (p, q, phi) of the principal branch."""
    r = np.asarray(r, dtype=float)
    _, p, q = complex_distance_principal(r, cfg)
    return OblateCoords(p, q, _azimuth(r, cfg))


def _azimuth(r, cfg):
    """Azimuth phi in [0, 2 pi) of r about a_hat, measured from e1 towards e2."""
    z = _dot(r, cfg.a_hat)
    rho_vec = r - z[..., None] * cfg.a_hat
    return np.mod(np.arctan2(_dot(rho_vec, cfg.e2), _dot(rho_vec, cfg.e1)), 2.0 * np.pi)


def from_oblate(p, q, phi, cfg: SourceConfig, side: str = "upper"):
    """Cartesian point with coordinates (p, |q|, phi); side picks the sign of a.r.

    The pair (p, q) determines the point only up to the twofold cover;
    side = "upper" places it on the a.r >= 0 sheet, "lower" on the other.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    q = np.abs(np.asarray(q, dtype=float))
    return spheroid_point(p, q if side == "upper" else -q, phi, cfg)


def spheroid_point(alpha, q, phi, cfg: SourceConfig):
    """Point of the spheroid p = alpha at surface coordinates (q, phi).

    The sign of q selects the hemisphere: a.r = alpha*q.
    """
    alpha = np.asarray(alpha, dtype=float)
    q = np.asarray(q, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = cfg.a_mag
    if np.any(np.abs(q) > a * (1.0 + 1e-12)):
        raise ValueError("|q| must not exceed |a|")
    q = np.clip(q, -a, a)
    z = alpha * q / a
    e_rho, _ = _cylindrical_basis(phi, cfg)
    return _spheroid_rho(alpha, q, a)[..., None] * e_rho + z[..., None] * cfg.a_hat


def smooth_cut_function(q, alpha, eps):
    """Smoothed step alpha*X_eps(q), X_eps(q) = (1/pi) Im ln((eps+iq)/(eps-iq)).

    Odd in q and -> alpha*sgn(q) as eps -> 0.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    q = np.asarray(q, dtype=float)
    return alpha * (2.0 / np.pi) * np.arctan(q / eps)


# --------------------------------------------------------------------------
# Branch cuts


@dataclass(frozen=True)
class BranchCut:
    """A membrane p = chi(q, phi) spanning the branch circle.

    Deforming the reference disk p = 0 into the membrane flips the branch
    exactly in the region swept between them, 0 <= p < chi(q, phi), so
    every cut shares one sign rule; concrete cuts give chi and may replace
    the generic clearance estimate.  A point is refused where
    clearance(r) < tol (near_cut): the spheroid cuts screen that rule with
    a closed-form lower bound and run their exact clearance only inside the
    band, and clearance itself stays what each cut defines.
    """

    # False for a chi that ignores phi: it is given phi = None, and no azimuth is computed
    _reads_phi = True

    def sign(self, r, cfg: SourceConfig):
        """sigma_cut/sigma_principal: -1 between the disk and the membrane, else +1."""
        r = np.asarray(r, dtype=float)
        _, p, q = complex_distance_principal(r, cfg)
        return self._sign(r, p, q, cfg)

    def _sign(self, r, p, q, cfg):
        """sign(r, cfg) from the principal p and q at r."""
        return np.where(p < self.cut_function(q, self._phi(r, cfg)), -1, 1)

    def _phi(self, r, cfg):
        return _azimuth(r, cfg) if self._reads_phi else None

    def cut_function(self, q, phi):
        """Cut membrane as p = chi(q, phi) on the double cover (odd in q)."""
        raise NotImplementedError

    def clearance(self, r, cfg: SourceConfig):
        """First-order estimate of the distance to the cut near the membrane, not a bound.

        |p - chi|/|grad p| drops the chi'(q)|grad q| term, and off the q >= 0
        sheet a membrane over the disk may be nearer than the branch circle.
        """
        r = np.asarray(r, dtype=float)
        d_circle = branch_circle_distance(r, cfg)
        _, p, q = complex_distance_principal(r, cfg)
        chi = np.asarray(self.cut_function(np.abs(q), self._phi(r, cfg)), dtype=float)
        # metric distance ~ coordinate residual / |grad p|
        scale = np.sqrt((p**2 + q**2) / (p**2 + cfg.a_mag**2))
        d_surface = np.abs(p - chi) * scale
        # the membrane lives on the q > 0 sheet; off it only the circle is counted
        d_surface = np.where(q >= 0.0, d_surface, np.inf)
        return np.minimum(d_surface, d_circle)

    def near_cut(self, r, cfg: SourceConfig, tol: float):
        """Mask of the points that cut_sign refuses: clearance(r) < tol, shaped like r[..., 0]."""
        return np.asarray(self.clearance(r, cfg) < tol)


@dataclass(frozen=True)
class FlatDisk(BranchCut):
    """Degenerate spheroid S_0: the reference cut of the principal branch."""

    _reads_phi = False

    def cut_function(self, q, phi):
        return np.zeros_like(np.asarray(q, dtype=float))

    def clearance(self, r, cfg):
        z, rho = _axial(np.asarray(r, dtype=float), cfg)
        inside = rho <= cfg.a_mag
        return np.where(inside, np.abs(z), np.hypot(rho - cfg.a_mag, z))

    def near_cut(self, r, cfg, tol):
        """Nothing: on the reference cut the principal branch takes the a.r > 0 face."""
        return np.zeros(np.shape(r)[:-1], dtype=bool)


# Fraction of (tol + A) by which the spheroid screen widens tol: the closed-form
# bound and the bisection each round at ~1e-16 (tol + A), far inside this margin.
_SCREEN_MARGIN = 1e-9


def _ellipse_bisection(rho, y1, a, alpha, big):
    """Exact distance from (rho, y1 >= 0) to the ellipse rho^2/A^2 + y^2/alpha^2 = 1.

    D. Eberly's bisection ("Distance from a Point to an Ellipse, ...", Geometric
    Tools, 2013) in t = s + 1, read at the bracket end nearest t = 1: only rounding
    can overestimate.
    """
    flat = y1 == 0.0
    n0, m = big * rho / alpha**2, (a / alpha) ** 2
    z1 = np.where(flat, 1.0, y1 / alpha)  # a stand-in keeps t > 0; z = 0 is replaced below
    lo, hi = z1, np.hypot(n0, z1)
    for _ in range(64):
        t = np.sqrt(lo) * np.sqrt(hi)  # geometric: t may be far below the bracket width
        outside = (n0 / (t + m)) ** 2 + (z1 / t) ** 2 > 1.0
        lo, hi = np.where(outside, t, lo), np.where(outside, hi, t)
    t = np.clip(1.0, lo, hi)
    d_ellipse = np.abs(1.0 - t) * np.hypot(rho / (t + m), y1 / t)
    u = np.minimum(big * rho / a**2, 1.0)
    return np.where(flat, np.hypot(big * u - rho, alpha * np.sqrt(1.0 - u**2)), d_ellipse)


def _ellipse_bound(rho, y1, a, alpha, big):
    """Closed-form lower bound on the distance from (rho, y1) to the same ellipse.

    F = rho^2/A^2 + y^2/alpha^2 - 1 is quadratic with Hessian at most 2/alpha^2, so
    F(X) = 0 at the nearest ellipse point X gives |F| <= g d + d^2/alpha^2 with
    g = |grad F| at the point, that is d >= 2|F| / (g + sqrt(g^2 + 4|F|/alpha^2)).
    """
    f = np.abs((rho / big) ** 2 + (y1 / alpha) ** 2 - 1.0)
    g = 2.0 * np.hypot(rho / big**2, y1 / alpha**2)
    return 2.0 * f / (g + np.sqrt(g * g + 4.0 * f / alpha**2))


def _spheroid_clearance(r, cfg, alpha, side, ellipse=_ellipse_bisection):
    """Distance from r to the half spheroid p = alpha on the side a.r*side > 0, with its apron.

    In the meridian plane (rho, y = side*a_hat.r) the cut is the quarter ellipse of
    semi-axes A = sqrt(a^2 + alpha^2) and alpha, confocal with the branch circle, and
    the apron a <= rho <= A.  The apron distance is exact; the ellipse distance is
    exact by default (_ellipse_bisection, the spheroids' clearance, which the
    difference oracles use as a stencil margin) or the closed-form lower bound
    _ellipse_bound, with which cut_sign screens its refusal rule clearance < tol_cut.
    For y < 0 it returns hypot(d(rho, 0), y), a lower bound as
    |P - X|^2 >= |P' - X|^2 + y^2 for every cut point X (P' the projection of P on
    the plane), exact where the nearest cut point is on the apron or the rim.
    """
    a, big = cfg.a_mag, math.hypot(cfg.a_mag, alpha)
    z, rho = _axial(np.asarray(r, dtype=float), cfg)
    y1 = np.maximum(side * z, 0.0)
    d_ellipse = ellipse(rho, y1, a, alpha, big)
    d_apron = np.hypot(np.maximum(np.maximum(a - rho, rho - big), 0.0), y1)
    return np.hypot(np.minimum(d_ellipse, d_apron), np.minimum(side * z, 0.0))


def _spheroid_near(cut, r, cfg, tol):
    """clearance(r) < tol, with the bisection run only where the closed-form bound is in the band.

    The bound never exceeds the exact distance but by rounding, so a point outside
    tol widened by _SCREEN_MARGIN cannot have clearance < tol; the points inside it
    are confirmed by cut.clearance.
    """
    r = np.asarray(r, dtype=float)
    widened = tol + _SCREEN_MARGIN * (tol + math.hypot(cfg.a_mag, cut.alpha))
    near = np.asarray(cut.clearance_bound(r, cfg) < widened)
    if np.any(near):
        near[near] = cut.clearance(r[near], cfg) < tol
    return near


@dataclass(frozen=True)
class UpperSpheroid(BranchCut):
    """Half spheroid p = alpha on the a.r > 0 side, closed by the flat apron."""

    alpha: float
    _reads_phi = False

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def cut_function(self, q, phi):
        return self.alpha * np.sign(np.asarray(q, dtype=float))

    def clearance(self, r, cfg):
        """Exact distance to the cut on its a.r >= 0 side; a lower bound beyond the disk plane."""
        return _spheroid_clearance(r, cfg, self.alpha, 1.0)

    def clearance_bound(self, r, cfg):
        """Closed-form lower bound on clearance, up to rounding (_ellipse_bound)."""
        return _spheroid_clearance(r, cfg, self.alpha, 1.0, _ellipse_bound)

    def near_cut(self, r, cfg, tol):
        """clearance(r) < tol, screened by clearance_bound (_spheroid_near)."""
        return _spheroid_near(self, r, cfg, tol)


@dataclass(frozen=True)
class LowerSpheroid(BranchCut):
    """Mirror image of UpperSpheroid on the a.r < 0 side."""

    alpha: float
    _reads_phi = False

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def cut_function(self, q, phi):
        return -self.alpha * np.sign(np.asarray(q, dtype=float))

    def clearance(self, r, cfg):
        """Exact distance to the cut on its a.r <= 0 side; a lower bound beyond the disk plane."""
        return _spheroid_clearance(r, cfg, self.alpha, -1.0)

    def clearance_bound(self, r, cfg):
        """Closed-form lower bound on clearance, up to rounding (_ellipse_bound)."""
        return _spheroid_clearance(r, cfg, self.alpha, -1.0, _ellipse_bound)

    def near_cut(self, r, cfg, tol):
        """clearance(r) < tol, screened by clearance_bound (_spheroid_near)."""
        return _spheroid_near(self, r, cfg, tol)


@dataclass(frozen=True)
class SmoothSpheroid(BranchCut):
    """Smoothed upper cut p = alpha*X_eps(q); closes onto the circle by itself."""

    alpha: float
    eps: float
    _reads_phi = False

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.eps > 0.0):
            raise ValueError("alpha and eps must be positive")

    def cut_function(self, q, phi):
        return smooth_cut_function(np.asarray(q, dtype=float), self.alpha, self.eps)


@dataclass(frozen=True)
class CustomCut(BranchCut):
    """Cut given by p = chi(q, phi) on the double cover.

    chi must be odd in q and 2*pi-periodic in phi (spot-checked at
    construction); the membrane is assumed to lie on the q >= 0 sheet
    (chi >= 0 there).  The sign follows the shared closed-form rule;
    continued_sign offers a path-continuation cross-check for any chi.
    """

    chi: Callable

    def __post_init__(self):
        qs = np.array([0.13, 0.47, 0.81])
        phis = np.array([0.3, 2.1, 5.5])
        odd = np.asarray(self.chi(qs, phis)) + np.asarray(self.chi(-qs, phis))
        per = np.asarray(self.chi(qs, phis + 2.0 * np.pi)) - np.asarray(self.chi(qs, phis))
        if np.any(np.abs(odd) > 1e-9 * (1.0 + np.abs(self.chi(qs, phis)))):
            raise ValueError("cut function must be odd in q")
        if np.any(np.abs(per) > 1e-9 * (1.0 + np.abs(self.chi(qs, phis)))):
            raise ValueError("cut function must be 2*pi-periodic in phi")

    def cut_function(self, q, phi):
        return self.chi(q, phi)


def continued_sign(cut: BranchCut, r, cfg: SourceConfig):
    """Sign of sigma_cut/sigma_principal by continuation from a far anchor.

    Tracks sigma continuously along the straight segment from the on-axis
    anchor 1e3*a to r in 4096 steps and counts crossings of the membrane
    p = chi(q, phi) in the continued coordinates.  The path lies in the
    meridian half-plane of r, so phi is that of r all along it.  A
    cross-check of the closed-form BranchCut.sign, but not an independent
    one: the parity of sign changes along the path is set by its end
    values, so for a chi odd in q the result is the endpoint test
    p < chi(q, phi) whatever the path does; the path adds its refusals.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    out = np.empty(r.shape[0], dtype=int)
    for lo in range(0, r.shape[0], 256):
        out[lo : lo + 256] = _continued_chunk(cut, r[lo : lo + 256], cfg)
    return out


def _continued_chunk(cut, r, cfg):
    """continued_sign of at most 256 points, whose temporaries end with the call."""
    phi = _azimuth(r, cfg)
    anchor = 1e3 * cfg.a_mag * cfg.a_hat
    # steps clustered toward the target end, where the cut geometry lives
    u = np.linspace(0.0, 1.0, 4096)
    s = (1.0 - (1.0 - u) ** 4)[:, None, None]
    sigma0, p0, q0 = complex_distance_principal(anchor + s * (r - anchor), cfg)  # (S, N)
    if np.min(np.abs(sigma0)) < 1e-6 * cfg.a_mag:
        raise OnBranchCircleError("continuation path passes too close to the branch circle")
    # continuation: branch[k] = +-1 so that branch*sigma0 is continuous, i.e.
    # branch[k] = branch[k-1] * (+1 where sigma0[k] is nearer sigma0[k-1] than -sigma0[k-1])
    branch = np.ones(sigma0.shape)
    branch[1:][np.abs(sigma0[1:] - sigma0[:-1]) > np.abs(sigma0[1:] + sigma0[:-1])] = -1.0
    branch = np.cumprod(branch, axis=0)
    chi = np.asarray(cut.cut_function(branch * q0, np.broadcast_to(phi, q0.shape)), dtype=float)
    f = branch * p0 - chi
    if np.any(np.abs(f[-1]) < 1e-12 * cfg.a_mag):
        raise OnCutError("endpoint lies on the cut surface")
    crossings = np.sum(np.signbit(f[1:]) != np.signbit(f[:-1]), axis=0)
    return np.where(crossings % 2 == 0, 1, -1) * branch[-1].astype(int)


def cut_sign(cut: BranchCut, r, cfg: SourceConfig, tol_cut: float | None = None):
    """Sign of sigma_cut relative to the principal branch: +1 outside, -1 inside.

    Raises OnCutError when any point has cut.clearance(r) < tol_cut, naming
    how many and the first of them (cut.near_cut; the flat disk is the
    reference cut and never raises).  The spheroid cuts screen that rule with
    a closed-form lower bound and compute their exact clearance only inside
    the band; clearance itself stays exact.
    """
    r = np.asarray(r, dtype=float)
    _, p, q = complex_distance_principal(r, cfg)
    return _cut_sign(cut, r, p, q, cfg, tol_cut)


def _cut_sign(cut, r, p, q, cfg, tol_cut):
    """cut_sign(cut, r, cfg, tol_cut) from the principal p and q at r, which the caller holds."""
    if tol_cut is None:
        tol_cut = 1e-9 * cfg.a_mag
    _refuse(OnCutError, "point lies on the branch cut (within tolerance)", cut.near_cut(r, cfg, tol_cut), r)
    return cut._sign(r, p, q, cfg)


def complex_distance(cut: BranchCut, r, cfg: SourceConfig, tol_cut: float | None = None):
    """sigma with the given branch cut: cut sign times the principal value."""
    r = np.asarray(r, dtype=float)
    sigma0, p, q = complex_distance_principal(r, cfg)
    return _cut_sign(cut, r, p, q, cfg, tol_cut) * sigma0


def frame(r, cfg: SourceConfig, guard: float | None = None) -> ComplexDistanceSample:
    """Principal sigma together with grad p, grad q, u and the unit vectors.

    grad p = (p r + q a)/(p^2+q^2), grad q = (p a - q r)/(p^2+q^2),
    u = grad p - i grad q, e_p and e_q the unit vectors along increasing
    p and q.  On the symmetry axis grad q vanishes and e_q is returned as
    the zero vector.
    """
    r = np.asarray(r, dtype=float)
    return _frame(r, *complex_distance_principal(r, cfg), cfg, guard)


def _frame(r, sigma, p, q, cfg, guard=None):
    """frame(r, cfg, guard) from the principal sigma, p and q at r, which the caller holds."""
    if guard is None:
        guard = 1e-8 * cfg.a_mag
    pq2 = p**2 + q**2
    _refuse(OnBranchCircleError, "field point on the branch circle (p = q = 0)", pq2 <= guard**2, r)
    a = cfg.a
    a_mag = cfg.a_mag
    num_p = p[..., None] * r + q[..., None] * a
    num_q = p[..., None] * a - q[..., None] * r
    grad_p = num_p / pq2[..., None]
    grad_q = num_q / pq2[..., None]
    u = grad_p - 1j * grad_q
    e_p = num_p / (np.sqrt(pq2) * np.sqrt(p**2 + a_mag**2))[..., None]
    nq = np.sqrt(pq2) * np.sqrt(np.maximum(a_mag**2 - q**2, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        e_q = np.where(nq[..., None] > 0.0, num_q / np.where(nq == 0.0, 1.0, nq)[..., None], 0.0)
    return ComplexDistanceSample(sigma=sigma, p=p, q=q, grad_p=grad_p, grad_q=grad_q, u=u, e_p=e_p, e_q=e_q)
