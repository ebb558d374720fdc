"""Complex distance from an imaginary source point and its branch structure.

The distance from the displaced point i*a to a real field point r is
sigma = sqrt((r - i a).(r - i a)) = p - i q.  Level sets of p are oblate
spheroids confocal with the circle C = {|r| = a, a.r = 0} where sigma
vanishes; level sets of q are the orthogonal hyperboloids.  sigma is
double-valued on R^3 - C and a branch cut (a membrane spanning C) must be
chosen to make it single-valued.  This module provides the principal
branch (flat-disk cut, p >= 0), the axisymmetric cuts p = chi(q) with
their shared sign rule, the coordinate transforms, and branch: sigma on the
branch a cut selects, with its gradient/unit-vector frame built when it is
read.

Conventions: units have c = 1, so time, b and a are lengths; vectors
are ndarrays with shape (..., 3); scalar results broadcast over the
leading axes.  On the disk itself the principal branch
takes the limit from the a.r > 0 side.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import OnBranchCircleError, OnCutError, refuse

__all__ = [
    "SourceConfig",
    "OblateCoords",
    "ComplexDistanceSample",
    "BranchCut",
    "FlatDisk",
    "UpperSpheroid",
    "LowerSpheroid",
    "SmoothSpheroid",
    "complex_distance_principal",
    "branch",
    "continued_sign",
    "to_oblate",
    "spheroid_point",
    "frame",
    "branch_circle_distance",
]

_AXIS_TOL = 0.9
CUT_TOL = 1e-9  # branch refuses a point whose clearance to the cut is below CUT_TOL * |a|


def _sum3(w):
    """Sum over a length-3 last axis, from the components.

    Bitwise equal to np.sum(w, axis=-1), which adds a length-3 axis in order
    starting from +0.0, in any memory layout.  (w0 + w1) + w2 differs from
    that only for a row of three -0.0, which np.sum gives as +0.0; the final
    += 0.0 turns -0.0 into +0.0 and leaves every other value alone.  The sign
    of a zero matters: the sign of sigma^2's imaginary zero picks the branch
    of np.sqrt.
    """
    out = w[..., 0] + w[..., 1]
    out += w[..., 2]
    out += 0.0
    return out


def _dot(u, v):
    """u . v over the last axis, from the components; broadcasts u against v.

    Bitwise equal to np.sum(u * v, axis=-1): the same products summed in the
    same order, with the final += 0.0 of _sum3, but with no (..., 3) product
    array, whose inner loops a (N, 3) x (3,) broadcast runs three long.
    """
    out = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    out += u[..., 2] * v[..., 2]
    out += 0.0
    return out


def _norm(v):
    """|v| over the last axis for real or complex v."""
    return np.sqrt(_sum3(np.real(v) ** 2 + np.imag(v) ** 2))


def _cross(u, v):
    """u x v over the last axis, from the components; broadcasts u against v.

    The same products and differences as np.cross, so bitwise equal to it
    for real and complex inputs, without its axis moves or a broadcast copy.
    """
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    np.subtract(u1 * v2, u2 * v1, out=out[..., 0])
    np.subtract(u2 * v0, u0 * v2, out=out[..., 1])
    np.subtract(u0 * v1, u1 * v0, out=out[..., 2])
    return out


def _component_major(shape, dtype):
    """An empty (..., 3) array whose component slices are contiguous: a (3, ...) buffer viewed component-last.

    Elementwise results that read it keep its layout, so each per-component
    pass over a frame vector reads contiguous memory.
    """
    buf = np.empty((3,) + shape[:-1], dtype)
    return buf.transpose(*range(1, buf.ndim), 0)


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
    """Imaginary source displacement a and imaginary time b, both lengths (units with c = 1).

    Requires |a| > 0 (the branch circle must not degenerate to a point)
    and |b| > |a| so that pulses built on this source are defined
    everywhere.  c is taken only as 1.
    """

    a: np.ndarray
    b: float
    c: InitVar[float] = 1.0

    def __post_init__(self, c):
        if c != 1.0:
            raise ValueError(f"c must be 1: time and b are lengths (units with c = 1), got {c!r}")
        a = np.asarray(self.a, dtype=float)
        if a.shape != (3,):
            raise ValueError("a must be a 3-vector")
        object.__setattr__(self, "a", a)
        a_mag = float(np.linalg.norm(a))
        if not a_mag > 0.0:
            raise ValueError("|a| must be positive; a real point source has no branch circle")
        if not abs(self.b) > a_mag:
            raise ValueError("need |b| > |a| for globally defined pulses")
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
    """sigma = sign*(p - i q) at the points r, with its gradient frame built on read.

    p and q are the principal coordinates.  sign is the cut sign for a
    sample of branch, and None on the principal branch (frame).  The frame
    is computed the first time it is read: grad p = (p r + q a)/(p^2+q^2),
    grad q = (p a - q r)/(p^2+q^2), u = sign*(grad p - i grad q), and the
    unit vector e_p along increasing p.  Construction refuses the points on
    the branch circle, p^2 + q^2 <= (1e-8 |a|)^2.
    """

    r: np.ndarray = field(repr=False)
    cfg: SourceConfig = field(repr=False)
    sigma: np.ndarray
    p: np.ndarray
    q: np.ndarray
    sign: np.ndarray | None = None

    def __post_init__(self):
        near = self._pq2 <= (1e-8 * self.cfg.a_mag) ** 2
        refuse(OnBranchCircleError, "field point on the branch circle (p = q = 0)", near, self.r)

    @cached_property
    def _pq2(self):
        return self.p**2 + self.q**2

    @cached_property
    def _num(self):
        """(p r + q a, p a - q r), written per component like _cross into component-major buffers."""
        p, q, r, a = self.p, self.q, self.r, self.cfg.a
        shape = np.broadcast_shapes(np.shape(p) + (3,), r.shape)
        dtype = np.result_type(p, q, r, a)
        gp, gq = _component_major(shape, dtype), _component_major(shape, dtype)
        for k in range(3):
            np.add(p * r[..., k], q * a[k], out=gp[..., k])
            np.subtract(p * a[k], q * r[..., k], out=gq[..., k])
        return gp, gq

    @cached_property
    def grad_p(self):
        return self._num[0] / self._pq2[..., None]

    @cached_property
    def grad_q(self):
        return self._num[1] / self._pq2[..., None]

    @cached_property
    def u(self):
        # grad p - i grad q in one complex buffer, by the real operations of that
        # complex expression: the same bits, signed zeros included
        gp, gq = self.grad_p, self.grad_q
        u = _component_major(gp.shape, complex)
        np.subtract(gp, 0.0 * gq, out=u.real)
        np.subtract(0.0, gq, out=u.imag)
        # the sign goes last, as s*u: for an int s, s*u and -u differ in the sign of a zero
        return u if self.sign is None else np.asarray(self.sign)[..., None] * u

    @cached_property
    def e_p(self):
        return self._num[0] / (np.sqrt(self._pq2) * np.sqrt(self.p**2 + self.cfg.a_mag**2))[..., None]


def complex_distance_principal(r, cfg: SourceConfig):
    """Principal branch of sigma(r - i a), flat disk as reference cut.

    Returns (sigma, p, q) with sigma = p - i q and p >= 0.  On the disk
    (p = 0) the value is the limit from the a.r > 0 face, q >= 0.
    """
    r = np.asarray(r, dtype=float)
    adotr = _dot(r, cfg.a)
    # sigma^2 = r.r - a^2 - 2i a.r, written into one complex buffer by the real
    # operations numpy runs for that complex expression, so every bit, and the
    # sign of the imaginary zero that picks the branch of np.sqrt, is the same
    sigma2 = np.empty(np.shape(adotr), dtype=complex)
    np.subtract(_dot(r, r) - cfg.a_mag**2, 0.0 * adotr, out=sigma2.real)
    np.subtract(0.0, 2.0 * adotr, out=sigma2.imag)
    # Exactly-real negative sigma^2 (a.r == 0 inside the circle): take the
    # a.r -> 0+ face so that sigma = -i*sqrt(a^2 - rho^2).
    on_disk = (sigma2.imag == 0.0) & (sigma2.real < 0.0)
    if on_disk.any():
        fixed = -1j * np.sqrt(np.where(on_disk, -np.real(sigma2), 0.0))
        sigma = np.where(on_disk, fixed, np.sqrt(sigma2))
    else:  # in place; [()] makes one point's 0-d result a scalar, as np.sqrt of a scalar is
        sigma = np.sqrt(sigma2, out=sigma2)[()]
    return sigma, np.real(sigma), -np.imag(sigma)


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


# --------------------------------------------------------------------------
# Branch cuts


@dataclass(frozen=True)
class BranchCut:
    """An axisymmetric membrane p = chi(q) spanning the branch circle.

    Deforming the reference disk p = 0 into the membrane flips the branch
    exactly in the region swept between them, 0 <= p < chi(q), so every cut
    shares one sign rule; concrete cuts give chi (odd in q) and their
    clearance.  A point is refused where clearance(r) < tol (near_cut, which
    also takes the principal p and q at r, so no cut computes them again):
    the spheroid cuts screen that rule with a closed-form lower bound and
    run their exact clearance only inside the band, and clearance itself
    stays what each cut defines.
    """

    def sign(self, r, cfg: SourceConfig):
        """sigma_cut/sigma_principal: -1 between the disk and the membrane, else +1."""
        _, p, q = complex_distance_principal(r, cfg)
        return self._sign(p, q)

    def _sign(self, p, q):
        """sign(r, cfg) from the principal p and q at r."""
        return np.where(p < self.cut_function(q), -1, 1)


@dataclass(frozen=True)
class FlatDisk(BranchCut):
    """Degenerate spheroid S_0: the reference cut of the principal branch."""

    def cut_function(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))

    def clearance(self, r, cfg):
        z, rho = _axial(np.asarray(r, dtype=float), cfg)
        inside = rho <= cfg.a_mag
        return np.where(inside, np.abs(z), np.hypot(rho - cfg.a_mag, z))

    def near_cut(self, r, p, q, cfg, tol):
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
    _ellipse_bound, with which near_cut screens branch's refusal rule clearance < CUT_TOL * |a|.
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


@dataclass(frozen=True)
class HalfSpheroid(BranchCut):
    """Half spheroid p = alpha on the side side*(a.r) > 0, closed by the flat apron.

    UpperSpheroid (side = +1) and LowerSpheroid (side = -1) are its two mirror images.
    """

    alpha: float
    side: ClassVar[float]

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def cut_function(self, q):
        return self.side * self.alpha * np.sign(np.asarray(q, dtype=float))

    def clearance(self, r, cfg):
        """Exact distance to the cut on its side of the disk plane; a lower bound beyond it."""
        return _spheroid_clearance(r, cfg, self.alpha, self.side)

    def clearance_bound(self, r, cfg):
        """Closed-form lower bound on clearance, up to rounding (_ellipse_bound)."""
        return _spheroid_clearance(r, cfg, self.alpha, self.side, _ellipse_bound)

    def near_cut(self, r, p, q, cfg, tol):
        """clearance(r) < tol, with the bisection run only where clearance_bound is in the band.

        The bound never exceeds the exact distance but by rounding, so a point outside
        tol widened by _SCREEN_MARGIN cannot have clearance < tol; the points inside it
        are confirmed by clearance.
        """
        r = np.asarray(r, dtype=float)
        widened = tol + _SCREEN_MARGIN * (tol + math.hypot(cfg.a_mag, self.alpha))
        near = np.asarray(self.clearance_bound(r, cfg) < widened)
        if np.any(near):
            near[near] = self.clearance(r[near], cfg) < tol
        return near


class UpperSpheroid(HalfSpheroid):
    """Half spheroid p = alpha on the a.r > 0 side, closed by the flat apron."""

    side = 1.0


class LowerSpheroid(HalfSpheroid):
    """Mirror image of UpperSpheroid on the a.r < 0 side."""

    side = -1.0


@dataclass(frozen=True)
class SmoothSpheroid(BranchCut):
    """Smoothed upper cut p = alpha*X_eps(q); closes onto the circle by itself.

    X_eps(q) = (1/pi) Im ln((eps+iq)/(eps-iq)) is odd in q, and alpha*X_eps(q)
    -> alpha*sgn(q) as eps -> 0.
    """

    alpha: float
    eps: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.eps > 0.0):
            raise ValueError("alpha and eps must be positive")

    def cut_function(self, q):
        return self.alpha * (2.0 / np.pi) * np.arctan(np.asarray(q, dtype=float) / self.eps)

    def clearance(self, r, cfg):
        """First-order estimate of the distance to the cut near the membrane, not a bound.

        |p - chi|/|grad p| drops the chi'(q)|grad q| term, and off the q >= 0
        sheet a membrane over the disk may be nearer than the branch circle.
        """
        _, p, q = complex_distance_principal(r, cfg)
        return self._clearance(np.asarray(r, dtype=float), p, q, cfg)

    def near_cut(self, r, p, q, cfg, tol):
        """clearance(r) < tol, from the principal p and q at r."""
        return np.asarray(self._clearance(r, p, q, cfg) < tol)

    def _clearance(self, r, p, q, cfg):
        """clearance(r) from the principal p and q at r."""
        d_circle = branch_circle_distance(r, cfg)
        chi = self.cut_function(np.abs(q))
        # metric distance ~ coordinate residual / |grad p|
        scale = np.sqrt((p**2 + q**2) / (p**2 + cfg.a_mag**2))
        d_surface = np.abs(p - chi) * scale
        # the membrane lives on the q > 0 sheet; off it only the circle is counted
        d_surface = np.where(q >= 0.0, d_surface, np.inf)
        return np.minimum(d_surface, d_circle)


def continued_sign(cut: BranchCut, r, cfg: SourceConfig):
    """Sign of sigma_cut/sigma_principal by continuation from a far anchor.

    Tracks sigma continuously along the straight segment from the on-axis
    anchor 1e3*a to r in 4096 steps and counts crossings of the membrane
    p = chi(q) in the continued coordinates.  A cross-check of the
    closed-form BranchCut.sign, but not an independent one: the parity of
    sign changes along the path is set by its end values, so for a chi odd
    in q the result is the endpoint test p < chi(q) whatever the path does;
    the path adds its refusals.  So it cannot catch a wrong rule, and
    nothing in the package calls it: it is kept only as the benchmark's
    reference sign for the spheroid sweep.  The validation battery gates
    the rule by closed forms.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    out = np.empty(r.shape[0], dtype=int)
    for lo in range(0, r.shape[0], 256):
        out[lo : lo + 256] = _continued_chunk(cut, r[lo : lo + 256], cfg)
    return out


def _continued_chunk(cut, r, cfg):
    """continued_sign of at most 256 points, whose temporaries end with the call."""
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
    f = branch * p0 - cut.cut_function(branch * q0)
    if np.any(np.abs(f[-1]) < 1e-12 * cfg.a_mag):
        raise OnCutError("endpoint lies on the cut surface")
    crossings = np.sum(np.signbit(f[1:]) != np.signbit(f[:-1]), axis=0)
    return np.where(crossings % 2 == 0, 1, -1) * branch[-1].astype(int)


def branch(cut: BranchCut, r, cfg: SourceConfig) -> ComplexDistanceSample:
    """sigma on the branch that cut selects at r, from one principal sigma per point.

    The one resolution of the cut sign that refuses points: raises OnCutError
    when any point has cut.clearance(r) < CUT_TOL * |a|, naming
    how many and the first of them (cut.near_cut; the flat disk is the
    reference cut and never raises), then refuses points on the branch circle.
    The spheroid cuts screen that rule with a closed-form lower bound and
    compute their exact clearance only inside the band.  BranchCut.sign is
    the same sign rule without the refusals.
    """
    r = np.asarray(r, dtype=float)
    sigma0, p, q = complex_distance_principal(r, cfg)
    near = cut.near_cut(r, p, q, cfg, CUT_TOL * cfg.a_mag)
    refuse(OnCutError, "point lies on the branch cut (within tolerance)", near, r)
    s = cut._sign(p, q)
    return ComplexDistanceSample(r, cfg, s * sigma0, p, q, sign=s)


def frame(r, cfg: SourceConfig) -> ComplexDistanceSample:
    """The principal branch at r, with its frame built on read; refuses the branch circle."""
    r = np.asarray(r, dtype=float)
    return ComplexDistanceSample(r, cfg, *complex_distance_principal(r, cfg))
