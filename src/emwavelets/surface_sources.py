"""Equivalent surface charge/current densities on the radiating spheroid.

The jump of the field across the spheroid p = alpha,
dF = F(sigma) - F(-sigma), is carried by surface sources

    j0 = e_p . dF,        j = -i e_p x dF,

complex because they mix electric (real) and magnetic (imaginary) parts.
The jump has the field's form L*lam*u - M*pol - i*N*(u x pol); its tilde
coefficients are lmn's formula taken of the mixed signals
g+- = g(tau-sigma) +- g(tau+sigma).  For the impulse drive (n = 1 Cauchy
kernel) they reduce to rational closed forms in (sigma, tau): the
antenna's impulse response.  The response to a band-pass drive C_n is
surface_sources_exact of a wavelet driven by C_n.  The analytically continued
Coulomb field provides the static validation example.  Its disk-limit
sources are a charge density and an azimuthal current j = j0 v with
v = (c rho/a) e_phi: the picture of a charged disk spinning rigidly at the
angular velocity c/a, whose rim moves at the speed of light.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LightConePoleError, NearRimError, RimSingularityError, SubRadiatingError
from .em_fields import LMNTriplet, _as_pol, _lmn_kernel, _nonzero_sigma, assemble, lmn
from .geometry import (
    ComplexDistanceSample,
    SourceConfig,
    _cross,
    _cylindrical_basis,
    _dot,
    spheroid_point,
)
from .scalar_wavelet import ScalarWavelet
from .signals import mixed_signals

__all__ = [
    "SurfaceSourceSample",
    "field_jump",
    "tilde_lmn",
    "impulse_tilde_lmn",
    "impulse_surface_sources",
    "surface_sources_exact",
    "surface_sources_approx",
    "coulomb_disk_sources",
    "coulomb_spheroid_sources",
    "disk_angular_velocity",
    "effective_aperture",
]

DEFAULT_Q_MIN_FRAC = 0.1
LIGHTCONE_TOL = 1e-8


@dataclass(frozen=True)
class SurfaceSourceSample:
    """Complex surface charge j0 and current j at a spheroid point.

    Electric parts are the real components, magnetic parts the imaginary
    components.
    """

    position: np.ndarray
    q: np.ndarray
    phi: np.ndarray
    j0: np.ndarray
    j: np.ndarray

    @property
    def j0_magnetic(self):
        return np.imag(self.j0)

    @property
    def j_magnetic(self):
        return np.imag(self.j)


def _check_rim(q, cfg, q_min):
    if q_min is None:
        q_min = DEFAULT_Q_MIN_FRAC * cfg.a_mag
    if q_min > 0.0 and np.any(np.abs(np.asarray(q, dtype=float)) < q_min):
        raise NearRimError(
            f"|q| < {q_min:g}: inside the rim exclusion band, where the flat-spheroid "
            "approximation and the jump conditions degrade"
        )


def _refuse_light_cone(sigma, tau):
    """w = tau^2 - sigma^2, refusing tau = +-sigma, where the jump coefficients have a pole."""
    w = tau**2 - sigma**2
    if np.any(np.abs(w) < LIGHTCONE_TOL * (np.abs(tau) ** 2 + np.abs(sigma) ** 2)):
        raise LightConePoleError("tau = +-sigma: on the light cone of the surface point")
    return w


def tilde_lmn(sig, sigma, tau) -> LMNTriplet:
    """Jump coefficients: lmn's formula taken of the mixed signals g+- (signals.mixed_signals),

    Lt = g..+/s + 3g.-/s^2 + 3g+/s^3, Mt = g..+/s + g.-/s^2 + g+/s^3,
    Nt = g..-/s + g.+/s^2.
    """
    sigma = _nonzero_sigma(sigma)
    tau = np.asarray(tau, dtype=complex)
    _refuse_light_cone(sigma, tau)
    gp, gm, gp1, gm1, gp2, gm2 = mixed_signals(sig, sigma, tau)
    return _lmn_kernel(sigma, gp, gm1, gp2, gp1, gm2)


def impulse_tilde_lmn(sigma, tau) -> LMNTriplet:
    """Closed-form jump coefficients for the impulse drive, w = tau^2 - sigma^2:

    Lt = (15 s^4 t - 10 s^2 t^3 + 3 t^5)/(i pi s^3 w^3)
    Mt = (9 s^4 t - 2 s^2 t^3 + t^5)/(i pi s^3 w^3)
    Nt = (3 s^4 + 6 s^2 t^2 - t^4)/(i pi s^2 w^3)
    """
    s = _nonzero_sigma(sigma)
    t = np.asarray(tau, dtype=complex)
    w = _refuse_light_cone(s, t)
    ipi = 1j * np.pi
    s2, s4 = s**2, s**4
    t2 = t**2
    w3 = w**3
    Lt = (15.0 * s4 * t - 10.0 * s2 * t * t2 + 3.0 * t * t2**2) / (ipi * s * s2 * w3)
    Mt = (9.0 * s4 * t - 2.0 * s2 * t * t2 + t * t2**2) / (ipi * s * s2 * w3)
    Nt = (3.0 * s4 + 6.0 * s2 * t2 - t2**2) / (ipi * s2 * w3)
    return LMNTriplet(Lt, Mt, Nt)


def _surface_geometry(q, phi, alpha, cfg):
    """Point and frame of the spheroid p = alpha at (q, phi), from the surface coordinates.

    sigma = alpha - i*q is exact for the requested (q, phi) and bitwise equal
    along each ring, so a drive evaluated at tau -+ sigma repeats its
    arguments there; alpha is a scalar or broadcasts with q and phi.
    """
    if np.any(np.asarray(alpha) < 0.0):
        raise ValueError("alpha must be non-negative: it is the spheroid's p coordinate")
    pos = spheroid_point(alpha, q, phi, cfg)
    p, q = (np.broadcast_to(np.asarray(x, dtype=float), pos.shape[:-1]) for x in (alpha, q))
    return pos, ComplexDistanceSample(pos, cfg, p - 1j * q, p, q)


def _sources_from_jump(dF, pos, e_p, q, phi) -> SurfaceSourceSample:
    """j0 = e_p . dF and j = -i e_p x dF: the sources that carry the jump dF."""
    return SurfaceSourceSample(position=pos, q=np.asarray(q, dtype=float),
                               phi=np.asarray(phi, dtype=float),
                               j0=_dot(e_p, dF), j=-1j * _cross(e_p, dF))


def field_jump(w: ScalarWavelet, pol, q, phi, alpha, t, mu: float = 1.0, nu: float = 1.0,
               q_min: float | None = None):
    """Jump dF = mu*F(sigma) - nu*F(-sigma) across the spheroid p = alpha.

    sigma is the disk-reference branch, continuous across the spheroid; it is
    taken from the surface coordinates as alpha - i*q, not recomputed from
    the Cartesian point, so it is exact and constant along each ring.
    Defaults mu = nu = 1 give the branch-cut combination.
    """
    pol = _as_pol(pol)
    _check_rim(q, w.cfg, q_min)
    pos, fr = _surface_geometry(q, phi, alpha, w.cfg)
    tau = w.tau(t)
    if mu == 1.0 and nu == 1.0:
        dF = assemble(*tilde_lmn(w.sig, fr.sigma, tau), fr.u, pol)
    else:
        if abs(mu + nu - 2.0) > 1e-12:
            raise ValueError("need mu + nu = 2")
        dF = mu * assemble(*lmn(w.sig, fr.sigma, tau), fr.u, pol) - nu * assemble(
            *lmn(w.sig, -fr.sigma, tau), -fr.u, pol
        )
    return dF, pos, fr


def surface_sources_exact(w: ScalarWavelet, pol, q, phi, alpha, t,
                          q_min: float | None = None) -> SurfaceSourceSample:
    """j0 = e_p . dF and j = -i e_p x dF with the exact outgoing normal e_p."""
    dF, pos, fr = field_jump(w, pol, q, phi, alpha, t, q_min=q_min)
    return _sources_from_jump(dF, pos, fr.e_p, q, phi)


def surface_sources_approx(w: ScalarWavelet, pol, q, phi, alpha, t,
                           q_min: float | None = None) -> SurfaceSourceSample:
    """Flat-spheroid (alpha << a) closed forms for the surface sources.

    With s = alpha - i*q on the surface, rho = sqrt(a^2 - q^2), and the
    polarization resolved on the local cylindrical axes,

      s|s| j0 = Lt*a*rho*p_rho + Nt*s*rho*p_phi
      s|s| j  = (Lt*rho^2*p_rho - Mt*s^2*p_rho + Nt*a*s*p_phi) e_phi
              + (Mt*s^2*p_phi + Nt*a*s*p_rho) e_rho.

    Degrades near the rim q = 0, where the normal turns away from the
    axis; the rim band is refused by default.
    """
    pol = _as_pol(pol)
    cfg = w.cfg
    _check_rim(q, cfg, q_min)
    q = np.asarray(q, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = cfg.a_mag
    pos, fr = _surface_geometry(q, phi, alpha, cfg)
    sigma = fr.sigma
    rho = np.sqrt(np.maximum(a**2 - q**2, 0.0))
    e_rho, e_phi = _cylindrical_basis(phi, cfg)
    p_rho = _dot(e_rho, pol)
    p_phi = _dot(e_phi, pol)
    tau = w.tau(t)
    Lt, Mt, Nt = tilde_lmn(w.sig, sigma, tau)
    denom = sigma * np.abs(sigma)
    j0 = (Lt * a * rho * p_rho + Nt * sigma * rho * p_phi) / denom
    jc_phi = (Lt * rho**2 * p_rho - Mt * sigma**2 * p_rho + Nt * a * sigma * p_phi) / denom
    jc_rho = (Mt * sigma**2 * p_phi + Nt * a * sigma * p_rho) / denom
    j = jc_phi[..., None] * e_phi + jc_rho[..., None] * e_rho
    return SurfaceSourceSample(position=pos, q=q, phi=phi, j0=j0, j=j)


def impulse_surface_sources(pol, q, phi, alpha, t, cfg: SourceConfig,
                            q_min: float | None = None) -> SurfaceSourceSample:
    """Antenna impulse response: sources for the delta drive from the closed forms.

    Assembles dF from impulse_tilde_lmn with the exact surface frame, then
    j0 = e_p . dF, j = -i e_p x dF.
    """
    pol = _as_pol(pol)
    _check_rim(q, cfg, q_min)
    pos, fr = _surface_geometry(q, phi, alpha, cfg)
    tau = np.asarray(t, dtype=float) - 1j * cfg.b
    dF = assemble(*impulse_tilde_lmn(fr.sigma, tau), fr.u, pol)
    return _sources_from_jump(dF, pos, fr.e_p, q, phi)


# --------------------------------------------------------------------------
# The analytically continued Coulomb field: static validation example


def coulomb_disk_sources(rho, a, c: float = 1.0, phi=0.0):
    """Disk-limit electric sources of the continued Coulomb field:

    j0 = -a/(2 pi (a^2-rho^2)^(3/2)), j = -c rho e_phi / (2 pi (a^2-rho^2)^(3/2)).

    The vector j is returned in the frame with the source axis along z and
    e_phi at azimuth phi.  Diverges at the rim rho = a.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho >= a):
        raise RimSingularityError("disk sources diverge at the rim rho = a")
    s3 = (a**2 - rho**2) ** 1.5
    j0 = -a / (2.0 * np.pi * s3)
    jmag = -c * rho / (2.0 * np.pi * s3)
    phi = np.asarray(phi, dtype=float)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    j = jmag[..., None] * e_phi
    return j0, j


def disk_angular_velocity(a, c: float = 1.0):
    """Rigid angular velocity c/a: the rim moves at the speed of light."""
    return c / a


def coulomb_spheroid_sources(alpha, q, phi, cfg: SourceConfig):
    """Surface sources of the Coulomb field on the spheroid p = alpha.

    The interior field of the charged spheroid vanishes (C is odd in
    sigma), so the jump is 2C and j0 = 2 e_p.C, j = -2i e_p x C.  Smooth
    and bounded for alpha > 0; the magnetic (imaginary) parts die as
    alpha -> 0 on the disk interior.
    """
    pos, fr = _surface_geometry(q, phi, alpha, cfg)
    C = (pos - 1j * cfg.a) / (4.0 * np.pi * fr.sigma**3)[..., None]
    return _sources_from_jump(2.0 * C, pos, fr.e_p, q, phi)


def effective_aperture(omega, a, c: float = 1.0):
    """(q_min, rho_max) of the disk zone that radiates at frequency omega.

    q >= 1/k with k = omega/c, i.e. rho <= sqrt(a^2 - 1/k^2); requires
    k*a > 1, lower frequencies drive mostly a reactive near field.
    """
    k = omega / c
    if not k * a > 1.0:
        raise SubRadiatingError("k*a <= 1: no effective aperture, field is reactive")
    q_min = 1.0 / k
    return q_min, np.sqrt(a**2 - q_min**2)
