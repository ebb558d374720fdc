"""Equivalent surface charge/current densities on the radiating spheroid.

The jump of the field across the spheroid p = alpha,
dF = F(sigma) - F(-sigma), is carried by surface sources

    j0 = e_p . dF,        j = -i e_p x dF,

complex because they mix electric (real) and magnetic (imaginary) parts.
The jump has the field's form L*lam*u - M*pol - i*N*(u x pol); its tilde
coefficients are lmn's formula taken of the mixed signals
g+- = g(tau-sigma) +- g(tau+sigma).  For the impulse drive (n = 1 Cauchy
kernel) they reduce to rational closed forms in (sigma, tau): the
antenna's impulse response.  Every source takes one route to the jump:
ring_jump gives the coefficients of each ring q, ring_sources assembles
them with the exact surface frame, and the flat-spheroid closed forms read
the same coefficients.  The response to a band-pass drive C_n is
surface_sources_exact of a wavelet driven by C_n.  The analytically continued
Coulomb field provides the static validation example.  Its disk-limit
sources are a charge density and an azimuthal current j = j0 v with
v = (rho/a) e_phi: the picture of a charged disk spinning rigidly at the
angular velocity 1/a, whose rim moves at the speed of light (c = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LightConePoleError, NearRimError, RimSingularityError, SubRadiatingError
from .em_fields import LMNTriplet, _as_pol, _lmn_kernel, _nonzero_sigma, assemble
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
    "tilde_lmn",
    "impulse_tilde_lmn",
    "impulse_surface_sources",
    "ring_jump",
    "ring_sources",
    "surface_sources_exact",
    "surface_sources_approx",
    "coulomb_disk_sources",
    "coulomb_spheroid_sources",
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
    along each ring; alpha is a scalar or broadcasts with q and phi.  p and q
    are broadcast against each other only, not against phi: for q of shape
    (rings, 1) and phi of shape (1, azimuths), sigma and all that depends on
    it alone (the frame's p^2 + q^2 and its e_p denominator, and the jump
    coefficients ring_jump takes of the same sigma) are computed once per
    ring, and only the point, the frame's vectors and the assembly once per
    point.
    """
    p, q_ring, sigma = _ring_sigma(q, alpha)
    pos = spheroid_point(alpha, q, phi, cfg)
    return pos, ComplexDistanceSample(pos, cfg, sigma, p, q_ring)


def _ring_sigma(q, alpha):
    """(p, q, sigma = p - i*q) of the rings q on p = alpha, p and q broadcast against each other only."""
    if np.any(np.asarray(alpha) < 0.0):
        raise ValueError("alpha must be non-negative: it is the spheroid's p coordinate")
    p, q = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(q, dtype=float))
    return p, q, p - 1j * q


def ring_jump(w: ScalarWavelet | None, q, alpha, t, cfg: SourceConfig) -> LMNTriplet:
    """The jump coefficients of each ring q of the spheroid p = alpha at time t.

    tilde_lmn of the wavelet w's drive, or, for w None, the impulse drive's
    closed forms (impulse_tilde_lmn); ring_sources turns them into the
    ring's sources, so a caller that splits a ring along phi evaluates its
    drive once.
    """
    sigma = _ring_sigma(q, alpha)[2]
    if w is None:
        return impulse_tilde_lmn(sigma, np.asarray(t, dtype=float) - 1j * cfg.b)
    return tilde_lmn(w.sig, sigma, w.tau(t))


def ring_sources(jump: LMNTriplet, pol, q, phi, alpha, cfg: SourceConfig) -> SurfaceSourceSample:
    """j0 and j at (q, phi) on p = alpha from the rings' jump coefficients (ring_jump of q).

    The coefficients broadcast against phi; assembly with the exact surface
    frame, e_p and the sources are per point.
    """
    pos, fr = _surface_geometry(q, phi, alpha, cfg)
    dF = assemble(*jump, fr.u, _as_pol(pol))
    return _sources_from_jump(dF, pos, fr.e_p, q, phi)


def _sources_from_jump(dF, pos, e_p, q, phi) -> SurfaceSourceSample:
    """j0 = e_p . dF and j = -i e_p x dF: the sources that carry the jump dF."""
    return SurfaceSourceSample(position=pos, q=np.asarray(q, dtype=float),
                               phi=np.asarray(phi, dtype=float),
                               j0=_dot(e_p, dF), j=-1j * _cross(e_p, dF))


def surface_sources_exact(w: ScalarWavelet, pol, q, phi, alpha, t,
                          q_min: float | None = None) -> SurfaceSourceSample:
    """j0 = e_p . dF and j = -i e_p x dF with the exact outgoing normal e_p: ring_sources of ring_jump."""
    _check_rim(q, w.cfg, q_min)
    return ring_sources(ring_jump(w, q, alpha, t, w.cfg), pol, q, phi, alpha, w.cfg)


def surface_sources_approx(w: ScalarWavelet, pol, q, phi, alpha, t,
                           q_min: float | None = None) -> SurfaceSourceSample:
    """Flat-spheroid (alpha << a) closed forms for the surface sources.

    With s = alpha - i*q on the surface, rho = sqrt(a^2 - q^2), the
    polarization resolved on the local cylindrical axes and the source axis,
    p_z = a_hat . pol, and the jump coefficients of ring_jump,

      s|s| j0 = Lt*a*rho*p_rho + Nt*s*rho*p_phi - i*(Lt*a^2 + Mt*s^2)*p_z
      s|s| j  = (Lt*rho^2*p_rho - Mt*s^2*p_rho + Nt*a*s*p_phi - i*Lt*a*rho*p_z) e_phi
              + (Mt*s^2*p_phi + Nt*a*s*p_rho - i*Nt*s*rho*p_z) e_rho,

    from e_p ~ (i s/|s|) a_hat and u ~ (rho e_rho - i a a_hat)/s.  Degrades
    near the rim q = 0, where the normal turns away from the axis; the rim
    band is refused by default.
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
    p_z = _dot(cfg.a_hat, pol)
    Lt, Mt, Nt = ring_jump(w, q, alpha, t, cfg)
    denom = sigma * np.abs(sigma)
    j0 = (Lt * a * rho * p_rho + Nt * sigma * rho * p_phi - 1j * (Lt * a**2 + Mt * sigma**2) * p_z) / denom
    jc_phi = (Lt * rho**2 * p_rho - Mt * sigma**2 * p_rho + Nt * a * sigma * p_phi
              - 1j * Lt * a * rho * p_z) / denom
    jc_rho = (Mt * sigma**2 * p_phi + Nt * a * sigma * p_rho - 1j * Nt * sigma * rho * p_z) / denom
    j = jc_phi[..., None] * e_phi + jc_rho[..., None] * e_rho
    return SurfaceSourceSample(position=pos, q=q, phi=phi, j0=j0, j=j)


def impulse_surface_sources(pol, q, phi, alpha, t, cfg: SourceConfig,
                            q_min: float | None = None) -> SurfaceSourceSample:
    """Antenna impulse response: the delta drive's sources, from the closed forms of impulse_tilde_lmn."""
    _check_rim(q, cfg, q_min)
    return ring_sources(ring_jump(None, q, alpha, t, cfg), pol, q, phi, alpha, cfg)


# --------------------------------------------------------------------------
# The analytically continued Coulomb field: static validation example


def coulomb_disk_sources(rho, phi, cfg: SourceConfig):
    """Disk-limit electric sources of the continued Coulomb field at (rho, phi):

    j0 = -a/(2 pi (a^2-rho^2)^(3/2)), j = -rho e_phi / (2 pi (a^2-rho^2)^(3/2)),

    with e_phi the azimuthal unit vector about the source axis.  Diverges
    at the rim rho = a.
    """
    a = cfg.a_mag
    rho = np.asarray(rho, dtype=float)
    if np.any(rho >= a):
        raise RimSingularityError("disk sources diverge at the rim rho = a")
    s3 = (a**2 - rho**2) ** 1.5
    j0 = -a / (2.0 * np.pi * s3)
    _, e_phi = _cylindrical_basis(np.asarray(phi, dtype=float), cfg)
    j = (-rho / (2.0 * np.pi * s3))[..., None] * e_phi
    return j0, j


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


def effective_aperture(omega, a):
    """(q_min, rho_max) of the disk zone that radiates at frequency omega.

    q >= 1/omega (c = 1, so omega is the wavenumber), i.e.
    rho <= sqrt(a^2 - 1/omega^2); requires omega*a > 1, lower frequencies
    drive mostly a reactive near field.
    """
    if not omega * a > 1.0:
        raise SubRadiatingError("omega*a <= 1: no effective aperture, field is reactive")
    q_min = 1.0 / omega
    return q_min, np.sqrt(a**2 - q_min**2)
