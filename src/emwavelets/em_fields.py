"""Electromagnetic fields synthesized from the scalar wavelet as a Hertz potential.

The complex Hertz potential Z = psi*pol (pol a fixed complex polarization
vector: real part electric dipole, imaginary part magnetic) generates the
complex field F = D + i*B = curl curl Z + i dZ/dt.  Carrying out the curls
against the complex-distance frame collapses F to three scalar
coefficients,

    F = L*lam*u - M*pol - i*N*(u x pol),    lam = u.pol,

with L, M, N rational combinations of the retarded pulse and its first
two time derivatives over powers of sigma.  Everything here is closed
form; the difference oracles that re-derive F and the potentials from psi
live in harness.fd.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OnBranchCircleError, OnCutError
from .geometry import SourceConfig, _cut_sign, _frame, complex_distance_principal, frame
from .scalar_wavelet import SIGMA_GUARD, ScalarWavelet
from .signals import CauchySignal, eval_derivs

__all__ = [
    "PolarizationVector",
    "EMFieldSample",
    "LMNTriplet",
    "lmn",
    "field",
    "four_potential",
    "interior_field",
    "joint_field",
    "far_field",
    "far_point_series",
    "helicity_residual",
    "poynting_energy_far",
]


@dataclass(frozen=True)
class PolarizationVector:
    """Fixed complex dipole direction; component along a is wasted in the far zone.

    By default the part parallel to the source axis is projected away
    (with a warning if it was substantial); pass keep_parallel=True to
    keep the vector exactly as given.
    """

    vec: np.ndarray
    cfg: SourceConfig | None = None
    keep_parallel: bool = False

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex)
        if v.shape != (3,):
            raise ValueError("polarization must be a complex 3-vector")
        if np.linalg.norm(v) == 0.0:
            raise ValueError("polarization must be nonzero")
        if self.cfg is not None and not self.keep_parallel:
            par = np.dot(v, self.cfg.a_hat)
            if abs(par) > 1e-12 * np.linalg.norm(v):
                warnings.warn(
                    "projecting away the polarization component along a "
                    "(it only weakens the beam); pass keep_parallel=True to keep it",
                    stacklevel=2,
                )
                v = v - par * self.cfg.a_hat
                if np.linalg.norm(v) == 0.0:
                    raise ValueError("polarization entirely parallel to a")
        object.__setattr__(self, "vec", v)


def _as_pol(pol):
    if isinstance(pol, PolarizationVector):
        return pol.vec
    v = np.asarray(pol, dtype=complex)
    if v.shape != (3,):
        raise ValueError("polarization must be a complex 3-vector")
    return v


@dataclass(frozen=True)
class EMFieldSample:
    """Complex field F with its real decomposition D = Re F, B = Im F."""

    F: np.ndarray
    position: np.ndarray
    time: np.ndarray

    @property
    def D(self):
        return np.real(self.F)

    @property
    def B(self):
        return np.imag(self.F)


class LMNTriplet(NamedTuple):
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray


def lmn(sig, sigma, tau) -> LMNTriplet:
    """Field coefficients from the retarded signal g_r = g(tau - sigma):

    L = g../s + 3g./s^2 + 3g/s^3,  M = g../s + g./s^2 + g/s^3,
    N = g../s + g./s^2.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if np.any(sigma == 0):
        raise OnBranchCircleError("sigma = 0 in lmn")
    tau = np.asarray(tau, dtype=complex)
    g, g1, g2 = eval_derivs(sig, tau - sigma, 2)
    s1, s2, s3 = sigma, sigma**2, sigma**3
    L = g2 / s1 + 3.0 * g1 / s2 + 3.0 * g / s3
    M = g2 / s1 + g1 / s2 + g / s3
    N = g2 / s1 + g1 / s2
    return LMNTriplet(L, M, N)


def _assemble(L, M, N, u, pol):
    """L*lam*u - M*pol - i*N*(u x pol), lam = u.pol.

    The field for the L/M/N coefficients, its jump across a surface for
    the tilde coefficients.
    """
    lam = np.sum(u * pol, axis=-1)
    ucp = np.cross(u, np.broadcast_to(pol, u.shape))
    return L[..., None] * lam[..., None] * u - M[..., None] * pol - 1j * N[..., None] * ucp


def _field_core(sig, sigma, u, pol, tau):
    """F for a given branch (sigma, u); broadcasts the branch against tau."""
    return _assemble(*lmn(sig, sigma, tau), u, pol)


def _branch_data(w: ScalarWavelet, r, tol_cut: float | None = None):
    """(cut sign, sigma, u) of the wavelet's branch at r.

    Refuses points within tol_cut of the cut, then points on the branch
    circle.
    """
    r = np.asarray(r, dtype=float)
    sigma, p, q = complex_distance_principal(r, w.cfg)
    s = _cut_sign(w.cut, r, p, q, w.cfg, tol_cut)
    fr = _frame(r, sigma, p, q, w.cfg, guard=SIGMA_GUARD * w.cfg.a_mag)
    return s, s * fr.sigma, np.asarray(s)[..., None] * fr.u


def field(w: ScalarWavelet, pol, r, t) -> EMFieldSample:
    """Exact field of the wavelet's branch at (r, t)."""
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    _, sigma, u = _branch_data(w, r)
    F = _field_core(w.sig, sigma, u, pol, w.tau(t))
    return EMFieldSample(F=F, position=r, time=np.asarray(t, dtype=float))


def four_potential(w: ScalarWavelet, pol, r, t):
    """Lorenz-gauge potentials (A0, A) from the electric/magnetic Hertz vectors.

    Z_e = Re(psi*pol), Z_m = Im(psi*pol); A0 = -div Z_e and
    A = dZ_e/dt + curl Z_m, evaluated in closed form through the frame.
    """
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    _, sigma, u = _branch_data(w, r)
    tau = w.tau(t)
    g, g1 = eval_derivs(w.sig, tau - sigma, 1)
    psi_dot = g1 / sigma
    psi_prime = -g1 / sigma - g / sigma**2
    grad_psi = psi_prime[..., None] * u
    A0 = -np.real(np.sum(grad_psi * pol, axis=-1))
    A = np.real(psi_dot[..., None] * pol) + np.imag(np.cross(grad_psi, np.broadcast_to(pol, grad_psi.shape)))
    return A0, A


def interior_field(w: ScalarWavelet, pol, r, t):
    """Sourceless interior field F(sigma) + F(-sigma); even in sigma."""
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    fr = frame(r, w.cfg, guard=SIGMA_GUARD * w.cfg.a_mag)
    tau = w.tau(t)
    return _field_core(w.sig, fr.sigma, fr.u, pol, tau) + _field_core(
        w.sig, -fr.sigma, -fr.u, pol, tau
    )


def joint_field(w: ScalarWavelet, pol, r, t, alpha: float, mu: float = 1.0, nu: float = 1.0):
    """Field radiated jointly by the two spheroidal cuts at parameter alpha.

    2F outside the spheroid p = alpha; inside, nu times the symmetric
    sourceless combination F(sigma) + F(-sigma), which is single-valued
    across the disk for any nu.  mu = 2 - nu only enters the surface jump
    mu*F(sigma) - nu*F(-sigma); mu = nu = 1 is the combination realizable
    as a pair of branch cuts.
    """
    if abs(mu + nu - 2.0) > 1e-12:
        raise ValueError("need mu + nu = 2")
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    fr = frame(r, w.cfg, guard=SIGMA_GUARD * w.cfg.a_mag)
    if np.any(np.abs(fr.p - alpha) < 1e-9 * w.cfg.a_mag):
        raise OnCutError("point on the radiating spheroid p = alpha")
    tau = w.tau(t)
    Fp = _field_core(w.sig, fr.sigma, fr.u, pol, tau)
    inside = fr.p < alpha
    if not np.any(inside):
        return 2.0 * Fp
    Fm = _field_core(w.sig, -fr.sigma, -fr.u, pol, tau)
    return np.where(np.asarray(inside)[..., None], nu * (Fp + Fm), 2.0 * Fp)


def far_field(w: ScalarWavelet, pol, r, t):
    """Leading far-zone form -(g..(tau-sigma)/r)*(pol_perp + i e_r x pol_perp)."""
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    rmag = np.linalg.norm(r, axis=-1)
    e_r = r / rmag[..., None]
    sigma, _, _ = complex_distance_principal(r, w.cfg)
    g2 = w.sig.eval(w.tau(t) - sigma, 2)
    perp = pol - np.sum(e_r * pol, axis=-1)[..., None] * e_r
    return -(g2 / rmag)[..., None] * (perp + 1j * np.cross(e_r, perp))


def far_point_series(w: ScalarWavelet, pol, r):
    """Exact decomposition of the field time series at a fixed point.

    For a band-pass drive C_n the field at r is a finite combination of
    shifted kernels, F_i(t) = sum_m coeffs[m][i] * C_{n+m}(t - z_c) with
    z_c = i*b + sigma; returns (z_c, {n+m: coefficient vector}).  Feeds the
    spectral one-sidedness checks without sampling anything.
    """
    if not isinstance(w.sig, CauchySignal):
        raise TypeError("series decomposition applies to Cauchy-kernel drives")
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    _, sigma, u = _branch_data(w, r)
    lam = np.sum(u * pol, axis=-1)
    ucp = np.cross(u, np.broadcast_to(pol, u.shape))
    lu = lam[..., None] * u
    V = [
        (3.0 * lu - pol) / sigma[..., None] ** 3,
        (3.0 * lu - pol - 1j * ucp) / sigma[..., None] ** 2,
        (lu - pol - 1j * ucp) / sigma[..., None],
    ]
    n = w.sig.n
    z_c = 1j * w.cfg.b + sigma
    return z_c, {n + m: (-1j) ** m * V[m] for m in range(3)}


def helicity_residual(w: ScalarWavelet, pol, r, t):
    """|i e_r x F - F| / |F| on the exact field; tends to 0 like a/r."""
    r = np.asarray(r, dtype=float)
    e_r = r / np.linalg.norm(r, axis=-1)[..., None]
    F = field(w, pol, r, t).F
    num = np.linalg.norm(1j * np.cross(e_r, F) - F, axis=-1)
    den = np.linalg.norm(F, axis=-1)
    return num / den


def poynting_energy_far(F, e_r):
    """(S, E, mismatch): E = |F|^2/2, S = E*e_r, and how far the exact
    Poynting vector (1/2i) F* x F strays from S relative to E.

    A large mismatch flags a field that is not transverse-helical, where
    the compact far-zone formula does not apply.
    """
    F = np.asarray(F, dtype=complex)
    e_r = np.asarray(e_r, dtype=float)
    E = 0.5 * np.sum(np.abs(F) ** 2, axis=-1)
    S = E[..., None] * e_r
    S_exact = np.real(np.cross(np.conj(F), F) / 2j)
    mismatch = np.linalg.norm(S_exact - S, axis=-1) / np.where(E == 0.0, 1.0, E)
    return S, E, mismatch
