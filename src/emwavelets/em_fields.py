"""Electromagnetic fields synthesized from the scalar wavelet as a Hertz potential.

The complex Hertz potential Z = psi*pol (pol a fixed complex 3-vector:
real part electric dipole, imaginary part magnetic) generates the
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

from typing import NamedTuple

import numpy as np

from .errors import OnBranchCircleError, OnCutError
from .geometry import _cross, _dot, _sum3, branch, complex_distance_principal, frame
from .scalar_wavelet import ScalarWavelet
from .signals import CauchySignal, eval_derivs

__all__ = [
    "LMNTriplet",
    "lmn",
    "assemble",
    "field",
    "four_potential",
    "interior_field",
    "joint_field",
    "far_field",
    "far_point_series",
    "helicity_residual",
    "poynting_energy_far",
]


def _as_pol(pol):
    """The polarization as a complex 3-vector, refusing any other shape."""
    v = np.asarray(pol, dtype=complex)
    if v.shape != (3,):
        raise ValueError("polarization must be a complex 3-vector")
    return v


class LMNTriplet(NamedTuple):
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray


def _nonzero_sigma(sigma):
    """sigma as a complex array, refusing sigma = 0, where every coefficient has a pole."""
    sigma = np.asarray(sigma, dtype=complex)
    if np.any(sigma == 0):
        raise OnBranchCircleError("sigma = 0: on the branch circle, where the field coefficients are singular")
    return sigma


def _lmn_kernel(sigma, g, g1, g2, h1, h2) -> LMNTriplet:
    """L = g2/s + 3 g1/s^2 + 3 g/s^3,  M = g2/s + g1/s^2 + g/s^3,  N = h2/s + h1/s^2.

    lmn passes (g, g., g.., g., g..) of the retarded signal, tilde_lmn
    (g+, g.-, g..+, g.+, g..-) of the mixed signals.
    """
    s1, s2, s3 = sigma, sigma**2, sigma**3
    L = g2 / s1 + 3.0 * g1 / s2 + 3.0 * g / s3
    M = g2 / s1 + g1 / s2 + g / s3
    N = h2 / s1 + h1 / s2
    return LMNTriplet(L, M, N)


def lmn(sig, sigma, tau) -> LMNTriplet:
    """Field coefficients from the retarded signal g_r = g(tau - sigma):

    L = g../s + 3g./s^2 + 3g/s^3,  M = g../s + g./s^2 + g/s^3,
    N = g../s + g./s^2.
    """
    sigma = _nonzero_sigma(sigma)
    g, g1, g2 = eval_derivs(sig, np.asarray(tau, dtype=complex) - sigma, 2)
    return _lmn_kernel(sigma, g, g1, g2, g1, g2)


def assemble(L, M, N, u, pol):
    """L*lam*u - M*pol - i*N*(u x pol), lam = u.pol.

    The field for the L/M/N coefficients, its jump across a surface for
    the tilde coefficients.
    """
    lam = _dot(u, pol)
    ucp = _cross(u, pol)
    return L[..., None] * lam[..., None] * u - M[..., None] * pol - 1j * N[..., None] * ucp


def field(w: ScalarWavelet, pol, r, t):
    """Exact field F = D + iB of the wavelet's branch at (r, t), shaped like r."""
    pol = _as_pol(pol)
    b = branch(w.cut, r, w.cfg)
    return assemble(*lmn(w.sig, b.sigma, w.tau(t)), b.u, pol)


def four_potential(w: ScalarWavelet, pol, r, t):
    """Lorenz-gauge potentials (A0, A) from the electric/magnetic Hertz vectors.

    Z_e = Re(psi*pol), Z_m = Im(psi*pol); A0 = -div Z_e and
    A = dZ_e/dt + curl Z_m, evaluated in closed form through the frame.
    """
    pol = _as_pol(pol)
    b = branch(w.cut, r, w.cfg)
    tau = w.tau(t)
    g, g1 = eval_derivs(w.sig, tau - b.sigma, 1)
    psi_dot = g1 / b.sigma
    psi_prime = -g1 / b.sigma - g / b.sigma**2
    grad_psi = psi_prime[..., None] * b.u
    A0 = -np.real(_dot(grad_psi, pol))
    A = np.real(psi_dot[..., None] * pol) + np.imag(_cross(grad_psi, pol))
    return A0, A


def _sourceless(w: ScalarWavelet, pol, fr, tau, Fp):
    """F(sigma) + F(-sigma) on the frame fr, from Fp = F(sigma): the sourceless interior field."""
    return Fp + assemble(*lmn(w.sig, -fr.sigma, tau), -fr.u, pol)


def interior_field(w: ScalarWavelet, pol, r, t):
    """Sourceless interior field F(sigma) + F(-sigma); even in sigma."""
    pol = _as_pol(pol)
    fr = frame(r, w.cfg)
    tau = w.tau(t)
    return _sourceless(w, pol, fr, tau, assemble(*lmn(w.sig, fr.sigma, tau), fr.u, pol))


def joint_field(w: ScalarWavelet, pol, r, t, alpha: float):
    """Field radiated jointly by the two spheroidal cuts at parameter alpha.

    2F outside the spheroid p = alpha; inside, the unique sourceless field
    F(sigma) + F(-sigma) of interior_field.  The two differ across the
    spheroid by the jump the surface sources carry (surface_sources.ring_jump).
    """
    pol = _as_pol(pol)
    fr = frame(r, w.cfg)
    if np.any(np.abs(fr.p - alpha) < 1e-9 * w.cfg.a_mag):
        raise OnCutError("point on the radiating spheroid p = alpha")
    tau = w.tau(t)
    Fp = assemble(*lmn(w.sig, fr.sigma, tau), fr.u, pol)
    inside = fr.p < alpha
    if not np.any(inside):
        return 2.0 * Fp
    return np.where(np.asarray(inside)[..., None], _sourceless(w, pol, fr, tau, Fp), 2.0 * Fp)


def far_field(w: ScalarWavelet, pol, r, t):
    """Leading far-zone form -(g..(tau-sigma)/r)*(pol_perp + i e_r x pol_perp)."""
    pol = _as_pol(pol)
    r = np.asarray(r, dtype=float)
    rmag = np.linalg.norm(r, axis=-1)
    e_r = r / rmag[..., None]
    sigma, _, _ = complex_distance_principal(r, w.cfg)
    g2 = w.sig.eval(w.tau(t) - sigma, 2)
    perp = pol - _dot(e_r, pol)[..., None] * e_r
    return -(g2 / rmag)[..., None] * (perp + 1j * _cross(e_r, perp))


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
    b = branch(w.cut, r, w.cfg)
    sigma, u = b.sigma, b.u
    lam = _dot(u, pol)
    ucp = _cross(u, pol)
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
    """|i e_r x F - F| / |F| on the exact field; tends to 0 like a/r.

    The norms square F, which overflows above ~1e154: only where the plain
    ratio is not finite is it recomputed from F scaled by its largest
    |entry|, so every finite value keeps its bits.
    """
    r = np.asarray(r, dtype=float)
    e_r = r / np.linalg.norm(r, axis=-1)[..., None]
    F = field(w, pol, r, t)

    def ratio(F):
        return np.linalg.norm(1j * _cross(e_r, F) - F, axis=-1) / np.linalg.norm(F, axis=-1)

    with np.errstate(all="ignore"):  # a ratio that stays non-finite is the caller's to refuse
        out = ratio(F)
        if not np.isfinite(out).all():
            out = np.where(np.isfinite(out), out, ratio(F / np.abs(F).max(axis=-1, keepdims=True)))[()]
    return out


def poynting_energy_far(F, e_r):
    """(S, E, mismatch): E = |F|^2/2, S = E*e_r, and how far the exact
    Poynting vector (1/2i) F* x F strays from S relative to E.

    A large mismatch flags a field that is not transverse-helical, where
    the compact far-zone formula does not apply.
    """
    F = np.asarray(F, dtype=complex)
    e_r = np.asarray(e_r, dtype=float)
    E = 0.5 * _sum3(np.abs(F) ** 2)
    S = E[..., None] * e_r
    S_exact = np.real(_cross(np.conj(F), F) / 2j)
    mismatch = np.linalg.norm(S_exact - S, axis=-1) / np.where(E == 0.0, 1.0, E)
    return S, E, mismatch
