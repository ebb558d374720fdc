"""The scalar pulsed-beam wavelet psi = g(tau - sigma)/sigma.

With sigma the branched complex distance and g an analytic-signal pulse,
psi solves the wave equation everywhere off the branch cut; its source is
a distribution supported on the cut.  The sigma-symmetrized combination
psi(sigma) + psi(-sigma) is sourceless (the two branches form a
source-sink pair) and single-valued, which is what fills the interior of
the spheroidal antenna.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OnBranchCircleError, _refuse
from .geometry import BranchCut, SourceConfig, _cut_sign, complex_distance, complex_distance_principal
from .signals import DrivingSignal, _pair, eval_derivs

__all__ = ["ScalarWavelet", "psi", "psi_sigma_derivs", "interior_psi"]

SIGMA_GUARD = 1e-8


@dataclass(frozen=True)
class ScalarWavelet:
    """A branch cut, a complex source, and a driving pulse."""

    cut: BranchCut
    cfg: SourceConfig
    sig: DrivingSignal

    def tau(self, t):
        return np.asarray(t, dtype=float) - 1j * self.cfg.b

    def sigma(self, r):
        return complex_distance(self.cut, r, self.cfg)


def _branch_sigma(w: ScalarWavelet, r, tol_cut: float | None = None):
    """(cut sign, branch sigma) at r; refuses points on the cut or the branch circle."""
    r = np.asarray(r, dtype=float)
    sigma0, p, q = complex_distance_principal(r, w.cfg)
    s = _cut_sign(w.cut, r, p, q, w.cfg, tol_cut)
    sigma = s * sigma0
    near = np.abs(sigma) < SIGMA_GUARD * w.cfg.a_mag
    _refuse(OnBranchCircleError, "sigma too close to zero (branch circle)", near, r)
    return s, sigma


def _psi_of(sig, sigma, tau):
    """g(tau - sigma)/sigma on a resolved branch; broadcasts sigma against tau."""
    return sig.eval(tau - sigma) / sigma


def psi(w: ScalarWavelet, r, t):
    """Retarded wavelet g(tau - sigma)/sigma at field point r, time t."""
    _, sigma = _branch_sigma(w, r)
    return _psi_of(w.sig, sigma, w.tau(t))


def psi_sigma_derivs(w: ScalarWavelet, r, t):
    """(psi, d(psi)/d(sigma), d2(psi)/d(sigma)2) at (r, t).

    psi' = -g./sigma - g/sigma^2 and psi'' = g../sigma + 2g./sigma^2
    + 2g/sigma^3, with g, g., g.. the retarded signal and its time
    derivatives.
    """
    _, sigma = _branch_sigma(w, r)
    tau = w.tau(t)
    g, g1, g2 = eval_derivs(w.sig, tau - sigma, 2)
    value = g / sigma
    d1 = -g1 / sigma - g / sigma**2
    d2 = g2 / sigma + 2.0 * g1 / sigma**2 + 2.0 * g / sigma**3
    return value, d1, d2


def interior_psi(w: ScalarWavelet, r, t):
    """Sourceless interior combination [g(tau-sigma) - g(tau+sigma)]/sigma.

    Even under sigma -> -sigma, hence single-valued across any cut; tends
    to -2*g.(tau) on the branch circle.
    """
    _, sigma = _branch_sigma(w, r)
    tau = w.tau(t)
    gm, gp = eval_derivs(w.sig, _pair(tau - sigma, tau + sigma), 0)[0]
    return (gm - gp) / sigma
