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

from .geometry import BranchCut, SourceConfig, branch, frame
from .signals import DrivingSignal, _pair, eval_derivs

__all__ = ["ScalarWavelet", "psi", "psi_of_sigma", "interior_psi"]


@dataclass(frozen=True)
class ScalarWavelet:
    """A branch cut, a complex source, and a driving pulse."""

    cut: BranchCut
    cfg: SourceConfig
    sig: DrivingSignal

    def tau(self, t):
        return np.asarray(t, dtype=float) - 1j * self.cfg.b


def psi_of_sigma(sig, sigma, tau):
    """g(tau - sigma)/sigma on a resolved branch; broadcasts sigma against tau."""
    return sig.eval(tau - sigma) / sigma


def psi(w: ScalarWavelet, r, t):
    """Retarded wavelet g(tau - sigma)/sigma at field point r, time t."""
    return psi_of_sigma(w.sig, branch(w.cut, r, w.cfg).sigma, w.tau(t))


def interior_psi(w: ScalarWavelet, r, t):
    """Sourceless interior combination [g(tau-sigma) - g(tau+sigma)]/sigma.

    Even in sigma, hence the same on every cut and taken on the principal
    branch; tends to -2*g.(tau) on the branch circle.
    """
    sigma = frame(r, w.cfg).sigma
    tau = w.tau(t)
    gm, gp = eval_derivs(w.sig, _pair(tau - sigma, tau + sigma), 0)[0]
    return (gm - gp) / sigma
