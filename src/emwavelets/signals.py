"""Driving pulses as analytic signals of complex time.

A real driving signal g0(t) is complexified by convolution with the
Cauchy kernel, g(tau) = (1/2i*pi) int g0(t') dt'/(tau - t'), which is
analytic off the real axis and one-sided in frequency on each half-plane.
The workhorse family is C_n(tau) = (n-1)!/(2*pi*i^n*tau^n), the (n-1)-st
derivative of the Cauchy kernel: a band-pass pulse with center frequency
n/b and bandwidth sqrt(n)/|b| when evaluated at tau = t - i*b.

Beam-design formulas (pulse duration, peak strength, diffraction angle)
live here because they depend only on the pulse and the source geometry
scalars (a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NoSolutionError, PoleOnPathError, QuadratureDivergenceError, UnderResolvedSignalError

__all__ = [
    "CauchySignal",
    "SampledSignal",
    "eval_derivs",
    "SpectralProfile",
    "spectrum_cauchy",
    "spectral_profile",
    "pulse_duration",
    "peak_strength",
    "diffraction_angle",
    "mixed_signals",
]


# bound on the complex entries of one block of a sampled drive's kernel
# (2^19 entries, 8 MB)
KERNEL_CHUNK = 1 << 19
DECAY_TOL = 1e-3  # a sampled drive's end samples may reach this fraction of its peak


class DrivingSignal:
    """Base class: a complexified pulse g(tau) with time derivatives."""

    def eval(self, tau, order: int = 0):
        raise NotImplementedError

    def __call__(self, tau):
        return self.eval(tau)


@dataclass(frozen=True)
class CauchySignal(DrivingSignal):
    """C_n(tau) = (n-1)!/(2*pi*i^n*tau^n); the n = 1 member is the impulse response kernel."""

    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    def eval(self, tau, order: int = 0):
        """d^order/dt^order C_n at tau; closed form, valid for tau != 0."""
        tau = np.asarray(tau, dtype=complex)
        if not tau.all():
            raise PoleOnPathError("Cauchy kernel evaluated at its pole tau = 0")
        n, k = self.n, order
        coef = (-1) ** k * math.factorial(n + k - 1) / (2.0 * np.pi * 1j**n)
        return coef * tau ** (-(n + k))


@dataclass(frozen=True)
class SampledSignal(DrivingSignal):
    """Analytic-signal transform of a uniformly sampled real signal g0(t).

    Evaluation is trapezoid quadrature of the Cauchy-kernel convolution on
    the sample grid; derivatives differentiate the kernel, not the data.
    Valid for |Im tau| >= 4*dt (the kernel smooths at that scale, finer
    offsets are under-resolved) unless Re tau falls outside the grid.

    Cost and memory: N arguments against M samples, of which D are
    distinct, take one sort of the N arguments, then one complex
    reciprocal and, per derivative order, one complex product and one
    matrix-vector product over the D x M kernel, which is built in row
    chunks of at most KERNEL_CHUNK entries; so memory stays bounded
    whatever N and M are (see eval_derivs).  A surface sweep repeats each
    tau -+ sigma along its ring, so D there is twice the ring count.
    """

    t: np.ndarray
    g0: np.ndarray
    dt: float = field(init=False, default=0.0)
    weights: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        g0 = np.asarray(self.g0, dtype=float)
        if t.ndim != 1 or t.shape != g0.shape or t.size < 8:
            raise ValueError("need matching 1-d sample arrays with at least 8 points")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-8, atol=0.0):
            raise ValueError("sample grid must be uniform")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "dt", float(dt[0]))
        peak = float(np.max(np.abs(g0)))
        if peak == 0.0:
            raise ValueError("signal is identically zero")
        edge = max(abs(float(g0[0])), abs(float(g0[-1])))
        if edge > DECAY_TOL * peak:
            raise QuadratureDivergenceError(
                "sampled signal does not decay at the grid ends; quadrature tails untrusted"
            )
        # the trapezoid rule on the sample grid, with g0 folded in
        trap = np.zeros_like(t)
        trap[:-1] += dt / 2.0
        trap[1:] += dt / 2.0
        object.__setattr__(self, "weights", g0 * trap)

    @classmethod
    def from_csv(cls, path):
        """Load two-column CSV (t, g0); rejects non-uniform grids."""
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError("expected two columns: t, g0")
        return cls(t=data[:, 0], g0=data[:, 1])

    def eval(self, tau, order: int = 0):
        """d^order/dt^order of the transform at tau."""
        return self._derivs(tau, order)[order]

    def _derivs(self, tau, kmax: int):
        """[g, g', ..., g^(kmax)] at tau in one pass over row chunks of the distinct tau.

        Repeated arguments (the tau -+ sigma of every point of a surface
        ring) share one kernel row: the values are deduplicated by bit
        pattern, so -0.0 and +0.0 stay distinct.  Per chunk, R = 1/(tau - t)
        is built once, R^(k+1) by repeated multiplication, and each power is
        contracted with the weights; g^(k) = (-1)^k k!/(2*pi*i) * R^(k+1) @ weights.
        """
        tau = np.asarray(tau, dtype=complex)
        low = np.abs(tau.imag) < 4.0 * self.dt
        if np.any(low & (tau.real >= self.t[0]) & (tau.real <= self.t[-1])):
            raise UnderResolvedSignalError("|Im tau| below 4*dt: the sample grid cannot resolve the kernel")
        keys, inverse = np.unique(tau.reshape(-1).view("V16"), return_inverse=True)
        flat = keys.view(complex)
        out = np.empty((kmax + 1, flat.size), dtype=complex)
        rows = max(1, KERNEL_CHUNK // self.t.size)
        # two kernel blocks, R and its running power, allocated once for all chunks
        R_buf = np.empty((min(rows, flat.size), self.t.size), dtype=complex)
        P_buf = np.empty_like(R_buf) if kmax else None
        for i in range(0, flat.size, rows):
            chunk = flat[i:i + rows]
            R = np.subtract.outer(chunk, self.t, out=R_buf[:chunk.size])
            np.reciprocal(R, out=R)
            P = R
            for k in range(kmax + 1):
                if k:
                    P = np.multiply(P, R, out=P_buf[:chunk.size])
                # one dot product per row: a row's bits never depend on the other rows
                out[k, i:i + rows] = np.vecdot(self.weights, P)
        return [
            (((-1) ** k * math.factorial(k) / (2j * np.pi)) * out[k])[inverse].reshape(tau.shape)
            for k in range(kmax + 1)
        ]


def eval_derivs(sig, tau, kmax: int):
    """[g, g', ..., g^(kmax)] of the drive sig at tau: the one derivative entry point.

    A sampled drive computes every order from one chunked kernel, built once
    per distinct tau, so its cost scales with the distinct arguments, not
    with the entries of tau; any other drive, including one that only
    provides eval(tau, order), is evaluated order by order.
    """
    if isinstance(sig, SampledSignal):
        return sig._derivs(tau, kmax)
    return [sig.eval(tau, k) for k in range(kmax + 1)]


def _pair(x, y):
    """x and y broadcast and stacked along a new leading axis: one evaluation for both."""
    return np.stack(np.broadcast_arrays(x, y))


# --------------------------------------------------------------------------
# Spectra and beam-design formulas


class SpectralProfile(NamedTuple):
    center: float
    width: float


def spectrum_cauchy(n, omega, b):
    """Fourier transform of t -> C_n(t - i*b): sgn(b)*step(omega*b)*omega^(n-1)*exp(-omega*b).

    The step at omega = 0 is taken as 1/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = np.asarray(omega, dtype=float)
    wb = omega * b
    step = np.where(wb > 0.0, 1.0, np.where(wb == 0.0, 0.5, 0.0))
    with np.errstate(invalid="ignore"):
        mag = np.where(step > 0.0, omega ** (n - 1) * np.exp(-wb), 0.0)
    return np.sign(b) * step * mag


def spectral_profile(n, b) -> SpectralProfile:
    """Band-pass center n/b and width sqrt(n)/|b| of C_n at imaginary time b."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if b == 0:
        raise ValueError("b must be nonzero")
    return SpectralProfile(center=n / b, width=math.sqrt(n) / abs(b))


def pulse_duration(theta, a, b, c: float = 1.0):
    """Angle-dependent pulse duration |b - (a/c)*cos(theta)| of the far-zone beam."""
    ta = a / c
    if not abs(b) > ta:
        raise ValueError("need c*|b| > a")
    return np.abs(b - ta * np.cos(np.asarray(theta, dtype=float)))


def peak_strength(theta, n, a, b, c: float = 1.0):
    """Far-zone peak amplitude (n-1)!/(2*pi*T(theta)^n) of the C_n beam."""
    T = pulse_duration(theta, a, b, c)
    return math.factorial(n - 1) / (2.0 * np.pi * T**n)


def diffraction_angle(beta, n, a, b, c: float = 1.0):
    """Angle where the beam peak drops to exp(-beta) of its on-axis value.

    Solves 2*sin(theta/2)^2 = (exp(beta/n) - 1)*(b - a/c)/(a/c); raises
    NoSolutionError when the right side exceeds 2 (no such angle).
    """
    ta = a / c
    if not b > ta:
        raise ValueError("requires b > a/c (beam along +a)")
    rhs = (math.exp(beta / n) - 1.0) * (b - ta) / ta
    if rhs > 2.0:
        raise NoSolutionError("peak never drops that far: (e^(beta/n)-1)(b-a)/a > 2")
    return 2.0 * math.asin(math.sqrt(rhs / 2.0))


def mixed_signals(sig: DrivingSignal, sigma, tau):
    """g+- = g(tau - sigma) +- g(tau + sigma) and their first two time derivatives.

    Returns (gp, gm, gp1, gm1, gp2, gm2); gp* are even and gm* odd under
    sigma -> -sigma.
    """
    sigma = np.asarray(sigma, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    out = []
    for em, ep in eval_derivs(sig, _pair(tau - sigma, tau + sigma), 2):
        out.append(em + ep)
        out.append(em - ep)
    return tuple(out)

