"""Measured beam diagnostics from far-zone time series.

Predictions (duration |b - a cos(theta)|, peak (n-1)!/(2 pi T^n),
diffraction angle, spectral center/width) are compared against values
extracted from the sampled pulse |g(tau - sigma)| on a far-zone arc: the
duration from the full width at half maximum, the peak from the sampled
maximum, the diffraction angle from the angle where the measured peak
drops by e^-beta, and the spectrum from numeric-transform moments.  The
helicity residual of the exact field is sampled at 10|a| and 100|a|.
beam-profile's sidecar and the validation battery read the same functions.
"""

from __future__ import annotations

import math

import numpy as np

from ..em_fields import helicity_residual
from ..errors import NoSolutionError, NonFiniteFieldError
from ..geometry import SourceConfig, complex_distance_principal
from ..signals import CauchySignal, diffraction_angle, peak_strength, pulse_duration, spectral_profile
from .spectral import cauchy_series_transform, spectral_moments

__all__ = [
    "far_point",
    "measure_pulse",
    "spectral_window",
    "beam_profile_rows",
    "diffraction_angles",
    "spectral_profiles",
    "helicity_residuals",
]

OVERSAMPLE, N_OMEGA = 64, 800  # measure_pulse's samples per duration T; spectral_window's frequencies
R_FACTOR = 1000.0  # radius of the far-zone arc, in |a|
BETA = 1.0  # the diffraction angle is where the peak falls to e^-BETA of its on-axis value
HELICITY_THETA = 0.4  # polar angle of the helicity residual's points


def far_point(cfg: SourceConfig, theta, R):
    """Point at radius R and polar angle theta from the source axis."""
    theta = np.asarray(theta, dtype=float)
    return R * (
        np.sin(theta)[..., None] * cfg.e1 + np.cos(theta)[..., None] * cfg.a_hat
    )


def measure_pulse(sig: CauchySignal, cfg: SourceConfig, theta: float, R: float):
    """(T_measured, M_measured) from the sampled |g(tau - sigma)| time series.

    The series is sampled around the retarded arrival t = p; the duration
    comes from the interpolated FWHM through the peak-shape inversion
    T = FWHM / (2 sqrt(2^(2/n) - 1)).
    """
    r = far_point(cfg, theta, R)
    sigma, p, q = complex_distance_principal(r, cfg)
    T_nominal = abs(cfg.b - q)
    ts = float(p) + np.linspace(-6.0, 6.0, 12 * OVERSAMPLE + 1) * T_nominal
    vals = np.abs(sig.eval(ts - 1j * cfg.b - sigma))
    i = int(np.argmax(vals))
    M = float(vals[i])
    half = 0.5 * M
    lo, hi = _half_crossings(vals, i, half)
    if vals[lo] > half or vals[hi] > half:
        raise NoSolutionError("time window too narrow for the FWHM")
    t_lo = np.interp(half, [vals[lo], vals[lo + 1]], [ts[lo], ts[lo + 1]])
    t_hi = np.interp(half, [vals[hi], vals[hi - 1]], [ts[hi], ts[hi - 1]])
    fwhm = t_hi - t_lo
    T = fwhm / (2.0 * math.sqrt(2.0 ** (2.0 / sig.n) - 1.0))
    return float(T), M


def _half_crossings(vals, i, half):
    """(lo, hi): the nearest indices at or beyond peak index i, on each side, where vals is not above half.

    Where a side never drops to half, its end: the indices a walk out from
    the peak stops at, found by one vectorized search per side.
    """
    low = ~(vals > half)
    left, right = np.flatnonzero(low[: i + 1]), np.flatnonzero(low[i:])
    return (int(left[-1]) if left.size else 0), (i + int(right[0]) if right.size else len(vals) - 1)


def spectral_window(n: int, b: float):
    """Evenly spaced frequencies spanning the C_n(t - i b) spectrum: 8 widths below center, 12 above."""
    w0 = n / b
    dw = math.sqrt(n) / abs(b)
    return np.linspace(max(1e-4 / abs(b), w0 - 8 * dw), w0 + 12 * dw, N_OMEGA)


def beam_profile_rows(n: int, cfg: SourceConfig, thetas, R: float):
    """Rows (theta, T_pred, T_meas, gap_T, M_pred, M_meas, gap_M) over an arc."""
    sig = CauchySignal(n)
    a, b = cfg.a_mag, cfg.b
    rows = []
    for theta in np.asarray(thetas, dtype=float):
        T_pred = float(pulse_duration(theta, a, b))
        M_pred = float(peak_strength(theta, n, a, b))
        T_meas, M_meas = measure_pulse(sig, cfg, float(theta), R)
        rows.append(
            (
                theta,
                T_pred,
                T_meas,
                abs(T_meas / T_pred - 1.0),
                M_pred,
                M_meas,
                abs(M_meas / M_pred - 1.0),
            )
        )
    return rows


def diffraction_angles(n: int, cfg: SourceConfig):
    """(predicted, measured) angle where the C_n beam's peak falls to e^-BETA of its on-axis value.

    The measured angle is where the peak measured at R_FACTOR*|a| falls that far;
    NoSolutionError if it never does, NonFiniteFieldError if the on-axis peak
    is not finite (a high-order drive overflows).
    """
    a = cfg.a_mag
    predicted = diffraction_angle(BETA, n, a, cfg.b)
    sig, R = CauchySignal(n), R_FACTOR * a
    _, M0 = measure_pulse(sig, cfg, 0.0, R)
    if not math.isfinite(M0):
        raise NonFiniteFieldError(f"beam profile not finite: theta_beta_measured at n = {n}, on-axis peak = {M0:g}")
    target = math.exp(-BETA) * M0

    def gap(theta):
        _, M = measure_pulse(sig, cfg, theta, R)
        return M - target

    return predicted, _brent_root(gap, 0.0, np.pi, xtol=1e-6)


def _brent_root(f, lo, hi, xtol):
    """A root of f in [lo, hi] by Brent's method, to xtol + 4 eps |root|.

    A line-for-line port of SciPy's Zeros/brentq.c (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4): the same
    interpolation, extrapolation and bisection steps in the same order, so
    every root is bit-identical to scipy.optimize.brentq(f, lo, hi,
    xtol=xtol).  Raises NoSolutionError where brentq raises: f(lo) and f(hi)
    of one sign, a NaN value, or no convergence in 100 iterations.
    """
    rtol = 4.0 * np.finfo(float).eps

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NoSolutionError(f"f is NaN at {x!r}")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoSolutionError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoSolutionError(f"no root to xtol {xtol!r} in 100 iterations")


def spectral_profiles(n: int, b: float):
    """(predicted, measured) (center, width) of the C_n(t - i b) spectrum; the measured
    pair from the moments of its numeric amplitude spectrum."""
    predicted = spectral_profile(n, b)
    omegas = spectral_window(n, b)
    amp = np.abs(cauchy_series_transform({n: 1.0}, 1j * b, omegas))
    return predicted, spectral_moments(omegas, amp)


def helicity_residuals(w, pol):
    """The field's helicity residual at 10|a| and 100|a| along HELICITY_THETA, each at time r."""
    cfg = w.cfg
    return tuple(float(helicity_residual(w, pol, far_point(cfg, HELICITY_THETA, r), r))
                 for r in (10.0 * cfg.a_mag, 100.0 * cfg.a_mag))
