"""Measured beam diagnostics from far-zone time series.

Predictions (duration |b - a cos(theta)|, peak (n-1)!/(2 pi T^n),
diffraction angle, spectral center/width) are compared against values
extracted from the sampled pulse |g(tau - sigma)| on a far-zone arc: the
duration from the full width at half maximum, the peak from the sampled
maximum, the diffraction angle from the angle where the measured peak
drops by e^-beta, and the spectrum from numeric-transform moments.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NoSolutionError
from ..geometry import SourceConfig, complex_distance_principal
from ..signals import CauchySignal, peak_strength, pulse_duration
from .spectral import cauchy_series_transform, spectral_moments

__all__ = [
    "far_point",
    "measure_pulse",
    "measure_diffraction_angle",
    "spectral_window",
    "measure_spectral_profile",
    "beam_profile_rows",
]

OVERSAMPLE, N_OMEGA = 64, 800  # measure_pulse's samples per duration T; spectral_window's frequencies


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
    # walk out from the peak and interpolate the half crossings
    lo = i
    while lo > 0 and vals[lo] > half:
        lo -= 1
    hi = i
    while hi < len(vals) - 1 and vals[hi] > half:
        hi += 1
    if vals[lo] > half or vals[hi] > half:
        raise NoSolutionError("time window too narrow for the FWHM")
    t_lo = np.interp(half, [vals[lo], vals[lo + 1]], [ts[lo], ts[lo + 1]])
    t_hi = np.interp(half, [vals[hi], vals[hi - 1]], [ts[hi], ts[hi - 1]])
    fwhm = t_hi - t_lo
    T = fwhm / (2.0 * math.sqrt(2.0 ** (2.0 / sig.n) - 1.0))
    return float(T), M


def measure_diffraction_angle(sig: CauchySignal, cfg: SourceConfig, beta: float,
                              R: float):
    """Angle where the measured peak drops to e^-beta of its on-axis value."""
    from scipy.optimize import brentq

    _, M0 = measure_pulse(sig, cfg, 0.0, R)
    target = math.exp(-beta) * M0

    def gap(theta):
        _, M = measure_pulse(sig, cfg, theta, R)
        return M - target

    if gap(np.pi) > 0.0:
        raise NoSolutionError("peak never drops below e^-beta of the axis value")
    return brentq(gap, 0.0, np.pi, xtol=1e-6)


def spectral_window(n: int, b: float):
    """Evenly spaced frequencies spanning the C_n(t - i b) spectrum: 8 widths below center, 12 above."""
    w0 = n / b
    dw = math.sqrt(n) / abs(b)
    return np.linspace(max(1e-4 / abs(b), w0 - 8 * dw), w0 + 12 * dw, N_OMEGA)


def measure_spectral_profile(n: int, b: float):
    """Center/width moments of the numeric amplitude spectrum of C_n(t - i b)."""
    omegas = spectral_window(n, b)
    amp = np.abs(cauchy_series_transform({n: 1.0}, 1j * b, omegas))
    return spectral_moments(omegas, amp)


def beam_profile_rows(n: int, cfg: SourceConfig, thetas, R: float):
    """Rows (theta, T_pred, T_meas, gap_T, M_pred, M_meas, gap_M) over an arc."""
    sig = CauchySignal(n)
    a, b, c = cfg.a_mag, cfg.b, cfg.c
    rows = []
    for theta in np.asarray(thetas, dtype=float):
        T_pred = float(pulse_duration(theta, a, b, c))
        M_pred = float(peak_strength(theta, n, a, b, c))
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
