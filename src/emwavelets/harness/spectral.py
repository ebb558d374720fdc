"""Numeric Fourier transforms used as spectral oracles.

Two independent routes:

* quadpack_fourier: QUADPACK oscillatory-weight quadrature of an arbitrary
  callable f of a 1-D array of times, slow but pointwise-accurate (used
  for identity-grade checks): up to four adaptive quadratures per
  frequency, which share one call f([t, -t]) per node.
* cauchy_series_transform: for time series that are exact combinations of
  shifted Cauchy kernels sum_k c_k C_{n_k}(t - shift) (every far-point
  field component is), a Simpson core over a window around the pole plus
  the two tails beyond it in closed form; fast enough for moment and
  energy scans.  The core is one chirp-z transform (Bluestein's FFT
  convolution), O((N + M) log(N + M)) for N frequencies and M window
  samples, so the frequency grid must be evenly spaced.  The tails are
  scaled exponential integrals e^x E_n(x), evaluated without cancellation
  for every order n, so the result agrees with the closed-form spectrum to
  ~1e-13 of its peak (n = 1..16 on the beam-diagnostics windows).

Both return values of int e^{i omega t} f(t) dt.  SciPy is imported by the
functions that need it, when they run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._format import _exact_product

__all__ = [
    "quadpack_fourier",
    "cauchy_series_transform",
    "spectral_moments",
    "energy_split",
]

QUAD_LIMIT = 400  # QUADPACK subintervals per integral in quadpack_fourier
EXPINT_TOL, EXPINT_TERMS = 4e-16, 2000  # convergence of the E_n continued fraction
HALF_WIDTH, POINTS_PER_SCALE, MAX_PHASE_STEP = 48.0, 64, 0.25  # cauchy_series_transform's Simpson core


def quadpack_fourier(f, omegas):
    """Fourier transform of callable f(t) (complex-valued) at given frequencies.

    f takes a 1-D array of times.  Pairs t and -t so that slowly decaying
    odd tails cancel; each frequency costs up to four QUADPACK calls with
    cos/sin weights, and all of them read one memo of
    (f(t) + f(-t), f(t) - f(-t)) per node, filled by one call
    f(np.array([t, -t])) the first time a node is visited.
    """
    from scipy.integrate import IntegrationWarning, quad

    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    out = np.empty(omegas.shape, dtype=complex)
    with warnings.catch_warnings():
        # QAWF reports roundoff while still delivering ~1e-10; keep it quiet
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, w in enumerate(omegas):
            memo = {}

            def parts(t):
                if t not in memo:
                    ft, fm = f(np.array([t, -t]))
                    memo[t] = (ft + fm, ft - fm)
                return memo[t]

            even_re = lambda t: parts(t)[0].real
            even_im = lambda t: parts(t)[0].imag
            aw = abs(w)
            if aw == 0.0:
                re, _ = quad(even_re, 0.0, np.inf, limit=QUAD_LIMIT)
                im, _ = quad(even_im, 0.0, np.inf, limit=QUAD_LIMIT)
                out[i] = re + 1j * im
                continue
            # int_0^inf cos(wt)*even(t) dt + i*sgn(w)*int_0^inf sin(wt)*odd(t) dt
            cos_re, _ = quad(even_re, 0.0, np.inf, weight="cos", wvar=aw, limit=QUAD_LIMIT)
            cos_im, _ = quad(even_im, 0.0, np.inf, weight="cos", wvar=aw, limit=QUAD_LIMIT)
            sin_re, _ = quad(lambda t: parts(t)[1].real, 0.0, np.inf, weight="sin", wvar=aw, limit=QUAD_LIMIT)
            sin_im, _ = quad(lambda t: parts(t)[1].imag, 0.0, np.inf, weight="sin", wvar=aw, limit=QUAD_LIMIT)
            s = 1.0 if w > 0 else -1.0
            out[i] = (cos_re + 1j * cos_im) + 1j * s * (sin_re + 1j * sin_im)
    return out


def _scaled_expint(n, x):
    """e^x E_n(x) for complex x, E_n(x) = int_1^inf e^{-x s} s^{-n} ds continued.

    |x| >= 1: modified Lentz evaluation of the continued fraction
    (Numerical Recipes, 3rd ed., section 6.3), which converges for
    |arg x| < pi; |x| < 1: upward recursion e^x E_{m+1} = (1 - x e^x E_m)/m
    from e^x E_1, which only damps errors there; x = 0: 1/(n - 1).  Neither
    e^{-x} nor a power of x is formed, so nothing overflows or cancels.
    """
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    big = np.abs(x) >= 1.0
    if big.any():
        out[big] = _expint_fraction(n, x[big])
    small = ~big & (x != 0.0)
    if small.any():
        from scipy.special import exp1

        xs = x[small]
        val = np.exp(xs) * exp1(xs)
        for m in range(1, n):
            val = (1.0 - xs * val) / m
        out[small] = val
    zero = x == 0.0
    if zero.any():
        out[zero] = 1.0 / (n - 1)
    return out


def _expint_fraction(n, x):
    """e^x E_n(x) by the modified Lentz continued fraction, vectorized over x."""
    b = x + n
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, EXPINT_TERMS + 1):
        an = -i * (n - 1 + i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) <= EXPINT_TOL
        if done.all():
            return h
    raise RuntimeError(f"E_{n} continued fraction did not converge in {EXPINT_TERMS} terms")


def _kernel_const(n):
    return math.factorial(n - 1) / (2.0 * np.pi * 1j**n)


def _turns(rate, m):
    """Fractional part of rate * m for integer-valued m, to full precision.

    A chirp's phase alpha m^2 / 2 makes up to millions of radians; rounding
    the product would lose ~1e-10 of a turn, so the whole turns are
    removed from the exact product first.
    """
    p, e = _exact_product(rate, m)
    return (p - np.round(p)) + e


def _chirp_z(fw, t0, dt, omegas):
    """sum_j fw[j] e^{i omega_k (t0 + j dt)} at every omega_k of an evenly spaced grid.

    With omega_k = omega_0 + k domega, the identity
    kj = (k^2 + j^2 - (k - j)^2)/2 makes the sum one linear convolution of
    chirp-weighted sequences (Bluestein's algorithm), evaluated by FFT at a
    power-of-two length >= N + M - 1: O((N + M) log(N + M)) for N
    frequencies and M samples.  The grid may run either way and have any
    length >= 1; any other grid raises ValueError.
    """
    fw = np.asarray(fw, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n_om, m = omegas.size, fw.size
    if n_om == 0 or omegas.ndim != 1:
        raise ValueError("the frequency grid must be a non-empty 1-D array")
    k = np.arange(n_om, dtype=float)
    dw = (omegas[-1] - omegas[0]) / (n_om - 1) if n_om > 1 else 0.0
    # a linspace grid deviates from the line by a few ulps of max|omega|
    if np.abs(omegas - (omegas[0] + k * dw)).max() > 1e-13 * np.abs(omegas).max():
        raise ValueError("the frequency grid must be evenly spaced")
    half_turn = dw * dt / (4.0 * np.pi)  # alpha/2 in turns, alpha = domega dt
    j = np.arange(m, dtype=float)
    k_chirp = _turns(half_turn, k**2)
    size = 1 << (n_om + m - 2).bit_length()
    y = np.zeros(size, dtype=complex)
    y[:m] = fw * np.exp(2j * np.pi * (_turns(omegas[0] * dt / (2.0 * np.pi), j) + _turns(half_turn, j**2)))
    chirp = np.zeros(size, dtype=complex)
    chirp[:n_om] = np.exp(-2j * np.pi * k_chirp)
    back = np.arange(m - 1, 0, -1, dtype=float)
    chirp[size - m + 1 :] = np.exp(-2j * np.pi * _turns(half_turn, back**2))
    conv = np.fft.ifft(np.fft.fft(y) * np.fft.fft(chirp))[:n_om]
    outer, outer_err = _exact_product(omegas, t0)
    return np.exp(1j * outer) * np.exp(1j * outer_err + 2j * np.pi * k_chirp) * conv


def cauchy_series_transform(coeffs, shift, omegas):
    """FT of f(t) = sum_n coeffs[n] * C_n(t - shift) by a Simpson core plus exact tails.

    shift is the complex pole location (Im shift != 0).  The core window
    spans HALF_WIDTH times the pole offset on each side of Re shift,
    sampled at POINTS_PER_SCALE per offset and at most MAX_PHASE_STEP
    radians per step at the largest |omega|; its Simpson sum is one
    chirp-z transform, so omegas must be evenly spaced (ValueError
    otherwise).  Each tail beyond the window is
    e^{i omega t_edge} z0^{1-n} e^x E_n(x) with x = -+i omega z0 and z0 the
    edge's offset from the pole; the scaled E_n is evaluated without
    cancellation, so the tails hold the core's accuracy (~1e-13 of the
    peak against spectrum_cauchy, n = 1..16).  At omega = 0 the n = 1
    tails diverge and their finite sum is added in closed form.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    shift = complex(shift)
    s0 = abs(shift.imag)
    if s0 == 0.0:
        raise ValueError("pole on the real axis: Im shift must be nonzero")
    wmax = float(np.max(np.abs(omegas))) if omegas.size else 0.0
    dt = s0 / POINTS_PER_SCALE
    if wmax > 0.0:
        dt = min(dt, MAX_PHASE_STEP / wmax)
    W = HALF_WIDTH * s0
    n_half = int(np.ceil(W / dt))
    ts = shift.real + dt * np.arange(-n_half, n_half + 1)
    # composite Simpson weights (odd count by construction)
    wts = np.ones(ts.size)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= dt / 3.0

    f = np.zeros(ts.size, dtype=complex)
    for n, c in coeffs.items():
        f += c * _kernel_const(n) * (ts - shift) ** (-n)
    out = _chirp_z(f * wts, ts[0], dt, omegas)

    # analytic tails
    t_r, t_l = ts[-1], ts[0]
    z_r, z_l = t_r - shift, shift - t_l
    zero = omegas == 0.0
    for n, c in coeffs.items():
        cn = c * _kernel_const(n)
        live = ~zero if n == 1 else slice(None)
        w = omegas[live]
        right = np.exp(1j * w * t_r) * z_r ** (1 - n) * _scaled_expint(n, -1j * w * z_r)
        left = (-1.0) ** n * np.exp(1j * w * t_l) * z_l ** (1 - n) * _scaled_expint(n, 1j * w * z_l)
        out[live] += cn * (right + left)
        if n == 1 and zero.any():
            # symmetric window: paired tails in closed form
            nu = shift.imag
            out[zero] += cn * 2j * np.sign(nu) * (np.pi / 2 - np.arctan(abs(z_r.real / nu)))
    return out


def spectral_moments(omegas, amplitude):
    """Center and width of an amplitude spectrum by trapezoid moments."""
    omegas = np.asarray(omegas, dtype=float)
    amp = np.abs(np.asarray(amplitude))
    norm = np.trapezoid(amp, omegas)
    center = np.trapezoid(omegas * amp, omegas) / norm
    width = np.sqrt(np.trapezoid((omegas - center) ** 2 * amp, omegas) / norm)
    return center, width


def energy_split(omegas, values):
    """(negative-frequency energy, positive-frequency energy) of a spectrum."""
    omegas = np.asarray(omegas, dtype=float)
    power = np.abs(np.asarray(values)) ** 2
    neg = omegas <= 0.0
    e_neg = np.trapezoid(power[neg], omegas[neg]) if np.count_nonzero(neg) > 1 else 0.0
    pos = omegas >= 0.0
    e_pos = np.trapezoid(power[pos], omegas[pos]) if np.count_nonzero(pos) > 1 else 0.0
    return e_neg, e_pos
