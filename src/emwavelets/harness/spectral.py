"""Numeric Fourier transforms used as spectral oracles.

Two independent routes:

* de_fourier: double-exponential quadrature of an arbitrary callable f of
  a 1-D array of times (identity-grade checks).  Its nodes do not depend
  on f, so all frequencies go to f in a few vectorized calls, at two step
  sizes whose disagreement raises QuadratureDivergenceError.
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

Both return values of int e^{i omega t} f(t) dt.  Both are numpy alone:
the tails' E_1 for |x| < 1 is its own power series, not scipy.special's.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import QuadratureDivergenceError
from ..signals import _cauchy_coef
from ._format import _exact_product

__all__ = [
    "de_fourier",
    "cauchy_series_transform",
    "spectral_moments",
]

EXPINT_TOL, EXPINT_TERMS = 4e-16, 2000  # convergence of the E_n continued fraction
EXP1_TOL = 1e-15  # convergence of the E_1 power series (specfun's e1z)
HALF_WIDTH, POINTS_PER_SCALE, MAX_PHASE_STEP = 48.0, 64, 0.25  # cauchy_series_transform's Simpson core
DE_STEPS = ((0.075, 100), (0.05, 150))  # de_fourier's two rules (h, K), |k| <= K; the second is returned
DE_AGREE = 1e-10  # the two rules must agree to this fraction of the peak,
DE_ROUNDING = 64 * np.finfo(float).eps  # or to this fraction of sum |weight * f|, so a vanishing transform passes
DE_LOG_T = 40.0  # the omega = 0 rule spans e^-DE_LOG_T < t < e^DE_LOG_T
DE_BLOCK = 1 << 15  # nodes per call of f


def de_fourier(f, omegas):
    """Fourier transform of callable f(t) (complex-valued) at given frequencies.

    Each call is f(np.concatenate([t, -t])).  omega != 0 integrates
    cos(|omega| t) (f(t) + f(-t)) + i sgn(omega) sin(|omega| t) (f(t) - f(-t))
    over [0, inf) by Ooura and Mori's double-exponential formula (J. Comput.
    Appl. Math. 112 (1999) 229), whose nodes scale with 1/|omega|; omega = 0
    integrates f(t) + f(-t) by the exp-sinh rule.  Where the two DE_STEPS
    differ by more than DE_AGREE of the peak and by more than rounding,
    QuadratureDivergenceError names the worst frequency.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    (coarse, _), (fine, scale) = (_de_transform(f, omegas, h, k) for h, k in DE_STEPS)
    gap, peak = np.abs(fine - coarse), np.abs(fine).max()
    excess = gap - np.maximum(DE_AGREE * peak, DE_ROUNDING * scale)
    worst = int(np.argmax(excess))
    if not excess[worst] <= 0.0:
        raise QuadratureDivergenceError(
            f"Fourier quadrature did not converge at omega = {omegas[worst]:g}: step sizes "
            f"{DE_STEPS[0][0]} and {DE_STEPS[1][0]} differ by {gap[worst]:.3g} (peak {peak:.3g})"
        )
    return fine


def _ooura_mori(h, kmax):
    """(M phi(t), pi trig(M phi(t)) phi'(t)) of the cosine rule, t = (k - 1/2)h, and of the sine rule, t = kh.

    phi(t) = t / (1 - exp(-u)), u = 2t + alpha(1 - e^-t) + beta(e^t - 1), M h = pi, beta = 1/4 and
    alpha = beta / sqrt(1 + M log(1 + M) / (4 pi)).  For t > 0, trig(M phi) = (-1)^k sin(M (phi - t)),
    without the rounding of M phi; nodes whose weight underflows are dropped.
    """
    m = np.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * np.pi))
    c1, c2 = 2.0 + alpha + beta, (beta - alpha) / 2.0  # u = c1 t + c2 t^2 + ...
    k = np.arange(-kmax, kmax + 1.0)
    rules = []
    for t, trig in (((k - 0.5) * h, np.cos), (k * h, np.sin)):
        u = 2.0 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
        du = 2.0 + alpha * np.exp(-t) + beta * np.exp(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = -1.0 / np.expm1(-u)  # 1/(1 - e^-u)
            b = 1.0 / np.expm1(u)  # e^-u/(1 - e^-u) = a - 1
            phi, dphi, shift = t * a, a - t * du * a * b, m * t * b
        zero = t == 0.0  # the limits phi(0) = 1/c1 and phi'(0) = 1/2 - c2/c1^2
        phi[zero], dphi[zero], shift[zero] = 1.0 / c1, 0.5 - c2 / c1**2, 0.0
        w = np.pi * np.where(t > 0.0, (-1.0) ** k * np.sin(shift), trig(m * phi)) * dphi
        keep = w != 0.0
        rules.append((m * phi[keep], w[keep]))
    return rules


def _exp_sinh(h):
    """Nodes t = exp(pi/2 sinh(kh)) and weights h dt/ds of int_0^inf, for |pi/2 sinh(kh)| <= DE_LOG_T."""
    s = h * np.arange(1.0, math.asinh(2.0 * DE_LOG_T / np.pi) / h + 1.0)
    s = np.concatenate([-s[::-1], [0.0], s])
    t = np.exp(0.5 * np.pi * np.sinh(s))
    return t, h * 0.5 * np.pi * np.cosh(s) * t


def _de_transform(f, omegas, h, kmax):
    """de_fourier's transform by one rule, and the sum of |weight * f| at each frequency.

    np.vecdot sums with the real weights first (it conjugates them), not BLAS: no bit depends on BLAS threads.
    """
    (xc, wc), (xs, ws) = _ooura_mori(h, kmax)
    nodes, nc = np.concatenate([xc, xs]), xc.size
    out = np.empty(omegas.shape, dtype=complex)
    scale = np.empty(omegas.shape)
    zero = omegas == 0.0
    if zero.any():
        t, w = _exp_sinh(h)
        even, _ = _paired(f, t)
        out[zero], scale[zero] = np.vecdot(w, even), np.vecdot(w, np.abs(even))
    live = np.flatnonzero(~zero)
    per = max(1, DE_BLOCK // nodes.size)
    for i in range(0, live.size, per):
        at = live[i : i + per]
        aw = np.abs(omegas[at])
        even, odd = _paired(f, (nodes / aw[:, None]).ravel())
        even, odd = even.reshape(at.size, -1)[:, :nc], odd.reshape(at.size, -1)[:, nc:]
        out[at] = (np.vecdot(wc, even) + 1j * np.sign(omegas[at]) * np.vecdot(ws, odd)) / aw
        scale[at] = (np.vecdot(np.abs(wc), np.abs(even)) + np.vecdot(np.abs(ws), np.abs(odd))) / aw
    return out, scale


def _paired(f, t):
    """(f(t) + f(-t), f(t) - f(-t)) from one call of f."""
    ft, fm = np.split(np.asarray(f(np.concatenate([t, -t])), dtype=complex), 2)
    return ft + fm, ft - fm


def _scaled_expint(n, x):
    """e^x E_n(x) for complex x, E_n(x) = int_1^inf e^{-x s} s^{-n} ds continued.

    |x| >= 1: modified Lentz evaluation of the continued fraction
    (Numerical Recipes, 3rd ed., section 6.3), tested to converge for
    |arg x| <= 0.85 pi, |x| = 1 to 1e6 and n = 1 to 64 (the transform's tails
    have |arg x| < 0.51 pi); nearer the negative real axis it may not, and
    raises QuadratureDivergenceError.  0 < |x| < 1: upward recursion
    e^x E_{m+1} = (1 - x e^x E_m)/m, which only damps errors there, from
    e^x E_1 with E_1 by its power series (_exp1_series, ~2e-15 relative).
    x = 0: 1/(n - 1) for n >= 2; E_1 diverges there, so n = 1 raises
    QuadratureDivergenceError.  Neither e^{-x} nor a power of x is formed,
    so nothing overflows or cancels.
    """
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    big = np.abs(x) >= 1.0
    if big.any():
        out[big] = _expint_fraction(n, x[big])
    small = ~big & (x != 0.0)
    if small.any():
        xs = x[small]
        val = np.exp(xs) * _exp1_series(xs)
        for m in range(1, n):
            val = (1.0 - xs * val) / m
        out[small] = val
    zero = x == 0.0
    if zero.any():
        if n == 1:
            raise QuadratureDivergenceError(f"e^x E_{n}(x) diverges at x = {x[zero][0]:.17g}: "
                                            f"E_n(0) is finite only for n >= 2")
        out[zero] = 1.0 / (n - 1)
    return out


def _exp1_series(x):
    """E_1(x) for complex 0 < |x| < 1 by its power series, vectorized over a 1-D x.

    The series branch of specfun's e1z (Zhang and Jin, Computation of Special
    Functions, 1996): E_1(x) = -gamma - log x + x sum_k c_k with c_0 = 1 and
    c_k = -c_{k-1} x k / (k + 1)^2, summed until |c_k| <= EXP1_TOL |sum|, at
    most ~20 terms for |x| < 1 (a NaN entry leaves at once).  An entry leaves
    the loop at that step, as in _expint_fraction.  Real and imaginary parts
    are kept apart, so each product and each division by (k + 1)^2 rounds as
    in e1z's C++; numpy's complex multiply, division and abs round otherwise.
    Within ~2e-15 relative of E_1 on the unit disk.
    """
    xr, xi = x.real, x.imag
    cr, ci = np.ones_like(xr), np.zeros_like(xr)
    sr, si = cr.copy(), ci.copy()
    total = np.empty_like(x)
    open_ = np.arange(x.size)
    for k in itertools.count(1):
        factor, divisor = -k, (k + 1) ** 2
        cr, ci = (cr * xr - ci * xi) * factor / divisor, (cr * xi + ci * xr) * factor / divisor
        sr, si = sr + cr, si + ci
        done = ~(np.hypot(cr, ci) > EXP1_TOL * np.hypot(sr, si))
        if done.all():
            total[open_] = sr + 1j * si
            return -np.euler_gamma - np.log(x) + x * total
        if done.any():
            total[open_[done]] = sr[done] + 1j * si[done]
            left = ~done
            xr, xi, cr, ci, sr, si, open_ = xr[left], xi[left], cr[left], ci[left], sr[left], si[left], open_[left]


def _expint_fraction(n, x):
    """e^x E_n(x) by the modified Lentz continued fraction, vectorized over a 1-D x.

    An entry leaves the iteration in the step it converges: its h goes to its
    index in the output, and b, c, d and h drop it, so a step costs only the
    entries still open and each entry keeps the bits of the full-length loop.
    """
    b = x + n
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(h)
    open_ = np.arange(h.size)
    for i in range(1, EXPINT_TERMS + 1):
        an = -i * (n - 1 + i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= EXPINT_TOL
        if done.all():
            out[open_] = h
            return out
        if done.any():
            out[open_[done]] = h[done]
            left = ~done
            b, c, d, h, open_ = b[left], c[left], d[left], h[left], open_[left]
    raise QuadratureDivergenceError(f"E_{n} continued fraction did not converge in {EXPINT_TERMS} terms at "
                                    f"x = {x[open_[0]]:.17g} ({open_.size} of {x.size} arguments)")


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
        f += c * _cauchy_coef(n, 0) * (ts - shift) ** (-n)
    out = _chirp_z(f * wts, ts[0], dt, omegas)

    # analytic tails
    t_r, t_l = ts[-1], ts[0]
    z_r, z_l = t_r - shift, shift - t_l
    zero = omegas == 0.0
    for n, c in coeffs.items():
        cn = c * _cauchy_coef(n, 0)
        live = ~zero if n == 1 else slice(None)
        w = omegas[live]
        # both tails in one call: a continued fraction and a series loop per order, not two
        e_r, e_l = np.split(_scaled_expint(n, np.concatenate([-1j * w * z_r, 1j * w * z_l])), 2)
        right = np.exp(1j * w * t_r) * z_r ** (1 - n) * e_r
        left = (-1.0) ** n * np.exp(1j * w * t_l) * z_l ** (1 - n) * e_l
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
