"""Central-difference operators, and the numerical oracles built on them.

All operators take a callable f(r, t) vectorized over points r with shape
(..., 3) (scalar- or 3-vector-valued) and differentiate it at the given
points.  Stencil order 2 or 4.  The oracles at the end re-derive the
closed forms of the core modules by differencing: the field from psi, the
Lorenz gauge from the potentials, the wave operator on psi, and band-pass
sources from the impulse response.  The core modules never difference
anything.
"""

from __future__ import annotations

import numpy as np

from ..em_fields import _as_pol, four_potential
from ..errors import TooCloseToCutError
from ..geometry import SourceConfig, _cross, spheroid_point
from ..scalar_wavelet import ScalarWavelet, interior_psi, psi
from ..signals import CauchySignal
from ..surface_sources import SurfaceSourceSample, surface_sources_exact

__all__ = [
    "grad",
    "divergence",
    "curl",
    "time_derivative",
    "laplacian",
    "dalembertian",
    "hessian_apply",
    "nth_derivative_param",
    "richardson",
    "field_curl_oracle",
    "lorenz_residual",
    "wave_residual",
    "bandpass_via_impulse",
]

_FIRST = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12)),
}
_SECOND = {
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    4: ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12)),
}
# central stencils for the k-th derivative of a 1-parameter function
_PARAM = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def _axis_first(f, r, t, h, axis, order):
    offs, wts = _FIRST[order]
    r = np.asarray(r, dtype=float)
    e = np.zeros(3)
    e[axis] = 1.0
    acc = sum(w * np.asarray(f(r + o * h * e, t)) for o, w in zip(offs, wts))
    return acc / h


def _axis_second(f, r, t, h, axis, order):
    offs, wts = _SECOND[order]
    r = np.asarray(r, dtype=float)
    e = np.zeros(3)
    e[axis] = 1.0
    acc = sum(w * np.asarray(f(r + o * h * e, t)) for o, w in zip(offs, wts))
    return acc / h**2


def grad(f, r, t, h, order: int = 2):
    """Gradient of scalar f; returns shape (..., 3)."""
    comps = [_axis_first(f, r, t, h, ax, order) for ax in range(3)]
    return np.stack(comps, axis=-1)


def divergence(F, r, t, h, order: int = 2):
    """Divergence of vector F (components on the last axis)."""
    return sum(
        _axis_first(lambda rr, tt, ax=ax: np.asarray(F(rr, tt))[..., ax], r, t, h, ax, order)
        for ax in range(3)
    )


def curl(F, r, t, h, order: int = 2):
    """Curl of vector F."""
    d = [
        [
            _axis_first(lambda rr, tt, c=c: np.asarray(F(rr, tt))[..., c], r, t, h, ax, order)
            for c in range(3)
        ]
        for ax in range(3)
    ]  # d[axis][component]
    return np.stack(
        [d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]],
        axis=-1,
    )


def time_derivative(f, r, t, h, order: int = 2, k: int = 1):
    """k-th time derivative (k = 1 or 2) of f(r, t)."""
    table = _FIRST if k == 1 else _SECOND
    offs, wts = table[order]
    acc = sum(w * np.asarray(f(r, t + o * h)) for o, w in zip(offs, wts))
    return acc / h**k


def laplacian(f, r, t, h, order: int = 2):
    return sum(_axis_second(f, r, t, h, ax, order) for ax in range(3))


def dalembertian(f, r, t, h, order: int = 2):
    """Wave operator d2/dt2 - laplacian applied to f."""
    return time_derivative(f, r, t, h, order, k=2) - laplacian(f, r, t, h, order)


def hessian_apply(f, r, t, h, v):
    """Hessian of scalar f applied to the constant vector v (2nd-order stencils)."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v)
    eye = np.eye(3)
    H = [[None] * 3 for _ in range(3)]
    for i in range(3):
        H[i][i] = _axis_second(f, r, t, h, i, 2)
        for j in range(i + 1, 3):
            ei, ej = eye[i] * h, eye[j] * h
            dij = (
                np.asarray(f(r + ei + ej, t))
                - np.asarray(f(r + ei - ej, t))
                - np.asarray(f(r - ei + ej, t))
                + np.asarray(f(r - ei - ej, t))
            ) / (4.0 * h**2)
            H[i][j] = H[j][i] = dij
    rows = [sum(H[i][j] * v[j] for j in range(3)) for i in range(3)]
    return np.stack(rows, axis=-1)


def nth_derivative_param(func, x0: float, k: int, h: float):
    """k-th derivative (k <= 4) of a 1-parameter function by central differences."""
    offs, wts = _PARAM[k]
    acc = sum(w * np.asarray(func(x0 + o * h)) for o, w in zip(offs, wts))
    return acc / h**k


def richardson(coarse, fine, order: int, ratio: float = 2.0):
    """Extrapolate two stencil evaluations at steps h and h/ratio."""
    fac = ratio**order
    return (fac * fine - coarse) / (fac - 1.0)


# --------------------------------------------------------------------------
# Oracles


def field_curl_oracle(w: ScalarWavelet, pol, r, t, h: float | None = None):
    """F recomputed as curl curl Z + i d/dt curl Z, Z = psi*pol, by differencing psi.

    Uses curl curl Z = grad(div Z) - lap(Z) and curl Z = grad(psi) x pol,
    so only the scalar psi is ever sampled.  Independent of the L/M/N
    algebra.
    """
    pol = _as_pol(pol)
    if h is None:
        h = 1e-4 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    if np.any(w.cut.clearance(r, w.cfg) <= 4.0 * h):
        raise TooCloseToCutError("oracle stencil would straddle the branch cut")
    f = lambda rr, tt: psi(w, rr, tt)
    hess_pol = hessian_apply(f, r, t, h, pol)
    lap = laplacian(f, r, t, h, order=2)
    dgrad_dt = time_derivative(lambda rr, tt: grad(f, rr, tt, h, order=2), r, t, h, order=2)
    curl_z_dot = _cross(dgrad_dt, pol)
    return hess_pol - lap[..., None] * pol + 1j * curl_z_dot


def lorenz_residual(w: ScalarWavelet, pol, r, t, h: float | None = None):
    """|dA0/dt + div A| by outer central differences on the exact potentials."""
    if h is None:
        h = 1e-3 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    dA0 = time_derivative(lambda rr, tt: four_potential(w, pol, rr, tt)[0], r, t, h)
    divA = divergence(lambda rr, tt: four_potential(w, pol, rr, tt)[1], r, t, h)
    return np.abs(dA0 + divA)


def wave_residual(w: ScalarWavelet, r, t, h: float | None = None, order: int = 4, interior: bool = False):
    """Central-difference wave-operator residual of psi (or the interior combination).

    Off the cut the residual vanishes as O(h^order); near the cut the
    stencil is refused.
    """
    if h is None:
        h = 1e-3 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    margin = (2 if order == 2 else 4) * h
    if not interior and np.any(w.cut.clearance(r, w.cfg) <= margin):
        raise TooCloseToCutError("stencil would straddle the branch cut")
    f = (lambda rr, tt: interior_psi(w, rr, tt)) if interior else (lambda rr, tt: psi(w, rr, tt))
    return dalembertian(f, r, t, h, order=order)


def bandpass_via_impulse(n: int, w: ScalarWavelet, pol, q, phi, alpha, t,
                         db_step: float | None = None,
                         q_min: float | None = None) -> SurfaceSourceSample:
    """Surface sources for the band-pass drive C_n as (-d/db)^(n-1) of the impulse response.

    Uses C_n = (-d/db)^(n-1) C_1; cross-checks surface_sources.bandpass_response.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = w.cfg
    if db_step is None:
        db_step = 1e-4 * abs(cfg.b)

    def impulse_at(b):
        cfg_b = SourceConfig(a=cfg.a, b=b, c=cfg.c)
        w1 = ScalarWavelet(cut=w.cut, cfg=cfg_b, sig=CauchySignal(1))
        s = surface_sources_exact(w1, pol, q, phi, alpha, t, q_min=q_min)
        return np.concatenate([np.atleast_1d(s.j0)[..., None], np.atleast_2d(s.j)], axis=-1)

    if n == 1:
        packed = impulse_at(cfg.b)
    else:
        packed = (-1.0) ** (n - 1) * nth_derivative_param(impulse_at, cfg.b, n - 1, db_step)
    return SurfaceSourceSample(position=spheroid_point(alpha, q, phi, cfg),
                               q=np.asarray(q, dtype=float), phi=np.asarray(phi, dtype=float),
                               j0=packed[..., 0], j=packed[..., 1:4])
