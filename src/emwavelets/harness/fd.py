"""Central-difference operators, and the numerical oracles built on them.

All operators take a callable f(r, t) vectorized over points r with shape
(..., 3) (scalar- or 3-vector-valued) and differentiate it at the given
points.  One table holds every central stencil (order 2 or 4).  A spatial
operator evaluates each of its stencil points once, in one call of f on
the points stacked along a new leading axis of r, and sums the values in
stencil order: a curl samples F twice per axis at order 2, and a
Laplacian samples the centre its three axes share once.  That one call
holds all of the operator's points at once, so its temporaries are those
of f on 6N points for an order-2 curl of N points (12N at order 4, 7N for
a Laplacian, 19N for the Hessian of field_curl_oracle): difference a large
set of points in chunks.  Stencils in t and in a parameter call f once per
offset.  The oracles at the end re-derive the closed forms of the core
modules by differencing: the field from psi, the Lorenz gauge from the
potentials, the wave operator on psi, and band-pass sources from the
impulse response.  Those that sample near a cut share one refusal of a
stencil that would straddle it.  The core modules never difference
anything.
"""

from __future__ import annotations

import numpy as np

from ..em_fields import _as_pol, four_potential
from ..errors import TooCloseToCutError, refuse
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
    "nth_derivative_param",
    "field_curl_oracle",
    "lorenz_residual",
    "wave_residual",
    "bandpass_via_impulse",
]

# Central-difference weights (Fornberg, Math. Comp. 51 (1988) 699):
# (k, order) -> offsets and weights of the k-th derivative at the given order.
_STENCIL = {
    (1, 2): ((-1, 1), (-0.5, 0.5)),
    (1, 4): ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12)),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0)),
    (2, 4): ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12)),
    (3, 2): ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    (4, 2): ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def _weights(k, order):
    if (k, order) not in _STENCIL:
        raise ValueError(f"no central stencil for derivative {k} at order {order}")
    return _STENCIL[k, order]


def _combine(values, wts, h, k):
    """The stencil's weighted sum, in stencil order."""
    return sum(w * v for v, w in zip(values, wts)) / h**k


def _stencil(g, h, k, order):
    """k-th derivative at s = 0 of g(s), evaluating g once at each point s = o*h."""
    offs, wts = _weights(k, order)
    return _combine((np.asarray(g(o * h)) for o in offs), wts, h, k)


def _axis_points(r, h, offs):
    """The points r + o*h*e of stencil offs on the axes through r, and each axis's indices into them.

    The centre r + 0.0 lies on every axis, so it is listed once, first;
    then come each axis's shifted points.
    """
    shifted = [o for o in offs if o != 0]
    centre = [r + 0.0] if 0 in offs else []
    points = centre + [r + o * h * e for e in np.eye(3) for o in shifted]
    at = lambda ax, o: 0 if o == 0 else len(centre) + ax * len(shifted) + shifted.index(o)
    return points, [[at(ax, o) for o in offs] for ax in range(3)]


def _axes(f, r, t, h, k, order):
    """[d^k f/dx^k, d^k f/dy^k, d^k f/dz^k], each of the whole value of f, from one call of f."""
    offs, wts = _weights(k, order)
    points, index = _axis_points(np.asarray(r, dtype=float), h, offs)
    vals = np.asarray(f(np.stack(points), t))
    return [_combine((vals[i] for i in idx), wts, h, k) for idx in index]


def grad(f, r, t, h, order: int = 2):
    """Gradient of scalar f; returns shape (..., 3)."""
    return np.stack(_axes(f, r, t, h, 1, order), axis=-1)


def divergence(F, r, t, h, order: int = 2):
    """Divergence of vector F (components on the last axis)."""
    d = _axes(F, r, t, h, 1, order)
    return sum(d[ax][..., ax] for ax in range(3))


def curl(F, r, t, h, order: int = 2):
    """Curl of vector F."""
    d = _axes(F, r, t, h, 1, order)  # d[axis][..., component]
    return np.stack(
        [d[1][..., 2] - d[2][..., 1], d[2][..., 0] - d[0][..., 2], d[0][..., 1] - d[1][..., 0]],
        axis=-1,
    )


def time_derivative(f, r, t, h, order: int = 2, k: int = 1):
    """k-th time derivative of f(r, t): k = 1..4 at order 2, k = 1, 2 at order 4."""
    return _stencil(lambda s: f(r, t + s), h, k, order)


def laplacian(f, r, t, h, order: int = 2):
    return sum(_axes(f, r, t, h, 2, order))


def dalembertian(f, r, t, h, order: int = 2):
    """Wave operator d2/dt2 - laplacian applied to f."""
    return time_derivative(f, r, t, h, order, k=2) - laplacian(f, r, t, h, order)


def _hessian(f, r, t, h):
    """Hessian H[i][j] of scalar f (2nd-order stencils), from one call of f on its 19 points.

    The diagonal is laplacian's terms; each mixed term takes the corners r +- h e_i +- h e_j.
    """
    r = np.asarray(r, dtype=float)
    offs, wts = _weights(2, 2)
    points, index = _axis_points(r, h, offs)
    eye = np.eye(3)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    for i, j in pairs:
        ei, ej = eye[i] * h, eye[j] * h
        points += [r + ei + ej, r + ei - ej, r - ei + ej, r - ei - ej]
    vals = np.asarray(f(np.stack(points), t))
    corners = vals[-4 * len(pairs) :]
    H = [[None] * 3 for _ in range(3)]
    for i, idx in enumerate(index):
        H[i][i] = _combine((vals[n] for n in idx), wts, h, 2)
    for m, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = corners[4 * m : 4 * m + 4]
        H[i][j] = H[j][i] = (pp - pm - mp + mm) / (4.0 * h**2)
    return H


def _contract(H, v):
    return np.stack([sum(H[i][j] * v[j] for j in range(3)) for i in range(3)], axis=-1)


def nth_derivative_param(func, x0: float, k: int, h: float):
    """k-th derivative (k <= 4) of a 1-parameter function by central differences."""
    return _stencil(lambda s: func(x0 + s), h, k, 2)


# --------------------------------------------------------------------------
# Oracles


def _refuse_straddle(w: ScalarWavelet, r, margin):
    """Refuse the points within margin of the wavelet's cut, where a stencil would cross it."""
    refuse(TooCloseToCutError, "stencil would straddle the branch cut",
           w.cut.clearance(r, w.cfg) <= margin, r)


def field_curl_oracle(w: ScalarWavelet, pol, r, t, h: float | None = None):
    """F recomputed as curl curl Z + i d/dt curl Z, Z = psi*pol, by differencing psi.

    Uses curl curl Z = grad(div Z) - lap(Z) and curl Z = grad(psi) x pol,
    so only the scalar psi is ever sampled: at 19 points in one call for the
    Hessian, whose trace is the Laplacian, and at 12 in one call per time
    offset for d/dt grad psi.  Independent of the L/M/N algebra.
    """
    pol = _as_pol(pol)
    if h is None:
        h = 1e-4 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    _refuse_straddle(w, r, 4.0 * h)
    f = lambda rr, tt: psi(w, rr, tt)
    H = _hessian(f, r, t, h)
    lap = sum(H[i][i] for i in range(3))
    dgrad_dt = time_derivative(lambda rr, tt: grad(f, rr, tt, h, order=2), r, t, h, order=2)
    curl_z_dot = _cross(dgrad_dt, pol)
    return _contract(H, pol) - lap[..., None] * pol + 1j * curl_z_dot


def lorenz_residual(w: ScalarWavelet, pol, r, t, h: float | None = None):
    """|dA0/dt + div A| by outer central differences on the exact potentials."""
    if h is None:
        h = 1e-3 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    _refuse_straddle(w, r, 2.0 * h)
    dA0 = time_derivative(lambda rr, tt: four_potential(w, pol, rr, tt)[0], r, t, h)
    divA = divergence(lambda rr, tt: four_potential(w, pol, rr, tt)[1], r, t, h)
    return np.abs(dA0 + divA)


def wave_residual(w: ScalarWavelet, r, t, h: float | None = None, order: int = 4, interior: bool = False):
    """Central-difference wave-operator residual of psi (or the interior combination).

    Off the cut the residual vanishes as O(h^order); near the cut the
    stencil is refused, except for the interior combination, which is
    single-valued across it.
    """
    if h is None:
        h = 1e-3 * w.cfg.a_mag
    r = np.asarray(r, dtype=float)
    if not interior:
        _refuse_straddle(w, r, (2 if order == 2 else 4) * h)
    f = (lambda rr, tt: interior_psi(w, rr, tt)) if interior else (lambda rr, tt: psi(w, rr, tt))
    return dalembertian(f, r, t, h, order=order)


def bandpass_via_impulse(n: int, w: ScalarWavelet, pol, q, phi, alpha, t,
                         db_step: float | None = None) -> SurfaceSourceSample:
    """Surface sources for the band-pass drive C_n as (-d/db)^(n-1) of the impulse response.

    Uses C_n = (-d/db)^(n-1) C_1; cross-checks surface_sources_exact driven by C_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = w.cfg
    if db_step is None:
        db_step = 1e-4 * abs(cfg.b)

    def impulse_at(b):
        cfg_b = SourceConfig(a=cfg.a, b=b)
        w1 = ScalarWavelet(cut=w.cut, cfg=cfg_b, sig=CauchySignal(1))
        s = surface_sources_exact(w1, pol, q, phi, alpha, t)
        return np.concatenate([np.atleast_1d(s.j0)[..., None], np.atleast_2d(s.j)], axis=-1)

    if n == 1:
        packed = impulse_at(cfg.b)
    else:
        packed = (-1.0) ** (n - 1) * nth_derivative_param(impulse_at, cfg.b, n - 1, db_step)
    return SurfaceSourceSample(position=spheroid_point(alpha, q, phi, cfg),
                               q=np.asarray(q, dtype=float), phi=np.asarray(phi, dtype=float),
                               j0=packed[..., 0], j=packed[..., 1:4])
