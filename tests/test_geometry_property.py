"""Property test: the component-form 3-vector kernels return the bytes of numpy's forms.

_dot, _norm and _cross replace np.sum(u * v, axis=-1), np.sqrt(np.sum(...))
and np.cross everywhere in the package, and ComplexDistanceSample._num writes
p r + q a and p a - q r per component, so they must agree bit for bit with
the broadcast forms, signed zeros and infinities included, and put NaNs in
the same places, whatever the memory layout.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from emwavelets.geometry import ComplexDistanceSample, SourceConfig, _cross, _dot, _norm

# a value pool that makes signed zeros, cancellations, overflow and inf*0 likely
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e-300, 1e300, -1e300,
           np.inf, -np.inf, np.nan, 5e-324]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
LAYOUTS = ["C", "F", "reversed", "transposed"]


def _real(draw, shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=float).reshape(shape)


def _layout(x, layout):
    """x with the same values in another memory layout (a view where numpy allows)."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "reversed":  # negative strides on every axis
        rev = (slice(None, None, -1),) * x.ndim
        return x[rev].copy()[rev]
    if layout == "transposed":  # the last axis strided, the leading ones contiguous
        return np.ascontiguousarray(np.moveaxis(x, -1, 0)).transpose(
            tuple(range(1, x.ndim)) + (0,))
    return x


@st.composite
def operand(draw, shape):
    x = _real(draw, shape)
    if draw(st.booleans()):  # set the parts directly: x + 1j*y would turn 1j*inf into nan+inf*j
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = x, _real(draw, shape)
        x = z
    return _layout(x, draw(st.sampled_from(LAYOUTS)))


@st.composite
def operand_pair(draw):
    """(u, v) in either order: equal shapes, (3,) against (N, 3), (S, N, 3) against (3,) or (N, 3)."""
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, 4))
    su, sv = draw(st.sampled_from([((n, 3), (n, 3)), ((3,), (n, 3)), ((s, n, 3), (3,)),
                                   ((s, n, 3), (n, 3))]))
    u, v = draw(operand(su)), draw(operand(sv))
    return (v, u) if draw(st.booleans()) else (u, v)


def same_bytes(got, want):
    """Equal bytes, except that a NaN only has to be a NaN.

    Which NaN a sum of two NaNs returns is left open by IEEE 754, and numpy's
    add loops and reductions are compiled with different operand orders, so
    a NaN's sign and payload are not part of the contract.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    g, w = (np.ascontiguousarray(x).reshape(-1).view(np.float64) for x in (got, want))
    assert np.array_equal(np.isnan(g), np.isnan(w)), (got, want)
    assert np.where(np.isnan(g), 0.0, g).tobytes() == np.where(np.isnan(w), 0.0, w).tobytes(), (got, want)


@settings(max_examples=150)
@given(operand_pair())
def test_dot_is_np_sum(uv):
    u, v = uv
    with np.errstate(all="ignore"):
        same_bytes(_dot(u, v), np.sum(u * v, axis=-1))


@settings(max_examples=150)
@given(st.sampled_from([(3,), (5, 3), (2, 4, 3)]).flatmap(operand))
def test_norm_is_np_sqrt_np_sum(v):
    with np.errstate(all="ignore"):
        same_bytes(_norm(v), np.sqrt(np.sum(np.real(v) ** 2 + np.imag(v) ** 2, axis=-1)))


@settings(max_examples=150)
@given(operand_pair())
def test_cross_is_np_cross(uv):
    u, v = uv
    shape = np.broadcast_shapes(u.shape, v.shape)
    with np.errstate(all="ignore"):
        same_bytes(_cross(u, v), np.cross(np.broadcast_to(u, shape), np.broadcast_to(v, shape)))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", [float, complex])
def test_negative_zero_rows_sum_to_positive_zero(layout, dtype):
    """A row of three -0.0 products sums to +0.0, as np.sum gives it."""
    u = _layout(np.full((4, 3), -0.0, dtype=dtype), layout)
    v = np.ones(3)
    got = _dot(u, v)
    same_bytes(got, np.sum(u * v, axis=-1))
    assert not np.signbit(got.real).any() and not np.signbit(np.imag(got)).any()


@st.composite
def sample_inputs(draw):
    """(r, p, q, a) for a ComplexDistanceSample: r of shape (3,), (N, 3) or (S, N, 3)."""
    shape = draw(st.sampled_from([(3,), (draw(st.integers(1, 6)), 3), (draw(st.integers(1, 4)), 5, 3)]))
    r = _layout(_real(draw, shape), draw(st.sampled_from(LAYOUTS)))
    p, q = _real(draw, shape[:-1]), _real(draw, shape[:-1])
    a = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-8, -7.0]),
                               min_size=3, max_size=3)))
    return r, p, q, a


@settings(max_examples=150)
@given(sample_inputs())
def test_num_is_the_broadcast_formula(rpqa):
    r, p, q, a = rpqa
    if not np.any(a):
        a[2] = 1.0
    cfg = SourceConfig(a=a, b=2.0 * float(np.linalg.norm(a)) + 1.0)
    with np.errstate(all="ignore"):
        # the branch-circle refusal reads p^2 + q^2; keep the drawn values clear of it
        far = ~(p**2 + q**2 <= (1e-8 * cfg.a_mag) ** 2)
        p = np.where(far, p, 1.0)
        sample = ComplexDistanceSample(r, cfg, p - 1j * q, p, q)
        num_p, num_q = sample._num
        same_bytes(num_p, p[..., None] * r + q[..., None] * a)
        same_bytes(num_q, p[..., None] * a - q[..., None] * r)
