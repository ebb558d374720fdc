"""Exact "%.17g" text of float64 arrays, by whole-array numpy kernels.

format17(x) returns, for every value, the bytes of "%.17g" % v in a row
of WIDTH bytes padded with NULs.  Each finite |v| in [_LOW, _HIGH] is
converted without per-value Python:

* E = floor(log10|v|) is floor(eb log10 2) for the binary exponent eb,
  or one more: a comparison with the smallest double >= 10^(E+1) decides.
  Then y = |v| 10^(16-E) lies in [1e16, 1e17).
* y is evaluated to ~1e-14: 10^(16-E) is held as a double-double
  (hi, lo), |v| hi as Dekker's two-product p + err (T. J. Dekker, Numer.
  Math. 18 (1971) 224), and y = p + (err + |v| lo) with p an integer, as
  y > 2^53.  D = round(y) is then exact unless the fraction of y lies
  within _TIE of 1/2; if D = 10^17, D = 10^16 and E grows by one.
* A row is three little-endian 8-byte words.  D's 17 digits fill them from
  a table of base-10^4 limbs; trailing zeros are masked off, and the
  decimal point goes in by moving the digits after it up one byte.  The
  sign with a "0.000" prefix, and the exponent, come from tables, and
  every piece is shifted to where the one before it ends.

NaN, infinities, magnitudes outside [_LOW, _HIGH] (subnormals among them)
and near-ties are formatted one at a time by _fallback; zeros take the fast
path, -0.0 as "-0".
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["WIDTH", "format17"]

_LOW, _HIGH = 1e-280, 1e280  # 10^(16-E) and its error term stay normal doubles
_TIE = 1e-9  # fraction of y this close to 1/2 goes to _fallback; y is known to ~1e-14
WIDTH = 24  # the longest text, "-d.dddddddddddddddde-XXX": three words
_SPAN = 300  # the tables cover E and 10^j for j in [-_SPAN, _SPAN]
_ZERO = ord("0")


def _words(rows):
    """uint8 rows of 8 k bytes as rows of k little-endian uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


# The tables are built from uint8 arrays: they are built at import.
# A limb 0..9999 as its four digit bytes, and the number of its digits up to
# its last nonzero one (-64 for 0 loses every maximum).
_digit = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
_limb_rows = np.zeros((10**4, 8), dtype=np.uint8)
for _k in range(4):
    _limb_rows[:, _k] = np.tile(np.repeat(_digit, 10 ** (3 - _k)), 10**_k)
_LIMB = _words(_limb_rows)[:, 0]
_SIG4 = np.full(10**4, -64, dtype=np.int8)
for _k in range(4):
    _SIG4[_limb_rows[:, _k] != _ZERO] = _k + 1
del _digit, _limb_rows, _k

# Per word k of a row: the first n bytes (_FIRST[k][n], n = 0 ... WIDTH); and for a
# decimal point after digit i - 1 (index i; 0 for none), the bytes that stay, the
# bytes taken from the digits moved up one byte, and the point.
_FIRST = _words((np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None]) * np.uint8(255)).T.copy()
_STAY = np.concatenate([_FIRST[:, -1:], _FIRST[:, 1:17]], axis=1)
_MOVED = np.concatenate([_FIRST[:, :1], ~_FIRST[:, 2:18]], axis=1)
_point_rows = (np.arange(WIDTH) == np.arange(17)[:, None]) & (np.arange(17) > 0)[:, None]
_POINT = _words(_point_rows * np.uint8(ord("."))).T.copy()

# The sign, then "0." and 0-3 zeros below 1: index 5 sign + (0, or -E for E < 0).
_prefixes = [s + p for s in ("", "-") for p in ("", "0.", "0.0", "0.00", "0.000")]
_prefix_rows = b"".join(p.encode().ljust(8, b"\0") for p in _prefixes)
_PREFIX = _words(np.frombuffer(_prefix_rows, dtype=np.uint8).reshape(-1, 8))[:, 0]
_PREFIX_LEN = np.array([len(p) for p in _prefixes])
del _point_rows, _prefixes, _prefix_rows

# "e", the sign and two or three digits of E in [-_SPAN, _SPAN]; empty where
# -4 <= E < 17, the fixed notation.
_m = np.abs(np.arange(-_SPAN, _SPAN + 1))
_big = _m >= 100
_exp_rows = np.zeros((2 * _SPAN + 1, 8), dtype=np.uint8)
_exp_rows[:, 0] = ord("e")
_exp_rows[:, 1] = np.where(np.arange(-_SPAN, _SPAN + 1) < 0, ord("-"), ord("+"))
_exp_rows[:, 2] = np.where(_big, _m // 100, _m // 10 % 10) + _ZERO
_exp_rows[:, 3] = np.where(_big, _m // 10 % 10, _m % 10) + _ZERO
_exp_rows[:, 4] = (_m % 10 + _ZERO) * _big
_exp_rows[_SPAN - 4 : _SPAN + 17] = 0
_EXP = _words(_exp_rows)[:, 0]
del _m, _big, _exp_rows

# The shifts that put a word at byte n = 0 ... WIDTH of a row, per word k: left if
# it starts in word k, right if it starts in word k - 1; shifting by 64 gives 0.
_at = 8 * np.arange(WIDTH + 1)[:, None] - 64 * np.arange(3)
_SHL = np.where(_at >= 0, np.minimum(_at, 64), 64).astype(np.uint64).T.copy()
_SHR = np.where(_at < 0, np.minimum(-_at, 64), 64).astype(np.uint64).T.copy()
del _at


def _exact_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker's two-product)."""
    p = a * b
    a_hi, a_lo = _veltkamp_split(a)
    b_hi, b_lo = _veltkamp_split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _veltkamp_split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """(hi, lo, ceil) of 10^j for j in [-_SPAN, _SPAN], built from Python ints once.

    10^j = hi + lo to ~2^-106, and ceil is the smallest double >= 10^j.
    """
    rows = []
    for j in range(-_SPAN, _SPAN + 1):
        if j >= 0:
            hi = float(10**j)
            lo = float(10**j - int(hi))
        else:
            num, den = (1 / 10**-j).as_integer_ratio()  # int true division rounds correctly
            hi = num / den
            lo = (den - num * 10**-j) / (den * 10**-j)
        rows.append((hi, lo, math.nextafter(hi, math.inf) if lo > 0.0 else hi))
    tables = tuple(np.array(col) for col in zip(*rows))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _fallback(v: float) -> str:
    """Per-value "%.17g", for the values the kernels leave out."""
    return "%.17g" % v


def _decimal(a):
    """(D, E, near-tie mask) of magnitudes a in [_LOW, _HIGH]: a rounds to D 10^(E-16)."""
    hi, lo, ceil = _powers()
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18  # floor(eb log10 2), |eb| < 1100
    e += a >= ceil[e + _SPAN + 1]
    i = _SPAN + 16 - e
    p, tail = _exact_product(a, hi[i])
    tail += a * lo[i]  # y - p
    whole = np.rint(tail)
    tie = np.abs(np.abs(tail - whole) - 0.5) < _TIE
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    roll = d == 10**17
    d[roll] = 10**16
    e += roll
    return d, e, tie


def format17(x):
    """Bytes of "%.17g" % v for each v in x, flattened: uint8 rows of WIDTH, NUL-padded."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _LOW) & (a <= _HIGH)
    a[~fast] = 1.0
    d, e, tie = _decimal(a)
    slow = np.flatnonzero(~(fast | zero) | (fast & tie))
    del a, fast, tie  # the temporaries end here: a chunk's peak memory is in this function
    d[zero] = 0
    e[zero] = 0

    # limbs from floor quotients, as np.divmod has no fast path for a scalar divisor
    quotients = [d // 10**k for k in (16, 12, 8, 4)] + [d]
    lead, limbs = quotients[0], [q - p * 10**4 for p, q in zip(quotients, quotients[1:])]
    del d, quotients
    # significant digits: up to the last nonzero one, at least one
    sig = np.ones(x.size, dtype=np.int8)
    for j, limb in enumerate(limbs):
        np.maximum(sig, _SIG4[limb] + np.int8(1 + 4 * j), out=sig)
    limbs = [_LIMB[limb] for limb in limbs]
    # the 17 digits as three words: lead in byte 0, limb j in bytes 4 j + 1 ... 4 j + 4
    u8, u24, u40 = np.uint64(8), np.uint64(24), np.uint64(40)
    words = [
        (lead + _ZERO).astype(np.uint64) | limbs[0] << u8 | limbs[1] << u40,
        limbs[1] >> u24 | limbs[2] << u8 | limbs[3] << u40,
        limbs[3] >> u24,
    ]
    del lead, limbs

    # %g: fixed notation for -4 <= E < 17, else d.ddde+XX; a fixed integer part keeps its zeros
    fixed = (e >= -4) & (e < 17)
    keep = np.maximum(sig, (e + 1) * fixed)
    point = e * fixed  # the decimal point follows digit `point` if a digit follows it
    point = np.where((point >= 0) & (sig > point + 1), point + 1, 0)
    words = [w & _FIRST[k][keep] for k, w in enumerate(words)]
    carry = 0
    for k, w in enumerate(words):
        moved = w << u8 | carry
        carry = w >> np.uint64(56)
        words[k] = w & _STAY[k][point] | moved & _MOVED[k][point] | _POINT[k][point]
    del sig, w, moved, carry  # each array goes after its last use: a chunk's peak memory is at the end

    # the prefix, the digits after it, and the exponent after them
    prefix = 5 * np.signbit(x) - e * (fixed & (e < 0))
    expo = _EXP[e + _SPAN]
    end = _PREFIX_LEN[prefix] + keep + (point > 0)
    del e, fixed, keep, point
    left = (8 * _PREFIX_LEN[prefix]).astype(np.uint64)
    carry = _PREFIX[prefix]  # word 0 takes the prefix below `left`
    del prefix
    out = np.empty((x.size, 3), dtype="<u8")
    for k in range(3):
        w, words[k] = words[k], None
        out[:, k] = w << left | carry | expo << _SHL[k][end] | expo >> _SHR[k][end]
        carry = w >> np.uint64(64) - left
    text = out.view(np.uint8)

    for k in slow.tolist():
        chars = _fallback(float(x[k])).encode("ascii")
        text[k] = 0
        text[k, : len(chars)] = np.frombuffer(chars, dtype=np.uint8)
    return text
