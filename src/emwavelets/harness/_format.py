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
  a table of base-10^4 limbs.  The layout of the text follows from the
  value's class alone: its notation (E, or d.ddde+XX), its significant
  digits and its sign, 748 classes.  One table row per class, built at
  import, gives the prefix's width and, per word, the masks of the digit
  bytes that stay and of those that move up one byte past the decimal
  point, the constant bytes (the sign, a "0.000" prefix and the point),
  and the two shifts that place the exponent word from a table.

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

# The layout classes.  A value's text is set by its notation c (c = E + 4 in the
# fixed notation, -4 <= E <= 16, else 21), its significant digits n = 1 ... 17 and
# its sign: row (17 c + n - 1) 2 + sign, that is _NOTATION[E + _SPAN] + 2 n + sign.
# The text is the prefix, s/8 bytes; the digits up to the decimal point, which
# stay; the point; the digits after it, moved up one byte; and the exponent.
_row = np.arange(22 * 17 * 2)
_e, _n, _neg = _row // 34 - 4, _row // 2 % 17 + 1, _row % 2  # E = 17: exponent notation
_whole = np.where(_e < 17, np.maximum(_e + 1, 0), 1)  # digits before the point; a fixed integer part keeps its zeros
_point = (_n > _whole) & (_whole > 0)
_prefix = _neg + np.where(_e < 0, 1 - _e, 0)  # the sign, then "0." and 0-3 zeros below 1
_dot = np.where(_point, _prefix + _whole, WIDTH)  # the point's byte, past the row for none
_end = _prefix + np.maximum(_n, _whole) + _point  # the exponent's byte
_S = (8 * _prefix).astype(np.uint64)
# _first[k, n]: word k of the mask of a row's first n bytes, n = 0 ... WIDTH + 1
_first = _words((np.arange(WIDTH) < np.arange(WIDTH + 2)[:, None]) * np.uint8(255)).T.copy()
_STAY = _first.take(np.minimum(_dot, _end), axis=1) & ~_first.take(_prefix, axis=1)
_MOVED = _first.take(_end, axis=1) & ~_first.take(_dot + 1, axis=1)
_CONST = _first.take(_dot + 1, axis=1) & ~_first.take(_dot, axis=1) & np.uint64(int.from_bytes(b"." * 8, "little"))
_lead = [np.uint64(int.from_bytes(p, "little")) for p in (b"-0.000", b"0.000")]
_CONST[0] |= np.where(_neg, *_lead) & _first[0].take(_prefix)  # the prefix is the first bytes of one of these
# The shifts that put the exponent at byte `end`, per word k: left if it starts in
# word k, right if it starts in word k - 1; shifting by 64 or more gives 0.
_at = 8 * _end - 64 * np.arange(3)[:, None]
_SHL = np.where(_at < 0, 64, _at).astype(np.uint64)
_SHR = np.where(_at < 0, -_at, 64).astype(np.uint64)
_NOTATION = np.full(2 * _SPAN + 1, 34 * 21 - 2)
_NOTATION[_SPAN - 4 : _SPAN + 17] = 34 * np.arange(21) - 2
del _row, _e, _n, _neg, _whole, _point, _prefix, _dot, _end, _first, _lead, _at


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
    e = a.view(np.int64) >> 52
    e -= 1023
    e *= 78913
    e >>= 18  # floor(eb log10 2), |eb| < 1100
    i = e + (_SPAN + 1)
    e += a >= ceil.take(i)
    np.subtract(_SPAN + 16, e, out=i)
    p, tail = _exact_product(a, hi.take(i))
    scaled = lo.take(i)
    del i
    scaled *= a
    tail += scaled  # y - p
    whole = np.rint(tail, out=scaled)
    del scaled
    tail -= whole
    np.abs(tail, out=tail)
    tail -= 0.5
    np.abs(tail, out=tail)
    tie = tail < _TIE
    del tail
    d = p.astype(np.int64)
    del p
    d += whole.astype(np.int64)
    del whole
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

    # The 17 digits as three words: the lead in byte 0, limb j in bytes 4 j + 1 ... 4 j + 4.
    # Limb j is the next floor quotient less 10^4 times this one, as np.divmod has no fast
    # path for a scalar divisor.  sig counts the digits up to the last nonzero one, at least one.
    quotient = d // 10**16
    words = [(quotient + _ZERO).astype(np.uint64), None, None]
    sig = np.ones(x.size, dtype=np.int8)
    for j, k in enumerate((12, 8, 4, 0)):
        following = d // 10**k if k else d
        quotient *= 10**4
        np.subtract(following, quotient, out=quotient)  # limb j
        np.maximum(sig, _SIG4.take(quotient) + np.int8(1 + 4 * j), out=sig)
        limb = _LIMB.take(quotient)
        if j % 2:
            words[j // 2 + 1] = limb >> np.uint64(24)
            limb <<= np.uint64(40)
        else:
            limb <<= np.uint64(8)
        words[j // 2] |= limb
        quotient = following
    del d, quotient, following, limb

    # The class row, and the text by it.  Each digit word shifted past the prefix,
    # u_k = w_k << s | w_(k-1) >> 64 - s, keeps its STAY bytes and takes its MOVED ones
    # from u_k << 8 | u_(k-1) >> 56; the prefix, the point and the exponent go in.
    e += _SPAN
    row = _NOTATION.take(e)
    row += 2 * sig
    row += np.signbit(x)
    expo = _EXP.take(e)
    del e, sig
    s = _S.take(row)
    r = np.uint64(64) - s
    carry = top = np.uint64(0)  # w_(k-1) >> 64 - s and u_(k-1) >> 56: none below word 0
    out = np.empty((x.size, 3), dtype="<u8")
    for k in range(3):
        u, words[k] = words[k], None
        below = u >> r
        u <<= s
        u |= carry
        moved = u << np.uint64(8)
        moved |= top
        carry, top = below, u >> np.uint64(56)
        moved &= _MOVED[k].take(row)
        u &= _STAY[k].take(row)
        u |= moved
        u |= _CONST[k].take(row)
        np.left_shift(expo, _SHL[k].take(row), out=moved)
        u |= moved
        np.right_shift(expo, _SHR[k].take(row), out=moved)
        np.bitwise_or(u, moved, out=out[:, k])
    del u, below, moved, carry, top, row, s, r, expo
    text = out.view(np.uint8)

    for k in slow.tolist():
        chars = _fallback(float(x[k])).encode("ascii")
        text[k] = 0
        text[k, : len(chars)] = np.frombuffer(chars, dtype=np.uint8)
    return text
