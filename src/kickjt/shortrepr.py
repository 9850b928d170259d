"""The repr of every cell of a float64 array, computed on whole arrays.

``reprs(values)`` returns the bytes of ``repr(v)`` for each cell v, as the
rows of an (n, 24) uint8 array padded with NULs (no float64 repr is longer),
at a fraction of repr's cost.  The shortest round-trip digits are found
exactly with integer arithmetic, in the spirit of Ryu (Adams, PLDI 2018):

- the decimal exponent e fixes P = |x| 10^(16 - e) in [1e16, 1e17); P is
  formed exactly as a double-double (Dekker's product; 10^k is exact for
  k <= 22);
- the reals that read back as x form the interval of half-width
  h = ulp(x)/2 10^(16 - e) around P; the shortest digits are those of the
  largest power of ten 10^j that has a multiple inside it, and the text is
  that multiple nearest to P, with 17 - j significant digits;
- the digits are laid out as repr does for -4 <= e <= 15: fixed notation,
  with ".0" when no fractional digit is left.

A cell it cannot prove goes through repr itself: zero, non-finite values,
|x| < 1e-4 or >= 1e16 (repr writes an exponent there), powers of two (their
interval is not symmetric), a nearest multiple that is not unique (a tie),
an interval edge within 1e-9 of an integer (the edge's own rounding would
decide), and digits that round up to 10^17.
"""

from __future__ import annotations

import numpy as np

# distance from an interval edge under which a cell is left to repr
EDGE = 1e-9

_POW10 = 10.0 ** np.arange(23)  # exact doubles


def _split(a):
    """Veltkamp split: hi + lo == a, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(ax, e):
    """|x| 10^(16 - e) as hi + lo, exactly (Dekker's product, no FMA)."""
    k = 16 - e
    hi = ax * _POW10[k]
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


_U8 = np.uint64(8)
_U24 = np.uint64(24)
_U40 = np.uint64(40)
_U56 = np.uint64(56)
_U64 = np.uint64(64)
# the ASCII digits of 0..9999, zero-padded to 4, first digit in the lowest byte
_QUAD = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - k) % 10 + 48) << np.uint64(8 * k)
            for k in range(4))
# a text of up to 24 bytes is three little-endian words; word w of _LOW[w, s]
# keeps its first s bytes, and _DOT[w, s] is a '.' at byte s (none for s > 16)
_LOW = np.array([[(1 << 8 * min(8, max(0, s - 8 * w))) - 1 for s in range(25)]
                 for w in range(3)], dtype=np.uint64)
_DOT = np.zeros((3, 25), dtype=np.uint64)
for _s in range(17):
    _DOT[_s // 8, _s] = ord(".") << 8 * (_s % 8)
# by 20 * negative + e + 4: what goes before the digits, and its bit length
_PREFIX = np.zeros(40, dtype=np.uint64)
_PREFIX_BITS = np.zeros(40, dtype=np.uint64)
for _neg in (0, 1):
    for _e in range(-4, 16):
        _text = "-" * _neg + ("0." + "0" * (-_e - 1) if _e < 0 else "")
        _PREFIX[20 * _neg + _e + 4] = int.from_bytes(_text.encode(), "little")
        _PREFIX_BITS[20 * _neg + _e + 4] = 8 * len(_text)


def _shortest(x):
    """Digits, exponent and digit count of each cell of x, all finite with
    1e-4 <= |x| < 1e16: (D, e, p, proven), where D in [1e16, 1e17) holds the
    p significant digits followed by zeros, and proven marks the cells whose
    digits are certain."""
    ax = np.abs(x)
    mant, exp2 = np.frexp(ax)
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, e)
    # log10 may round across a power of ten: move P back into [1e16, 1e17)
    shift = (((hi > 1e17) | (hi == 1e17) & (lo >= 0)).view(np.int8)
             - ((hi < 1e16) | (hi == 1e16) & (lo < 0)).view(np.int8))
    if shift.any():
        e += shift
        hi, lo = _scaled(ax, e)
    # P = N + f exactly: hi >= 2^53 is an integer and |lo| <= 8
    floor_lo = np.floor(lo)
    N = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = lo - floor_lo
    # half an ulp of x, scaled like P: a power of two times 10^k, exact
    h = np.ldexp(_POW10[16 - e], exp2 - 54)
    # the open interval (P - h, P + h): U = floor(P + h) is its largest
    # integer, and a multiple of 10^j lies in it iff U mod 10^j < width
    upper = f + h
    up_int = np.floor(upper)
    U = N + up_int.astype(np.int64)
    width = up_int + h - f
    upper -= up_int
    proven = ((mant != 0.5) & (upper > EDGE) & (upper < 1 - EDGE)
              & (np.abs(width - np.rint(width)) > EDGE))
    # j = 0: the nearest integer; j = 1: the nearest multiple of 10
    tens = (U % 10) < width
    r = N % 10
    up = (r > 5) | (r == 5) & (f > 0)
    D = np.where(tens, N - r + 10 * up, N + (f > 0.5))
    proven &= np.where(tens, (r != 5) | (f != 0), f != 0.5)
    j = tens.view(np.int8).astype(np.int64)
    # j >= 2: width < 100, so U mod 10^j < width iff the last two digits of
    # U are below width and the j - 2 digits above them are zero; then
    # U - (U mod 100) is the only multiple in the interval
    V = U // 100
    c = U - 100 * V
    hundreds = np.flatnonzero(c < width)
    if hundreds.size:
        v = V[hundreds]
        zeros = np.full(hundreds.size, 2)
        for t in (8, 4, 2, 1):
            q = v // 10 ** t
            whole = q * 10 ** t == v
            v = np.where(whole, q, v)
            zeros += t * whole
        j[hundreds] = zeros
        D[hundreds] = U[hundreds] - c[hundreds]
    proven &= D < 10 ** 17
    return D, e, 17 - j, proven


def _layout(x, D, e, p):
    """The text of each cell as the rows of an (n, 24) uint8 array padded
    with NULs, from _shortest's digits."""
    # the 17 ASCII digits of D as bytes 0..16 of the words w0, w1, w2
    a = D // 10 ** 16
    b = D - a * 10 ** 16
    b1 = b // 10 ** 8
    b2 = b - b1 * 10 ** 8
    g1 = b1 // 10000
    g3 = b2 // 10000
    q1, q2, q3, q4 = _QUAD[g1], _QUAD[b1 - g1 * 10000], _QUAD[g3], _QUAD[b2 - g3 * 10000]
    w0 = (a + 48).astype(np.uint64) | (q1 << _U8) | (q2 << _U40)
    w1 = (q2 >> _U24) | (q3 << _U8) | (q4 << _U40)
    w2 = q4 >> _U24
    # for e >= 0, a '.' goes in after digit e: the bytes from s = e + 1 on
    # move up by one
    positive = e >= 0
    s = np.where(positive, e + 1, 24)
    m0, m1, m2 = _LOW[0][s], _LOW[1][s], _LOW[2][s]
    r0, r1 = w0 & ~m0, w1 & ~m1
    t0 = (w0 & m0) | (r0 << _U8) | _DOT[0][s]
    t1 = (w1 & m1) | (r1 << _U8) | (r0 >> _U56) | _DOT[1][s]
    t2 = (w2 & m2) | ((w2 & ~m2) << _U8) | (r1 >> _U56) | _DOT[2][s]
    # then the sign and, for e < 0, "0." and -e - 1 zeros go in front (a
    # numpy shift by 64 gives 0)
    negative = x < 0
    key = 20 * negative + e + 4
    bits = _PREFIX_BITS[key]
    back = _U64 - bits
    t2 = (t2 << bits) | (t1 >> back)
    t1 = (t1 << bits) | (t0 >> back)
    t0 = (t0 << bits) | _PREFIX[key]
    # keep the p digits, and at least one digit after the '.'
    length = np.where(positive, e + 2 + np.maximum(p - e - 1, 1), 1 - e + p) + negative
    words = np.empty((x.size, 3), dtype=np.uint64)
    words[:, 0] = t0 & _LOW[0][length]
    words[:, 1] = t1 & _LOW[1][length]
    words[:, 2] = t2 & _LOW[2][length]
    return words.view(np.uint8)


def reprs(values: np.ndarray) -> np.ndarray:
    """repr(v).encode() for each cell v of a 1-D float64 array, as the rows
    of an (n, 24) uint8 array padded with NULs."""
    ax = np.abs(values)
    inside = (ax >= 1e-4) & (ax < 1e16)
    # 1.5 stands in for the cells outside the kernel's range
    y = np.where(inside, values, 1.5)
    D, e, p, proven = _shortest(y)
    text = _layout(y, D, e, p)
    left = np.flatnonzero(~(inside & proven))
    text[left] = np.array([repr(v).encode() for v in values[left].tolist()],
                          dtype="S24").view(np.uint8).reshape(-1, 24)
    return text
