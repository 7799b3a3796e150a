"""Float tables as CSV text, each value exactly as ``"%.17g" % value``.

csv17(table) renders a 2-D float array with numpy, a block of rows at a
time, and is byte-identical to joining ``"%.17g"`` strings row by row.

Each finite nonzero x is scaled to y = |x| 10^(16 - k), with
k = floor(log10 |x|) moved by one where y falls outside [1e16, 1e17).
The product is a double-double: Dekker's exact product of x and the
double nearest 10^q, plus x times the remainder of 10^q, so y is known
to about 1e-14 (near the ends of the range both factors are first
scaled by a power of two, which is exact, so subnormal and huge values
take the same path).  Its 17 digits are round(y), and printing the
exact binary value to 17 digits (Steele & White) needs the rounding
direction only; so every value whose fraction of y lies within 1e-6 of
1/2 (exact ties among them) is printed by ``"%.17g"`` itself, as are
inf and nan.  That band is 1e8 times the error of y, so a loose error
estimate cannot print a wrong digit.  Zeros print as 0 and -0.

A cell is six little-endian 64-bit words, a zero byte marking an absent
character: sign, the "0.000" prefix of fixed notation below 1, the first
digit and the place for a point after it; four digits to each of the
next four words, each followed by the place for a point; the exponent
suffix and the separator.  Dropping the zero bytes of a block gives its
text.  The %g rules choose the layout: fixed notation for -4 <= k < 17,
else d.ddde+XX, with trailing zeros and a bare point removed.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv17"]

_Q_MIN, _Q_MAX = -293, 341      # powers 10^q of the scaling table
_K_OFF = 330                    # layout tables hold k in [-330, 330]
_CELLS = 8192                   # cells per block: temporaries of 64 KiB
_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitting constant
_U64 = np.dtype("<u8")
_COMMA, _NEWLINE = 44 << 40, 10 << 40   # separator, byte 5 of word 5


def _word(text: str, at: int = 0) -> int:
    return int.from_bytes(text.encode(), "little") << (8 * at)


@functools.cache
def _pow10():
    """For q in [_Q_MIN, _Q_MAX]: a power of two 2^b (b = 192 above
    q = 280, -128 below q = -250, else 0), and 10^q 2^-b = hi + lo, hi the
    nearest double (split into Dekker halves hh + hl) and lo the rounded
    remainder, from exact integer arithmetic.  x 2^b and 10^q 2^-b then
    stay well inside the normal range for every x that needs that q."""
    scale, hi, lo = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        b = 192 if q > 280 else -128 if q < -250 else 0
        num = 10 ** max(q, 0) * 2 ** max(-b, 0)
        den = 10 ** max(-q, 0) * 2 ** max(b, 0)
        h = num / den
        n, d = h.as_integer_ratio()
        scale.append(2.0 ** b)
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    s = hi * _SPLIT
    hh = s - (s - hi)
    return np.array(scale), hi, hh, hi - hh, np.array(lo)


@functools.cache
def _layout():
    """Tables by exponent (row k + _K_OFF): word 0 prefix bytes, word 5
    (suffix and comma), the digit the point follows (99 for none) and
    how many leading digits print even when zero (the integer part of
    fixed notation); by four-digit chunk: its digits at even bytes and
    its count of trailing zeros; and the masks keeping the first m of a
    word's four digits."""
    prefix, suffix, point, keep_min = [], [], [], []
    for k in range(-_K_OFF, _K_OFF + 1):
        fixed = -4 <= k < 17
        prefix.append(_word("0." + "0" * (-k - 1), 1)
                      if fixed and k < 0 else 0)
        suffix.append(_COMMA | (0 if fixed else _word("e%+03d" % k)))
        point.append((k if k >= 0 else 99) if fixed else 0)
        keep_min.append(k + 1 if fixed and k >= 0 else 1)
    chunk = np.arange(10000)
    digits = np.zeros(10000, _U64)
    for i, p in enumerate((1000, 100, 10, 1)):
        digits |= (chunk // p % 10 + 48).astype(_U64) << np.uint64(16 * i)
    zeros = sum((chunk % p == 0).astype(np.int64)
                for p in (10, 100, 1000, 10000))
    keep = np.array([(1 << (16 * m)) - 1 for m in range(4)] + [2**64 - 1],
                    _U64)
    return (np.array(prefix, _U64), np.array(suffix, _U64),
            np.array(point), np.array(keep_min), digits, zeros, keep)


def _scaled(x, k):
    """y = x 10^(16 - k) as t + f, t an int64 and 0 <= f < 1."""
    row = 16 - _Q_MIN - k
    scale, hi, hh, hl, lo = (a[row] for a in _pow10())
    x = x * scale
    p = x * hi
    s = x * _SPLIT
    xh = s - (s - x)
    xl = x - xh
    r = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo
    f = np.floor(r)
    return p.astype(np.int64) + f.astype(np.int64), r - f


def _block(v) -> str:
    nrows, ncols = v.shape
    v = v.ravel()
    prefix, suffix, point, keep_min, digits, zeros, keep = _layout()
    regular = np.isfinite(v) & (v != 0)
    x = np.where(regular, np.abs(v), 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    t, f = _scaled(x, k)
    # log10 can put k one off next to a power of ten; cells still out of
    # range after one move go to "%.17g"
    step = (t >= 10**17).astype(np.int64) - (t < 10**16)
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        t[moved], f[moved] = _scaled(x[moved], k[moved])
    ok = (regular & (t >= 10**16) & (t < 10**17)
          & (np.abs(f - 0.5) >= 1e-6))
    # zeros keep d = 0, k = 0 and print as 0 with no other case; a d
    # rounded up to 10^17 is 10^16 of the next decade
    d = np.where(ok, t + (f > 0.5), 0)
    carry = d == 10**17
    d[carry] = 10**16
    kk = np.where(ok, k + carry, 0) + _K_OFF
    # d = c0 c1 c2 c3 c4: one digit, then four-digit chunks
    rest, c4 = np.divmod(d, 10**4)
    rest, c3 = np.divmod(rest, 10**4)
    rest, c2 = np.divmod(rest, 10**4)
    c0, c1 = np.divmod(rest, 10**4)
    trailing = zeros[c4]
    all_zero = c4 == 0
    for c in (c3, c2, c1):
        trailing += all_zero * zeros[c]
        all_zero &= c == 0
    ndig = np.maximum(17 - trailing, keep_min[kk])

    cell = np.empty((v.size, 6), _U64)
    cell[:, 0] = (prefix[kk] | np.signbit(v).astype(_U64) * np.uint64(45)
                  | (c0 + 48).astype(_U64) << np.uint64(48))
    for i, c in enumerate((c1, c2, c3, c4)):
        cell[:, 1 + i] = digits[c] & keep[np.clip(ndig - 1 - 4 * i, 0, 4)]
    cell[:, 5] = suffix[kk]
    # the place after digit j is byte 7 + 2j of the cell
    da = point[kk]
    dot = np.flatnonzero(ndig > da + 1)
    if dot.size:
        byte = 7 + 2 * da[dot]
        cell.ravel()[6 * dot + (byte >> 3)] |= (
            np.uint64(46) << (8 * (byte & 7)).astype(_U64))
    for i in np.flatnonzero(~ok & (v != 0)):
        text = ("%.17g" % v[i]).encode().ljust(40, b"\0")
        cell[i, :5] = np.frombuffer(text, _U64)
    cell.reshape(nrows, ncols, 6)[:, -1, 5] ^= np.uint64(_COMMA ^ _NEWLINE)
    raw = cell.view(np.uint8).ravel()
    return np.compress(raw != 0, raw).tobytes().decode("ascii")


def csv17(table) -> str:
    """The rows of a 2-D float array (one column or more) as CSV lines,
    each ending in a newline, with every value exactly as
    ``"%.17g" % value`` prints it."""
    table = np.asarray(table, dtype=np.float64)
    rows = max(1, _CELLS // table.shape[1])
    return "".join(_block(table[i:i + rows])
                   for i in range(0, table.shape[0], rows))
