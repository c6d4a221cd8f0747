"""CSV text of float columns, exactly as Python's ``'%.17g'`` writes each cell.

``csv_rows(columns)`` yields the rows of a table as bytes, BLOCK_VALUES //
ncols rows (at least one) at a time: cells are ``'%.17g' % float(value)``,
joined by ``,``, rows end in ``\\n``.  The text is formatted by numpy on
whole blocks, not by one Python format call per value, and is byte-identical
to the per-value form.

Each value is first laid out in a slot of uint32 words, with NUL where a
shorter value leaves room, and one ``bytes.translate`` per block drops the
NULs.  A block sizes its slots to its own values: the prefix, integer and
suffix fields have as many words as the longest of its values needs, and a
digit pass runs only for the words that are kept:

    prefix   0-2 words  sign and '0.000'-style leader, or a whole 0, inf or nan
    integer  1-5 words  the digits before the point, right aligned
    point    1 word     '.' when digits follow it
    fraction 4 words    the digits after the point, left aligned
    suffix   1-2 words  the exponent, when a value of the block takes one,
                        then ',' or newline

The narrowest slot, seven words, still holds the longest '%.17g' cell and
its separator (25 bytes), so a value left to '%.17g' always fits its slot.

The 17 significant digits come from the exact product |x| * 10**(16 - k)
with k = floor(log10|x|), held as a double p plus its error: 10**s is a
double for 0 <= s <= 22, so for 1e-6 <= |x| < 1e17 the product is exact and
ties round half to even as CPython does.  Elsewhere 10**s is a double-double
good to about 2**-104, the product is known to about 1e-13, and a value whose
fraction lies within _TIE of one half is left to ``'%.17g'``.  So are values
outside 1e-280 <= |x| < 1e290, where the splitting products could overflow.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

# values per block: a block's temporaries scale with its values, so a wide
# table gets fewer rows per block (2048 rows of 8 columns, 390 of 42)
BLOCK_VALUES = 16384

_TIE = 2.0 ** -24  # far above the error of an inexact product, about 1e-13
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_LO, _HI = 1e-280, 1e290  # |x| range of the vectorised path
_K_LO, _K_HI = -282, 291  # decimal exponents of the tables, covering _LO.._HI +- 1
_P10 = 10 ** np.arange(18, dtype=np.int64)
_POINT = ord(".") << 24  # the last byte of a little-endian uint32 word
_N_EXP = _K_HI - _K_LO + 2  # suffix rows per separator: none, then one per k


@functools.cache
def _pow10() -> tuple[np.ndarray, ...]:
    """10**(16 - k) = H + L for k in [_K_LO, _K_HI], and H split into two
    26-bit halves.  H + L is exact for 0 <= 16 - k <= 22, where L = 0."""
    H, L = [], []
    for k in range(_K_LO, _K_HI + 1):
        s = 16 - k
        if s >= 0:
            n = 10 ** s
            hi = float(n)
            lo = float(n - int(hi))
        else:  # 2**m / 10**-s to 121 bits
            d = 10 ** -s
            m = d.bit_length() + 120
            q = (1 << m) // d
            hi = math.ldexp(float(q), -m)
            lo = math.ldexp(float(q - int(float(q))), -m)
        H.append(hi)
        L.append(lo)
    H, L = np.array(H), np.array(L)
    t = _SPLIT * H
    Hh = t - (t - H)
    return H, Hh, H - Hh, L


@functools.cache
def _digits() -> np.ndarray:
    """uint32 words of the four ASCII digits of 0..9999, three tables in a row:
    all digits, leading zeros as NUL, trailing zeros as NUL."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    full = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    zero = full == ord("0")
    lead = np.where(np.logical_and.accumulate(zero, axis=1), 0, full)
    trail = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, full)
    return np.concatenate([full, lead, trail]).astype(np.uint8).view("<u4").ravel()


@functools.cache
def _affixes() -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[np.ndarray, ...]]:
    """The two uint32 words of the prefixes, row 2 * lead + negative, and
    their lengths in bytes; the two words of the suffixes, row (k - _K_LO +
    1, or 0 without exponent) + _N_EXP * (last value of a row)."""
    def words(texts):
        text = "".join(w.ljust(8, "\0") for w in texts).encode()
        return tuple(np.frombuffer(text, "<u4").reshape(-1, 2).T.copy())

    leads = ["", "0.", "0.0", "0.00", "0.000", "0", "inf"]
    prefixes = [sign + w for w in leads for sign in ("", "-")] + ["nan", "nan"]
    exps = [""] + ["e%+03d" % k for k in range(_K_LO, _K_HI + 1)]
    return (words(prefixes), np.array([len(w) for w in prefixes]),
            words([e.ljust(7, "\0") + sep for sep in ",\n" for e in exps]))


def _scaled(a, ah, al, k):
    """|x| * 10**(16 - k) as a double p and the rest of the sum, for |x| = a
    split into halves ah + al: Dekker's exact product with H, plus a * L."""
    H, Hh, Hl, L = _pow10()
    i = k - _K_LO
    Hh, Hl = Hh[i], Hl[i]
    p = a * H[i]
    e = ah * Hh - p
    e += ah * Hl
    e += al * Hh
    e += al * Hl
    e += a * L[i]
    q = p + e
    e -= q - p
    return q, e


def _decimal(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each value as 17 digits D and decimal exponent k, |x| ~ D * 10**(k - 16),
    and two masks: special (0, inf, nan, D = 0) and slow (left to '%.17g')."""
    a = np.abs(x)
    fast = (a >= _LO) & (a < _HI)
    a = np.where(fast, a, 1.0)
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    k = np.floor(np.log10(a)).astype(np.int64)
    # log10 can be one off next to a power of ten: move k by one where
    # p + low falls outside [1e16, 1e17), comparing the pair exactly
    p, low = _scaled(a, ah, al, k)
    step = ((p < 1e16) | ((p == 1e16) & (low < 0))).astype(np.int64)
    step -= (p > 1e17) | ((p == 1e17) & (low >= 0))
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] -= step[moved]
        p[moved], low[moved] = _scaled(a[moved], ah[moved], al[moved], k[moved])
    # in range, p is an integer (p >= 1e16 > 2**53) and |low| <= ulp(p) / 2;
    # a D still out of range is left to '%.17g'
    floor = np.floor(low)
    frac = low - floor
    D = p.astype(np.int64) + floor.astype(np.int64)
    D += (frac > 0.5) | ((frac == 0.5) & (D & 1 == 1))
    slow = (D < 10 ** 16) | (D > 10 ** 17)
    slow |= ((k < -6) | (k > 16)) & (np.abs(frac - 0.5) < _TIE)  # inexact products
    special = ~fast
    slow = (slow & fast) | (special & np.isfinite(x) & (x != 0))
    special &= ~slow
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    D[special] = 0
    return D, k, special, slow


def _slots(x: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The (words, values) uint32 words of the values of a block in row-major
    order, ncols to a row, and the indices of the values left to '%.17g'.
    The prefix, integer and suffix fields are as wide as the block needs."""
    digits = _digits()
    prefixes, prefix_bytes, suffixes = _affixes()
    D, k, special, slow = _decimal(x)
    # '%.17g' writes k in [-4, 16] without exponent; the integer part holds
    # the first t + 1 digits, with t = k there and t = 0 otherwise
    plain = (k >= -4) & (k <= 16)
    below_one = plain & (k < 0)
    t = np.where(plain & (k > 0), k, 0)
    div = _P10[16 - t]
    whole = D // div
    frac_digits = (D - whole * div) * _P10[t]  # left aligned in 16 digits
    lead = np.where(below_one, -k, 0)  # rows of _affixes: '0.' + (-k - 1) zeros
    lead[special] = np.where(np.isnan(x[special]), 7, np.where(x[special] == 0, 5, 6))
    pre = 2 * lead + np.signbit(x)
    exp = np.where(plain | special, 0, k - _K_LO + 1)

    n_pre = -(-int(prefix_bytes.take(pre).max()) // 4)
    n_int = int(t.max()) // 4 + 1
    n_suf = 2 if exp.any() else 1  # exponent word, then the separator's
    point = n_pre + n_int
    out = np.empty((point + 5 + n_suf, x.size), np.uint32)
    for word, table in enumerate(prefixes[:n_pre]):
        out[word] = table.take(pre)
    # integer part: a chunk with only zeros before it drops its leading zeros
    q = whole
    for j in range(point - 1, n_pre, -1):
        rest = q // 10_000
        chunk = q - rest * 10_000
        chunk += 10_000 * (rest == 0)
        out[j] = digits.take(chunk)
        q = rest
    out[n_pre] = digits.take(q + 10_000)
    out[point] = np.where((frac_digits != 0) & ~below_one, _POINT, 0)
    # fraction, four words: a chunk with only zeros after it drops its
    # trailing zeros
    q = frac_digits
    zeros_after = np.ones(x.size, bool)
    for j in range(point + 4, point, -1):
        rest = q // 10_000
        chunk = q - rest * 10_000
        nonzero = chunk != 0
        chunk += 20_000 * zeros_after
        out[j] = digits.take(chunk)
        zeros_after &= ~nonzero
        q = rest
    exp[ncols - 1::ncols] += _N_EXP
    for word, table in enumerate(suffixes[2 - n_suf:], point + 5):
        out[word] = table.take(exp)
    return out, np.flatnonzero(slow)


def csv_rows(columns: list[np.ndarray]) -> Iterator[bytes]:
    """The rows of equal-length columns as CSV text, BLOCK_VALUES // ncols
    rows (at least one) per item; every cell is exactly '%.17g' % float(value)."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    ncols = len(columns)
    rows = max(1, BLOCK_VALUES // ncols)
    for start in range(0, len(columns[0]), rows):
        x = np.stack([col[start:start + rows] for col in columns], axis=1).ravel()
        out, slow = _slots(x, ncols)
        for i in slow.tolist():
            text = b"%.17g" % x[i] + (b"\n" if i % ncols == ncols - 1 else b",")
            out[:, i] = np.frombuffer(text.ljust(4 * len(out), b"\0"), np.uint32)
        yield out.T.tobytes().translate(None, b"\0")
