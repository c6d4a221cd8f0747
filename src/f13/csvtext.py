"""CSV text of float columns, exactly as Python's ``'%.17g'`` writes each cell.

``csv_rows(columns)`` yields the rows of a table as bytes, BLOCK_VALUES //
ncols rows (at least one) at a time: cells are ``'%.17g' % float(value)``,
joined by ``,``, rows end in ``\\n``.  The text is formatted by numpy on
whole blocks, not by one Python format call per value, and is byte-identical
to the per-value form.

Each value is first laid out in a slot of uint32 words, with NUL where a
shorter value leaves room, and one ``bytes.translate`` per block drops the
NULs.  A cell starts with the separator that ends the cell before it (none
for the first cell of a block, whose last row gets its newline after the
translate).  A block sizes its slots to its own values, and a digit pass
runs only for the words that are kept.  A block with no value in
10 <= |x| < 1e17, the range '%.17g' writes with more than one digit before
the point, has the short layout:

    head     1-2 words  separator, sign, '0.000'-style leader, the first
                        digit and '.' when digits follow it; or a whole 0,
                        inf or nan
    fraction 4 words    the other 16 digits, left aligned
    exponent 0-2 words  the exponent, when a value of the block takes one

Any other block has the long layout, whose head stops before the first
digit:

    head     1-2 words  separator, sign and leader, or a whole 0, inf or nan
    integer  1-5 words  the digits before the point, right aligned
    point    1 word     '.' when digits follow it
    fraction 4 words    the digits after the point, left aligned
    exponent 0-2 words

A slot has seven words or more, so it holds the longest '%.17g' cell and
its separator (25 bytes), and a value left to '%.17g' always fits its slot.

The 17 significant digits come from the exact product |x| * 10**(16 - k)
with k = floor(log10|x|), held as a double p plus its error.  When every
nonzero value of a block lies in 1e-6 < |x| < 1e16, 10**(16 - k) is a
double, the product is exact and the block takes the exact-range path: p
is an even integer of 1e16 or more, so D = p + rint(low) rounds half to
even as CPython does, and no value there is inexact or carried to the next
power of ten.  Its zeros are the only special values, written by index.
Other blocks take the general path.  There 10**s is a double-double good
to about 2**-104 outside 0 <= s <= 22, the product is known to about
1e-13, and a value whose fraction lies within _TIE of one half is left to
``'%.17g'``.  So are values outside 1e-280 <= |x| < 1e290, where the
splitting products could overflow.
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
_EXACT_LO, _EXACT_HI = 1e-6, 1e16  # open |x| range of the exact-range path
_EXACT_LO_BITS = np.float64(_EXACT_LO).view(np.uint64)
_K_LO, _K_HI = -282, 291  # decimal exponents of the tables, covering _LO.._HI +- 1
_P10 = 10 ** np.arange(18, dtype=np.int64)
_POINT = ord(".") << 24  # the last byte of a little-endian uint32 word
_NONE = np.zeros(0, np.int64)

# head rows: ((separator * 2 + negative) * 8 + lead) * 21 + first, with the
# separators '', ',' and newline, the leads below and first = digit + 10 *
# (a point follows it), or 20 for a head without digit
_LEADS = ("", "0.", "0.0", "0.00", "0.000", "0", "inf", "nan")
_ZERO, _INF, _NAN = 5, 6, 7
_NO_DIGIT = 20
_LEAD_ROW = 21
_NEG_ROW = 8 * _LEAD_ROW
_SEP_ROW = 2 * _NEG_ROW


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


def _words(texts: list[str]) -> np.ndarray:
    """Texts of at most 8 bytes as two rows of uint32 words, NUL padded."""
    text = "".join(w.ljust(8, "\0") for w in texts).encode()
    return np.frombuffer(text, "<u4").reshape(-1, 2).T.copy()


@functools.cache
def _affixes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two words of the heads, rows as above; of the exponents, row
    k - _K_LO + 1, or 0 without exponent; and per k - _K_LO the head row of
    its leader and its exponent row."""
    heads = []
    for sep in ("", ",", "\n"):
        for sign in ("", "-"):
            for lead in _LEADS:
                for first in range(_NO_DIGIT + 1):
                    if lead in _LEADS[_ZERO:]:
                        body = ("" if lead == "nan" else sign) + lead
                    elif first == _NO_DIGIT:
                        body = sign + lead
                    else:
                        point = "." if first >= 10 and not lead else ""
                        body = sign + lead + str(first % 10) + point
                    heads.append(sep + body)
    k = np.arange(_K_LO, _K_HI + 1)
    plain = (k >= -4) & (k <= 16)  # '%.17g' writes these without exponent
    lead_rows = _LEAD_ROW * np.where((k < 0) & plain, -k, 0)
    exp_rows = np.where(plain, 0, k - _K_LO + 1)
    exps = _words([""] + ["e%+03d" % e for e in k])
    return _words(heads), exps, lead_rows, exp_rows


def _scaled(a, ah, al, k, exact=False):
    """|x| * 10**(16 - k) as a double p and the rest of the sum, for |x| = a
    split into halves ah + al: Dekker's exact product with H, plus a * L
    unless the power of ten is exact."""
    H, Hh, Hl, L = _pow10()
    i = k - _K_LO
    Hh, Hl = Hh.take(i), Hl.take(i)
    p = a * H.take(i)
    e = ah * Hh
    e -= p
    e += ah * Hl
    e += al * Hh
    e += al * Hl
    if not exact:
        e += a * L.take(i)
    q = p + e
    e -= q - p
    return q, e


def _decimal(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each value as 17 digits D and decimal exponent k, |x| ~ D * 10**(k - 16),
    and the indices of the special values (0, inf, nan, D = 0) and of the
    values left to '%.17g'."""
    a = np.abs(x)
    lo = a.min()
    exact = lo > _EXACT_LO and a.max() < _EXACT_HI  # false with a nan
    zeros = _NONE
    # zeros keep a block on the exact-range path, which writes them by index,
    # as the general path writes its special values.  A magnitude's bits
    # order as it does, and a zero's bits less one wrap to the largest
    # uint64, so the test below reads every nonzero |x| > _EXACT_LO in one
    # pass and one minimum
    if (lo == 0.0 and a.max() < _EXACT_HI
            and (a.view(np.uint64) - np.uint64(1)).min() >= _EXACT_LO_BITS):
        exact = True
        zeros = np.flatnonzero(a == 0.0)
        a[zeros] = 2.0  # the general path's placeholder
    if not exact:
        fast = (a >= _LO) & (a < _HI)
        a = np.where(fast, a, 2.0)  # k = 0 and p = 2e16: no step to check
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    k = np.floor(np.log10(a)).astype(np.int64)
    # log10 can be one off next to a power of ten: move k by one where
    # p + low falls outside [1e16, 1e17), comparing the pair exactly
    p, low = _scaled(a, ah, al, k, exact)
    moved = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if moved.size:
        pm, lm = p[moved], low[moved]
        step = ((pm < 1e16) | ((pm == 1e16) & (lm < 0))).astype(np.int64)
        step -= (pm > 1e17) | ((pm == 1e17) & (lm >= 0))
        k[moved] -= step
        p[moved], low[moved] = _scaled(a[moved], ah[moved], al[moved], k[moved], exact)
    # in range, p is an integer (p >= 1e16 > 2**53) and |low| <= ulp(p) / 2
    if exact:  # low is exact and p even: rint rounds p + low half to even
        D = p.astype(np.int64)
        D += np.rint(low).astype(np.int64)
        D[zeros] = 0
        return D, k, zeros, _NONE
    floor = np.floor(low)
    frac = low - floor
    D = p.astype(np.int64) + floor.astype(np.int64)
    D += (frac > 0.5) | ((frac == 0.5) & (D & 1 == 1))
    # a D still out of range is left to '%.17g'
    slow = (D < 10 ** 16) | (D > 10 ** 17)
    slow |= ((k < -6) | (k > 16)) & (np.abs(frac - 0.5) < _TIE)  # inexact products
    special = ~fast
    slow = (slow & fast) | (special & np.isfinite(x) & (x != 0))
    special &= ~slow
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    D[special] = 0
    return D, k, np.flatnonzero(special), np.flatnonzero(slow)


def _slots(x: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The (words, values) uint32 words of the values of a block in row-major
    order, ncols to a row, and the indices of the values left to '%.17g'.
    The fields are as wide as the block needs."""
    digits = _digits()
    heads, exps, lead_rows, exp_rows = _affixes()
    D, k, special, slow = _decimal(x)
    k_min, k_max = int(k.min()), int(k.max())
    kk = k - _K_LO
    lead = lead_rows.take(kk)
    # head rows: a newline before each row but the first, ',' between cells
    h = np.full(x.size, _SEP_ROW, np.int64)
    h[::ncols] = 2 * _SEP_ROW
    h[0] = 0
    h += np.signbit(x) * _NEG_ROW
    h += lead
    # '%.17g' writes k in [-4, 16] without exponent; the long layout's integer
    # words hold the first t + 1 digits, with t = k there and t = 0 otherwise
    long = k_max > 0
    if long:
        t = np.maximum(k, 0)
        if k_max > 16:
            t *= t <= 16
        t_max = int(t.max())
        long = t_max > 0
    if long:
        div = _P10.take(16 - t)
        whole = D // div
        frac = (D - whole * div) * _P10.take(t)  # left aligned in 16 digits
        h += _NO_DIGIT
    else:
        whole = D // 10 ** 16
        frac = D - whole * 10 ** 16
        h += whole
        h += 10 * (frac != 0)
    if special.size:  # k = 0 and D = 0 there, and these rows take no digit
        xs = x[special]
        h[special] += _LEAD_ROW * np.where(np.isnan(xs), _NAN, np.where(xs == 0, _ZERO, _INF))

    head1 = heads[1].take(h)
    n_head = 1 + bool(head1.any())
    n_int = t_max // 4 + 1 if long else 0
    point = n_head + n_int  # the point word of the long layout
    fraction = point + long
    n_exp = 0
    if k_min < -4 or k_max > 16:
        n_exp = 2 if k_min <= -100 or k_max >= 100 else 1
    size = fraction + 4 + n_exp
    out = np.empty((max(size, 7), x.size), np.uint32)
    out[size:] = 0
    heads[0].take(h, out=out[0], mode="clip")
    if n_head == 2:
        out[1] = head1
    if long:
        # integer part: a chunk with only zeros before it drops its leading zeros
        q = whole
        for j in range(point - 1, n_head, -1):
            rest = q // 10_000
            chunk = q - rest * 10_000
            chunk += 10_000 * (rest == 0)
            digits.take(chunk, out=out[j], mode="clip")
            q = rest
        digits.take(q + 10_000, out=out[n_head], mode="clip")
        out[point] = _POINT * ((frac != 0) & (lead == 0))
    # fraction from one 10**8 split: a chunk with only zeros after it drops
    # its trailing zeros (the table at 20_000)
    hi = frac // 100_000_000
    lo = frac - hi * 100_000_000
    c0 = hi // 10_000
    c1 = hi - c0 * 10_000
    c2 = lo // 10_000
    c3 = lo - c2 * 10_000
    c0 += 20_000 * ((c1 | lo) == 0)
    c1 += 20_000 * (lo == 0)
    c2 += 20_000 * (c3 == 0)
    c3 += 20_000
    for word, chunk in enumerate((c0, c1, c2, c3), fraction):
        digits.take(chunk, out=out[word], mode="clip")
    if n_exp:
        rows = exp_rows.take(kk)
        for word in range(n_exp):
            exps[word].take(rows, out=out[fraction + 4 + word], mode="clip")
    return out, slow


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
            sep = b"" if i == 0 else b"\n" if i % ncols == 0 else b","
            text = sep + b"%.17g" % x[i]
            out[:, i] = np.frombuffer(text.ljust(4 * len(out), b"\0"), np.uint32)
        yield out.T.tobytes().translate(None, b"\0") + b"\n"
