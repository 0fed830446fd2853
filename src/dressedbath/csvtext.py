"""``"%.17g" % x`` for every value of a float64 array, byte for byte.

A nonzero finite x = m 2^e has the 17 digits D = round(m 2^e 10^(16-E)),
E = floor(log10 |x|), from a double-double product with a power of ten rounded
from exact integers (Loitsch, PLDI 2010), within 1e-14 of a unit of D.  Values
within 1e-9 of a rounding tie, and non-finite ones, take CPython's ``_fmt``."""

from __future__ import annotations

import functools

import numpy as np

# record slots: sign, "0.000", 17 digits each but the last followed by a "."
# slot, "e+308"; the first digit and the "e" sit at _DIGIT0 and _EXP
SLOTS, _DIGIT0, _EXP = 44, 6, 39
# values per pass: a full pass peaks at 799 KiB traced, 176 KiB of it the
# output (392 KiB at 2,000 values; x86-64, numpy 2.4.6)
_BLOCK = 4096
_K0 = 293               # powers 10^k for k = -_K0 .. 341: E = -325 .. 309
_ROW = np.arange(17, dtype=np.uint8)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]   # for E = -1 .. -4
_CUTS = np.array([0, 0, -1, -2, -3])[:, None]


def _fmt(x) -> str:
    return f"{x:.17g}"


@functools.cache
def _powers():
    """hi + lo = round(10^k 2^s), an integer of about 110 bits, and s."""
    rows = []
    for k in range(-_K0, 342):
        s = 110 - k * 3322 // 1000
        num, den = 10 ** max(k, 0) << max(s, 0), 10 ** max(-k, 0) << max(-s, 0)
        n = (2 * num + den) // (2 * den)
        rows.append((float(n), float(n - int(float(n))), s))
    hi, lo, s = zip(*rows)
    return np.array(hi), np.array(lo), np.array(s, dtype=np.int32)


def _digits(m, e, E):
    """D = round(R), R = m 2^e 10^(16-E); where R is within 1e-9 of a tie or
    of 10^16 - 0.05; +1 where E is too small (D = 10^17), -1 where it is too
    large (R < 10^16 - 0.05, so that at E - 1 it stays below 10^17 - 0.5)."""
    hi, lo, shift = _powers()
    k = (16 - E) + _K0
    scale = e - shift[k]
    fh, fl = np.ldexp(hi[k], scale), np.ldexp(lo[k], scale)
    p = m * fh                         # m fh = p + q exactly; frac = q + m fl
    t, u = 134217729.0 * m, 134217729.0 * fh   # 2^27 + 1: Dekker's split
    mh, hh = t - (t - m), u - (u - fh)
    ml, hl = m - mh, fh - hh
    frac = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * fl
    up = np.floor(frac + 0.5)
    D = p.astype(np.int64) + up.astype(np.int64)
    rest = np.where(D == 10 ** 16, (p - 1e16) + frac, 0.0)   # R - 10^16
    tie = (np.abs(frac - up + 0.5) < 1e-9) | (np.abs(rest + 0.05) < 1e-9)
    return D, tie, (D >= 10 ** 17).astype(np.int32) - ((D < 10 ** 16) | (rest < -0.05))


def _fill(x, out):
    finite, zero = np.isfinite(x), x == 0
    a = np.where(finite & ~zero, np.abs(x), 1.0)   # before any log10 or cast
    m, e = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int32)
    D, tie, off = _digits(m, e, E)
    miss = np.flatnonzero(off)
    if miss.size:                            # log10 was one decade off
        E[miss] += off[miss]
        D[miss], near, _ = _digits(m[miss], e[miss], E[miss])
        tie[miss] |= near
    D[zero], E[zero] = 0, 0
    hi = D // 10 ** 8
    halves = (hi.astype(np.uint32), (D - hi * 10 ** 8).astype(np.uint32))
    d = np.empty((17, x.size), np.uint32)
    for i in range(17):                      # d[i]: its half's digits up to i
        np.floor_divide(halves[i > 8], np.uint32(10 ** ((8 if i < 9 else 16) - i)), out=d[i])
    d[1:9] -= 10 * d[0:8]                    # 9 digits of hi, 8 of lo
    d[10:] -= 10 * d[9:16]
    d = d.astype(np.uint8)
    last = ((d != 0) * _ROW).max(axis=0)     # the last nonzero digit
    fixed = (E >= -4) & (E <= 16)
    lead = np.where(fixed, E, 0)             # the last digit before the point
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:_DIGIT0] = _PREFIX * (fixed & (E < _CUTS))
    out[_DIGIT0:_EXP:2] = (d + np.uint8(48)) * (_ROW <= np.maximum(last, lead).astype(np.uint8))
    out[_DIGIT0 + 1:_EXP:2] = 0
    point = np.flatnonzero((last > lead) & (lead >= 0))
    out[_DIGIT0 + 1 + 2 * lead[point], point] = ord(".")
    sci = ~fixed
    mag = np.abs(E).astype(np.uint16)
    tens, hundreds = mag // np.uint16(10), mag // np.uint16(100)
    out[_EXP] = sci * np.uint8(ord("e"))
    out[_EXP + 1] = sci * (np.uint8(43) + np.uint8(2) * (E < 0))   # "+" or "-"
    out[_EXP + 2] = (sci & (hundreds > 0)) * (48 + hundreds)
    out[_EXP + 3] = sci * (48 + tens - 10 * hundreds)
    out[_EXP + 4] = sci * (48 + mag - 10 * tens)
    for i in np.flatnonzero(tie | ~finite):
        out[:, i] = np.frombuffer(_fmt(x[i]).encode("ascii").ljust(SLOTS, b"\0"), np.uint8)


def g17_slots(x) -> np.ndarray:
    """The ``(SLOTS, x.size)`` uint8 records of ``"%.17g" % v``, ``v`` in ``x``."""
    x = np.asarray(x, dtype=np.float64).ravel()
    out = np.empty((SLOTS, x.size), np.uint8)
    for start in range(0, x.size, _BLOCK):
        _fill(x[start:start + _BLOCK], out[:, start:start + _BLOCK])
    return out
