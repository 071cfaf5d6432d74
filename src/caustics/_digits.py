"""Decimal text of float arrays for the CSV and SVG writers, spelled by numpy.

``write_cells`` writes each cell of a float table followed by one of a few
separators, in one of two layouts:

``GENERAL`` prints ``"%.17g" % x`` (17 significant digits, enough to
round-trip IEEE doubles exactly; the CSV cells).  For a finite cell with
``1e-280 < |x| < 1e280`` it takes ``p = floor(log10 |x|)`` and forms
``y = |x| * 10**(16 - p)`` from a double-double table of powers of ten:
Dekker's exact two-product of ``|x|`` with the high word, plus ``|x|``
times the low word (Dekker, Numer. Math. 18, 1971).  The part of ``y``
below its high word is then off by less than ``2.5 * 2**-49``, so when
``floor(y)`` lies in ``[10**16, 10**17)``, the rounded significand stays
below ``10**17`` and the fraction of ``y`` is more than ``2**-45`` from
one half, ``round(y)`` is the correctly rounded 17-digit significand and
``p`` its exponent, as in fixed-precision Ryu printing (Adams, OOPSLA
2019).  A byte mask lays the digits out in ``%g``'s fixed or exponent form.

``FIXED`` prints ``"%.3f" % x`` (the SVG coordinates).  For
``0 <= x < 1e4`` the product ``prod = 1000 x`` is rounded once, and as
``prod < 2**24`` every half-integer near it is a double.  Rounding is
monotonic, so with ``whole = floor(prod)``, a fraction ``prod - whole``
above one half puts ``1000 x`` strictly between ``whole + 1/2`` and
``whole + 1``, and one below one half puts it strictly between
``whole - 1/2`` and ``whole + 1/2``.  Unless the fraction is exactly one
half, ``whole + (prod - whole > 1/2)`` is therefore ``1000 x`` rounded to
the nearest integer: the digits that ``%`` prints, with the point before
the last three.  (The 17-digit layout needs the two-product because
``10**(16 - p)`` is itself rounded; 1000 is a double.)  Exact ties such as
0.0625 land on one half and go to ``%``, which rounds them half to even.

Both layouts spell digits through one table of 4-digit words.  Each cell
becomes one byte row, its field and then its separator's slot, and a
boolean mask of the same shape keeps the bytes that are printed, so one
``np.compress`` turns a block of rows into its text.  Every cell the kernel
cannot certify -- NaN, +-inf, and for ``GENERAL`` +-0, magnitudes outside
``(1e-280, 1e280)``, near-ties and the rare cell whose ``log10`` lands on
the wrong side of a power of ten; for ``FIXED`` negatives (-0.0 too),
``x >= 1e4``, fractions of exactly one half and values that round up to
1e4 -- is formatted by the ``%`` operator itself, so the text equals
``%``'s byte for byte.  Blocks of about ``BLOCK_CELLS`` cells are formatted
and written one at a time, so the working memory is set by the block, not
by the table.
"""
from __future__ import annotations

from typing import BinaryIO, Callable, Sequence

import numpy as np

BLOCK_CELLS = 8192
"""Cells formatted and written at a time."""
_SPLIT = 134217729.0
"""Dekker's splitter ``2**27 + 1``."""


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into halves of at most 26 significant bits each."""
    scaled = _SPLIT * a
    hi = scaled - (scaled - a)
    return hi, a - hi


_quad = np.arange(10_000)
_QUAD = _quad[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_QUAD = _QUAD.astype(np.uint8).view(np.uint32)[:, 0]
"""The four ASCII digits of each integer below 10 000, as one 4-byte word."""

# A layout is ``(spec, template, fill)``: the ``%`` format it prints, the
# bytes of a cell's field before it is filled, and the kernel
# ``fill(x, rows, shown)``.  A row is the field, then the separator's slot.
# ``fill`` writes the bytes of each cell's field that differ from the
# template into ``rows`` (which holds the template) and the field's mask
# into ``shown``; it may write past the field, into the slot that is filled
# after it.  It returns where the field is certified equal to ``spec % x``.
Layout = tuple[str, np.ndarray, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]


# ---------------------------------------------------------------------------
# GENERAL: "%.17g"

_P_MIN, _P_MAX = -281, 280
"""Decimal exponents ``floor(log10 |x|)`` of the cells in ``(1e-280, 1e280)``."""
_TIE_MARGIN = 2.0**-45
"""Least distance of the fraction of ``y`` from one half that the kernel trusts."""


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``10**(16 - p)`` for each exponent p as a double-double ``hi + lo``.

    ``hi`` is the correctly rounded double and ``lo`` the correctly rounded
    remainder, both from exact integer quotients; ``hi`` is also returned in
    Dekker's split halves ``hi_hi + hi_lo``.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** (16 - p), 1) if p <= 16 else (1, 10 ** (p - 16))
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi_arr = np.array(hi)
    return (hi_arr, *_split(hi_arr), np.array(lo))


_POW = np.column_stack(_powers_of_ten())
"""Columns ``hi, hi_hi, hi_lo, lo`` of ``10**(16 - p)``, in row ``p - _P_MIN``."""

_quad_digits = 4 - sum((_quad % 10**t == 0).astype(np.int8) for t in (1, 2, 3))
_LAST_DIGIT = np.where(_quad > 0, 1 + 4 * np.arange(4)[:, None] + _quad_digits, 1).astype(np.int8)
"""Per 4-digit group g of digits 1-16 and its value: the count of significant
digits if the group holds the last nonzero digit, else 1 (the lead digit alone)."""
_GROUP_BASE = 10_000 * np.arange(4)[:, None]
"""Where group g's row starts in ``_LAST_DIGIT`` read flat."""

# The field of a cell, from which a mask keeps the bytes %g prints:
#   0 sign | 1-2 "0." and 3-5 "000" (fixed form, p < 0) | 6 + 2k digit k,
#   7 + 2k a point after digit k | 39 "e", 40 exponent sign, 41-43 exponent
#   digits (exponent form).
_G_WIDTH = 44
_G_TEMPLATE = np.zeros(_G_WIDTH, np.uint8)
_G_TEMPLATE[[0, 1, 2, 3, 4, 5, 39]] = np.frombuffer(b"-0.000e", np.uint8)
_G_TEMPLATE[7:38:2] = ord(".")
_DIGIT_COLS = slice(6, 39, 2)
_EXP_CODE, _EXP3_CODE = 21, 22
"""Layout codes: ``p + 4`` for the fixed form (-4 <= p < 17), then the
exponent form with two and with three exponent digits."""


def _layout_masks() -> np.ndarray:
    """Field bytes shown, by ``18 * layout code + count of significant digits``."""
    code = np.arange(_EXP3_CODE + 1)[:, None, None]
    nd = np.arange(18)[None, :, None]
    k = np.arange(17)
    fixed = code < _EXP_CODE
    p = code - 4
    shown = np.zeros((_EXP3_CODE + 1, 18, _G_WIDTH), dtype=bool)
    shown[..., 1:3] = fixed & (p < 0)  # "0."
    shown[..., 3:6] = fixed & (np.arange(3) < -p - 1)  # the zeros after it
    shown[..., _DIGIT_COLS] = k < np.where(fixed & (p >= 0), np.maximum(nd, p + 1), nd)
    shown[..., 7:38:2] = (k[:16] == np.where(fixed, p, 0)) & (k[:16] + 1 < nd)
    shown[..., [39, 40, 42, 43]] = ~fixed
    shown[..., 41] = (code == _EXP3_CODE)[..., 0]
    # A spare column, so that a take fills whole rows when the slot is one byte.
    return np.pad(shown.reshape(-1, _G_WIDTH), ((0, 0), (0, 1)))


_G_SHOWN = _layout_masks()
_exponents = np.arange(_P_MIN, _P_MAX + 1)
_CODE = 18 * np.where(
    (_exponents >= -4) & (_exponents < 17),
    _exponents + 4,
    np.where(np.abs(_exponents) < 100, _EXP_CODE, _EXP3_CODE),
)
_EXP_TEXT = np.column_stack(
    [
        np.where(_exponents < 0, ord("-"), ord("+")),
        ord("0") + np.abs(_exponents) // 100,
        ord("0") + np.abs(_exponents) // 10 % 10,
        ord("0") + np.abs(_exponents) % 10,
    ]
).astype(np.uint8).view(np.uint32)[:, 0]
"""Exponent sign and three digits for each p, as one 4-byte word."""


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correctly rounded 17-digit significands of ``x`` where the kernel can certify them.

    Returns ``(exact, sig, i)``: where ``exact`` holds, ``|x|`` rounds to
    ``sig * 10**(p - 16)`` with ``10**16 <= sig < 10**17`` and exponent
    ``p = i + _P_MIN``.
    """
    mag = np.abs(x)
    inside = (mag > 1e-280) & (mag < 1e280)
    mag = np.where(inside, mag, 1.0)
    # floor(log10 mag) - _P_MIN, as log10 mag - _P_MIN > 1 truncates to it.
    i = (np.log10(mag) - _P_MIN).astype(np.intp)
    # y = mag * 10**(16 - p) = y_hi + y_lo: Dekker's two-product, then the low word.
    b, b_hi, b_lo, b_low_word = _POW.take(i, axis=0).T
    y_hi = mag * b
    m_hi, m_lo = _split(mag)
    y_lo = ((m_hi * b_hi - y_hi) + m_hi * b_lo + m_lo * b_hi) + m_lo * b_lo
    y_lo += mag * b_low_word
    whole = np.floor(y_lo)
    frac = y_lo - whole
    floor_y = y_hi.astype(np.int64) + whole.astype(np.int64)
    sig = floor_y + (frac > 0.5)
    exact = inside & (floor_y >= 10**16) & (sig < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    return exact, sig, i


def _fill_general(x: np.ndarray, rows: np.ndarray, shown: np.ndarray) -> np.ndarray:
    exact, sig, i = _significands(x)
    # The 17 digits: a lead digit, then four 4-digit groups, spelled from the table.
    groups = np.empty((5, len(x)), np.int64)
    np.divmod(np.where(exact, sig, 10**16), 10**8, out=(groups[1], groups[3]))
    np.divmod(groups[1], 10**8, out=(groups[0], groups[1]))
    np.divmod(groups[1], 10**4, out=(groups[1], groups[2]))
    np.divmod(groups[3], 10**4, out=(groups[3], groups[4]))
    words = _QUAD.take(groups.T)  # "000" and the lead digit, then the groups
    nd = _LAST_DIGIT.take(groups[1:] + _GROUP_BASE).max(axis=0)
    rows[:, _DIGIT_COLS] = words.view(np.uint8)[:, 3:]
    # Every index is in range; mode="clip" spares numpy a buffered copy of ``out``.
    _EXP_TEXT.take(i, out=rows[:, 40:44].view(np.uint32)[:, 0], mode="clip")
    _G_SHOWN.take(_CODE.take(i) + nd, axis=0, out=shown[:, : _G_WIDTH + 1], mode="clip")
    np.less(x, 0, out=shown[:, 0])
    return exact


GENERAL = ("%.17g", _G_TEMPLATE, _fill_general)


# ---------------------------------------------------------------------------
# FIXED: "%.3f"

_F_TEMPLATE = np.frombuffer(b"0000.000", np.uint8)
"""Four integer digits, the point and three decimals."""
_F_SHOWN = (np.arange(8) >= 3 - np.arange(4)[:, None]).view(np.uint64)[:, 0]
"""Field bytes shown, as one 8-byte word, by the count of integer digits after the first."""
_POINT = np.frombuffer(bytes([ord("0") - ord("."), 0, 0, 0]), np.uint32)[0]
"""Subtracted from a word of the table, turns its leading "0" into a point."""


def _fill_fixed(x: np.ndarray, rows: np.ndarray, shown: np.ndarray) -> np.ndarray:
    exact = ~np.signbit(x) & (x < 1e4)
    prod = np.where(exact, x, 0.0) * 1000.0
    whole = np.floor(prod)
    frac = prod - whole
    n = whole.astype(np.int64) + (frac > 0.5)
    exact &= (frac != 0.5) & (n < 10**7)
    ints, decimals = np.divmod(np.where(exact, n, 0), 1000)
    words = rows[:, :8].view(np.uint32)
    _QUAD.take(ints, out=words[:, 0], mode="clip")
    _QUAD.take(decimals, out=words[:, 1], mode="clip")
    words[:, 1] -= _POINT
    extra = (ints >= 10).view(np.int8) + (ints >= 100).view(np.int8) + (ints >= 1000).view(np.int8)
    _F_SHOWN.take(extra, out=shown[:, :8].view(np.uint64)[:, 0], mode="clip")
    return exact


FIXED = ("%.3f", _F_TEMPLATE, _fill_fixed)


# ---------------------------------------------------------------------------
# Block writer


def separators(*texts: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``texts``, none of them empty or holding a NUL, padded to one slot each, and their masks.

    A slot is a power of two bytes, so that numpy gathers it as one item.
    """
    slot = 1 << (max(map(len, texts)) - 1).bit_length()
    table = np.zeros((len(texts), slot), np.uint8)
    for k, text in enumerate(texts):
        table[k, : len(text)] = np.frombuffer(text, np.uint8)
    return table.view(f"V{slot}")[:, 0], (table != 0).view(f"V{slot}")[:, 0]


def write_cells(
    fh: BinaryIO,
    values: np.ndarray,
    layout: Layout,
    codes: np.ndarray,
    seps: tuple[np.ndarray, np.ndarray],
    breaks: Sequence[tuple[int, bytes]] = (),
) -> None:
    """Write each cell of the ``(n, w)`` table ``values``, row by row, to ``fh``.

    Every cell is printed as ``spec % cell``, with the format ``spec`` of
    ``layout`` (``GENERAL`` or ``FIXED``), and followed by separator
    number ``code`` of ``seps``, a table from ``separators``; ``codes`` is
    an ``(n, w)`` integer array, or one row of ``w`` codes that every row
    shares.  ``breaks`` lists ``(row, text)`` pairs in order of ``row``,
    ``0 <= row <= n``: ``text`` is written before that row of ``values``,
    or after the last.  Blocks of about ``BLOCK_CELLS`` cells are
    formatted and written one at a time.
    """
    n, width = values.shape
    spec, template, fill = layout
    field = len(template)
    sep_text, sep_shown = seps
    block = max(1, min(BLOCK_CELLS // width, n))
    shared = codes.ndim == 1
    if shared:
        codes = np.repeat(codes[None, :], block, axis=0)
    # Buffers reused by every block: fresh ones would cost a page fault a page.
    rows_buf = np.empty((block * width, field + sep_text.itemsize), np.uint8)
    rows_buf[:, :field] = template
    shown_buf = np.empty(rows_buf.shape, bool)
    text_buf = np.empty(rows_buf.size, np.uint8)
    slot_text = rows_buf[:, field:].view(sep_text.dtype)[:, 0]
    slot_shown = shown_buf[:, field:].view(sep_shown.dtype)[:, 0]
    breaks = iter(breaks)
    row, insert = next(breaks, (n + 1, b""))
    for start in range(0, n, block):
        x = values[start : start + block].ravel()
        count = len(x)
        rows, shown = rows_buf[:count], shown_buf[:count]
        slow = (~fill(x, rows, shown)).nonzero()[0]
        code = (codes[: count // width] if shared else codes[start : start + block]).ravel()
        sep_text.take(code, out=slot_text[:count])
        sep_shown.take(code, out=slot_shown[:count])
        out = text_buf
        if slow.size:
            text = np.array([spec % v for v in x[slow].tolist()], dtype=bytes)
            wide = text.itemsize
            if wide > field:
                # Text longer than the field: this block gets wider rows of its own.
                pad = np.zeros((count, wide - field), np.uint8)
                rows = np.concatenate([rows[:, :field], pad, rows[:, field:]], axis=1)
                shown = np.concatenate([shown[:, :field], pad.view(bool), shown[:, field:]], axis=1)
                out = np.empty(rows.size, np.uint8)
            text = text.view(np.uint8).reshape(-1, wide)
            rows[slow, :wide] = text
            shown[slow, :wide] = text != 0
            shown[slow, wide:field] = False
        size = np.count_nonzero(shown)
        chunk = np.compress(shown.ravel(), rows.ravel(), out=out[:size])
        cut, stop = 0, start + count // width
        if row < stop:
            # Where each row's text ends, to cut the block at its breaks.
            ends = np.cumsum(np.count_nonzero(shown.reshape(stop - start, -1), axis=1))
            while row < stop:
                end = int(ends[row - start - 1]) if row > start else 0
                fh.write(chunk[cut:end])
                fh.write(insert)
                cut = end
                row, insert = next(breaks, (n + 1, b""))
        fh.write(chunk[cut:])
        if slow.size and wide <= field:
            rows[slow, :wide] = template[:wide]
    while row <= n:
        fh.write(insert)
        row, insert = next(breaks, (n + 1, b""))
