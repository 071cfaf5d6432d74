"""Decimal text of float arrays for the CSV and SVG writers, spelled by numpy.

``write_cells`` writes each cell of a float table, given as its columns,
followed by one of a few separators, in one of two layouts:

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
2019).  A zero is spelled ``0``, or ``-0`` when its sign bit is set.

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

Each cell becomes one byte row, its field and then its separator's slot,
in which every byte that is not printed is NUL, so one
``bytearray.translate(None, b"\\0")`` turns a block of rows into its text.
Both layouts spell digits through one table of 4-digit words.  A
``GENERAL`` row is four 8-byte words.  Bytes 0-5 hold the sign, and
``"0."`` and its zeros when ``-4 <= p < 0``.  The 17 digits are laid out
twice, from byte 6 and from byte 7, and masks chosen by the layout and the
count of significant digits keep the integer digits of the first, the
fraction digits of the second and OR in the point between them.  The last
word holds the exponent and ends in the one-byte separator slot.  A
``FIXED`` field is the integer part, its leading zeros NUL, then the point
and three decimals.  Every cell the kernel cannot certify -- NaN, +-inf,
and for ``GENERAL`` nonzero magnitudes outside ``(1e-280, 1e280)``,
near-ties and the rare cell whose ``log10`` lands on the wrong side of a
power of ten; for ``FIXED`` negatives (-0.0 too), ``x >= 1e4``, fractions
of exactly one half and values that round up to 1e4 -- is formatted by the
``%`` operator itself, so the text equals ``%``'s byte for byte.  Blocks of
about ``BLOCK_CELLS`` cells are gathered from the columns into one reused
buffer, formatted and written one at a time, so the working memory is set by
the block, not by the table, and no copy of the table is made.
"""
from __future__ import annotations

from typing import BinaryIO, Callable

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
_digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_quad_digits = np.stack(np.meshgrid(_digit, _digit, _digit, _digit, indexing="ij"), -1).reshape(-1, 4)
_QUAD = _quad_digits.view(np.uint32)[:, 0]
"""The four ASCII digits of each integer below 10 000, as one 4-byte word."""

# A layout is ``(spec, field, fill)``: the ``%`` format it prints, the
# width in bytes of a cell's field, and the kernel ``fill(x, rows)``.  A row
# is the field, then the separator's slot.  ``fill`` writes each cell's
# field into ``rows``, NUL in every byte that is not printed; it may write
# past the field, into the slot that is filled after it.  It returns where
# the field is certified equal to ``spec % x``.
Layout = tuple[str, int, Callable[[np.ndarray, np.ndarray], np.ndarray]]


# ---------------------------------------------------------------------------
# GENERAL: "%.17g"

_P_MIN, _P_MAX = -281, 280
"""Decimal exponents ``floor(log10 |x|)`` of the cells in ``(1e-280, 1e280)``."""
_TIE_MARGIN = 2.0**-45
"""Least distance of the fraction of ``y`` from one half that the kernel trusts."""
_OUTSIDE = 3e281
"""Stands in for a magnitude outside ``(1e-280, 1e280)``.  It selects the row
after ``_P_MAX``'s, whose power of ten is 0, so the cell's significand is 0."""


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``10**(16 - p)`` for each exponent p as a double-double ``hi + lo``, then 0.

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
    hi_arr = np.array(hi + [0.0])
    return (hi_arr, *_split(hi_arr), np.array(lo + [0.0]))


_POW = np.column_stack(_powers_of_ten())
"""Columns ``hi, hi_hi, hi_lo, lo`` of ``10**(16 - p)``, in row ``p - _P_MIN``."""
_EXPONENT = np.append(np.arange(_P_MIN, _P_MAX + 1), 0)
"""The exponent printed for each row of ``_POW``: a cell of the last row is a zero."""

_quad_count = 4 - sum((_quad % 10**t == 0).astype(np.int8) for t in (1, 2, 3))
_LAST_DIGIT = np.where(_quad > 0, 1 + 4 * np.arange(4)[:, None] + _quad_count, 1).astype(np.int8)
"""Per 4-digit group g of digits 1-16 and its value: the count of significant
digits if the group holds the last nonzero digit, else 1 (the lead digit alone)."""
_GROUP_BASE = 10_000 * np.arange(4)[:, None]
"""Where group g's row starts in ``_LAST_DIGIT`` read flat."""
_QUAD_LO = _QUAD.astype(np.uint64)
_QUAD_HI = _QUAD_LO << 32
"""``_QUAD`` as the low and the high half of an 8-byte word."""

_EXP_CODE, _EXP3_CODE = 21, 22
"""Layout codes: ``p + 4`` for the fixed form (-4 <= p < 17), then the
exponent form with two and with three exponent digits."""
_fixed_form = (_EXPONENT >= -4) & (_EXPONENT < 17)
_CODE = 18 * np.where(_fixed_form, _EXPONENT + 4, np.where(abs(_EXPONENT) < 100, _EXP_CODE, _EXP3_CODE))
_EXP_WORD = np.frombuffer(
    b"".join(b"\0" * 8 if fixed else (b"e%+03d" % p).ljust(8, b"\0")
             for p, fixed in zip(_EXPONENT.tolist(), _fixed_form.tolist())),
    np.uint64,
)
"""Row bytes 24-31 for each row of ``_POW``: the exponent as ``%g`` spells
it, NUL in the fixed form.  The last byte is left to the separator."""


def _digit_masks() -> np.ndarray:
    """Row bytes 0-23 as three words each, by ``18 * layout code + count of significant digits``.

    Words 0-2 keep the digits laid out from byte 6 (the integer digits),
    words 3-5 keep those laid out from byte 7 (the fraction digits), and
    words 6-8 are OR-ed in: ``"0."`` and its zeros, and the point.
    """
    code = np.arange(_EXP3_CODE + 1)[:, None, None]
    nd = np.arange(18)[:, None]
    at = np.arange(24)
    fixed = code < _EXP_CODE
    p = code - 4
    ints = np.where(fixed, np.maximum(p + 1, 0), 1)
    head = fixed & (p < 0) & (at > 0) & (at < 2 - p)
    text = np.where(head, np.frombuffer(b"\x000.000".ljust(24, b"\0"), np.uint8), 0)
    text = np.where((at == 6 + ints) & (ints > 0) & (ints < nd), ord("."), text)
    parts = np.broadcast_arrays((at >= 6) & (at < 6 + ints), (at >= 7 + ints) & (at < 7 + nd), text)
    masks = np.stack([parts[0] * 255, parts[1] * 255, parts[2]], axis=2).astype(np.uint8)
    return masks.view(np.uint64).reshape(-1, 9).T.copy()


_DIGIT_MASKS = _digit_masks()


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correctly rounded 17-digit significands of ``x`` where the kernel can certify them.

    Returns ``(exact, sig, i)``: where ``exact`` holds, ``x`` is a zero (``sig``
    0, ``i`` the last row of ``_POW``) or ``|x|`` rounds to
    ``sig * 10**(p - 16)`` with ``10**16 <= sig < 10**17`` and exponent
    ``p = i + _P_MIN``.
    """
    mag = np.abs(x)
    inside = (mag > 1e-280) & (mag < 1e280)
    mag = np.where(inside, mag, _OUTSIDE)
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
    exact = (floor_y >= 10**16) & (sig < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    return exact | (x == 0), sig, i


def _fill_general(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    exact, sig, i = _significands(x)
    # The 17 digits in 4-digit groups (a spare, the lead digit, then four), by floor_divide.
    groups = np.empty((6, len(x)), np.int64)
    np.floor_divide(sig, 10**8, out=groups[0])
    np.subtract(sig, groups[0] * 10**8, out=groups[1])
    np.floor_divide(groups[:2], 10**4, out=groups[2::2])
    np.subtract(groups[:2], groups[2::2] * 10**4, out=groups[3::2])
    np.floor_divide(groups[2], 10**4, out=groups[1])
    groups[2] -= groups[1] * 10**4
    # Three words of digits from byte 7, the lead digit last in the first; the
    # spare group, clipped into the table, fills the bytes before it.
    at7 = _QUAD_LO.take(groups[::2], mode="clip")
    at7 |= _QUAD_HI.take(groups[1::2])
    at6 = at7 >> 8
    at6[:2] |= at7[1:] << 56
    nd = _LAST_DIGIT.take(groups[2:] + _GROUP_BASE).max(axis=0)
    masks = _DIGIT_MASKS.take(_CODE.take(i) + nd, axis=1)
    at6 &= masks[:3]
    at7 &= masks[3:6]
    at6 |= at7
    words = rows[:, :32].view(np.uint64)
    np.bitwise_or(at6, masks[6:], out=words[:, :3].T)
    # Every index is in range; mode="clip" spares numpy a buffered copy of ``out``.
    _EXP_WORD.take(i, out=words[:, 3], mode="clip")
    # (numpy 2.4's signbit writes a strided out wrongly, so its result is made whole first.)
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(ord("-")), out=rows[:, 0])
    return exact


GENERAL = ("%.17g", 31, _fill_general)


# ---------------------------------------------------------------------------
# FIXED: "%.3f"

_INT_WORD = (_quad_digits * (_quad[:, None] >= np.array([1000, 100, 10, 0]))).view(np.uint32)[:, 0]
"""The integer part: ``_QUAD`` with its leading zeros NUL, all but the last."""
_DECIMALS_WORD = _QUAD[:1000] - (ord("0") - ord("."))
"""The point and three decimals: ``_QUAD`` with its leading "0" made a point."""


def _fill_fixed(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    exact = ~np.signbit(x) & (x < 1e4)
    prod = np.where(exact, x, 0.0) * 1000.0
    whole = np.floor(prod)
    frac = prod - whole
    n = whole.astype(np.int64) + (frac > 0.5)
    exact &= (frac != 0.5) & (n < 10**7)
    ints, decimals = np.divmod(np.where(exact, n, 0), 1000)
    words = rows[:, :8].view(np.uint32)
    _INT_WORD.take(ints, out=words[:, 0], mode="clip")
    _DECIMALS_WORD.take(decimals, out=words[:, 1], mode="clip")
    return exact


FIXED = ("%.3f", 8, _fill_fixed)


# ---------------------------------------------------------------------------
# Block writer


def separators(*texts: bytes) -> np.ndarray:
    """``texts``, none of them empty or holding a NUL, NUL-padded to one slot each.

    A slot is a power of two bytes, so that numpy gathers it as one item.
    """
    slot = 1 << (max(map(len, texts)) - 1).bit_length()
    table = np.zeros((len(texts), slot), np.uint8)
    for k, text in enumerate(texts):
        table[k, : len(text)] = np.frombuffer(text, np.uint8)
    return table.view(f"V{slot}")[:, 0]


def write_cells(
    fh: BinaryIO,
    columns,
    layout: Layout,
    codes: np.ndarray,
    seps: np.ndarray,
) -> None:
    """Write the table of the ``w`` equal-length ``columns``, row by row, to ``fh``.

    ``columns`` is a sequence of 1-D arrays, or a ``(w, n)`` array such as
    ``table.T``.  Every cell is printed as ``spec % cell``, with the format
    ``spec`` of ``layout`` (``GENERAL`` or ``FIXED``), and followed by
    separator number ``code`` of ``seps``, a table from ``separators``;
    ``codes`` is an ``(n, w)`` integer array, or one row of ``w`` codes that
    every row shares.  Each block of about ``BLOCK_CELLS`` cells is gathered
    into one reused buffer, formatted and written.
    """
    width, n = len(columns), len(columns[0])
    spec, field, fill = layout
    block = max(1, min(BLOCK_CELLS // width, n))
    line = seps.take(codes) if codes.ndim == 1 else None
    # Cells and rows reused by every block, as fresh ones would cost a page
    # fault a page; numpy fills them and their bytearray drops the NULs.
    cells = np.empty((block, width))
    size = field + seps.itemsize
    buf = bytearray(block * width * size)
    rows_buf = np.frombuffer(buf, np.uint8).reshape(-1, size)
    slots = rows_buf[:, field:].view(seps.dtype)[:, 0]
    for start in range(0, n, block):
        stop = min(start + block, n)
        for k, column in enumerate(columns):
            cells[: stop - start, k] = column[start:stop]
        x = cells[: stop - start].ravel()
        count = len(x)
        rows = rows_buf[:count]
        slow = (~fill(x, rows)).nonzero()[0]
        if line is None:
            seps.take(codes[start:stop].ravel(), out=slots[:count])
        else:
            slots[:count].reshape(-1, width)[:] = line
        text = buf
        if slow.size:
            spelled = np.array([spec % v for v in x[slow].tolist()], dtype=bytes)
            wide = spelled.itemsize
            if wide > field:
                # Text longer than the field: this block gets wider rows of its own.
                text = bytearray(count * (wide + size - field))
                wider = np.frombuffer(text, np.uint8).reshape(count, -1)
                wider[:, :field], wider[:, wide:] = rows[:, :field], rows[:, field:]
                rows = wider
            rows[slow, :wide] = spelled.view(np.uint8).reshape(-1, wide)
            rows[slow, wide:field] = 0
        fh.write((text if rows.size == len(text) else text[: rows.size]).translate(None, b"\0"))
