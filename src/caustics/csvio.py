"""Deterministic CSV emission for curve and caustic tables.

Every cell is written as ``"%.17g" % value`` (17 significant digits, enough
to round-trip IEEE doubles exactly) and every line ends in LF, so identical
data always produces byte-identical files.

The text comes from one numpy kernel, run on blocks of about 8 192 cells
that are written to the file one at a time.  For a finite cell with
``1e-280 < |x| < 1e280`` it takes ``p = floor(log10 |x|)`` and forms
``y = |x| * 10**(16 - p)`` from a double-double table of powers of ten:
Dekker's exact two-product of ``|x|`` with the high word, plus ``|x|``
times the low word (Dekker, Numer. Math. 18, 1971).  The part of ``y``
below its high word is then off by less than ``2.5 * 2**-49``, so when
``floor(y)`` lies in ``[10**16, 10**17)``, the rounded significand stays
below ``10**17`` and the fraction of ``y`` is more than ``2**-45`` from
one half, ``round(y)`` is the correctly rounded 17-digit significand and
``p`` its exponent, as in fixed-precision Ryu printing (Adams, OOPSLA 2019).
Those digits are spelled through a 4-digit lookup table and laid out in
``%g``'s fixed or exponent form by one byte mask per block.  Every other
cell -- NaN, +-inf, +-0, magnitudes outside that range, near-ties and the
rare cell whose ``log10`` lands on the wrong side of a power of ten -- is
formatted by ``"%.17g" % value`` itself, so the output equals the ``%``
operator's byte for byte.
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "CURVE_HEADER",
    "CAUSTIC_HEADER",
    "write_table",
    "write_curve_csv",
    "write_caustic_csv",
    "write_coefficient_csv",
]

CURVE_HEADER = ("theta", "x", "y", "R", "s")
CAUSTIC_HEADER = ("theta", "theta1", "x", "y", "R1", "ray_length")

_BLOCK_CELLS = 8192
"""Cells formatted and written at a time."""
_P_MIN, _P_MAX = -281, 280
"""Decimal exponents ``floor(log10 |x|)`` of the cells in ``(1e-280, 1e280)``."""
_TIE_MARGIN = 2.0**-45
"""Least distance of the fraction of ``y`` from one half that the kernel trusts."""
_SPLIT = 134217729.0
"""Dekker's splitter ``2**27 + 1``."""


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
    scaled = _SPLIT * hi_arr
    hi_hi = scaled - (scaled - hi_arr)
    return hi_arr, hi_hi, hi_arr - hi_hi, np.array(lo)


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO = _powers_of_ten()

_quad = np.arange(10_000)
_QUAD = _quad[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_QUAD = _QUAD.astype(np.uint8).view(np.uint32)[:, 0]
"""The four ASCII digits of each integer below 10 000, as one 4-byte word."""
_quad_digits = 4 - sum((_quad % 10**t == 0).astype(np.int8) for t in (1, 2, 3))
_LAST_DIGIT = [
    np.where(_quad > 0, 1 + 4 * g + _quad_digits, 1).astype(np.int8) for g in range(4)
]
"""Per 4-digit group g of digits 1-16: the count of significant digits if the
group holds the last nonzero digit, else 1 (the lead digit alone)."""

# One output row per cell, from which a mask keeps the bytes %g prints:
#   0 sign | 1-2 "0." and 3-5 "000" (fixed form, p < 0) | 6 + 2k digit k,
#   7 + 2k a point after digit k | 39 "e", 40 exponent sign, 41-43 exponent
#   digits (exponent form) | 44 the cell's separator.
_ROW = 45
_TEMPLATE = np.zeros(_ROW, np.uint8)
_TEMPLATE[[0, 1, 2, 3, 4, 5, 39]] = np.frombuffer(b"-0.000e", np.uint8)
_TEMPLATE[7:38:2] = ord(".")
_DIGIT_COLS = slice(6, 39, 2)
_EXP_CODE, _EXP3_CODE = 21, 22
"""Layout codes: ``p + 4`` for the fixed form (-4 <= p < 17), then the
exponent form with two and with three exponent digits."""


def _layout_masks() -> np.ndarray:
    """Row bytes shown, by ``18 * layout code + count of significant digits``."""
    code = np.arange(_EXP3_CODE + 1)[:, None, None]
    nd = np.arange(18)[None, :, None]
    k = np.arange(17)
    fixed = code < _EXP_CODE
    p = code - 4
    shown = np.zeros((_EXP3_CODE + 1, 18, _ROW), dtype=bool)
    shown[..., 1:3] = fixed & (p < 0)  # "0."
    shown[..., 3:6] = fixed & (np.arange(3) < -p - 1)  # the zeros after it
    shown[..., _DIGIT_COLS] = k < np.where(fixed & (p >= 0), np.maximum(nd, p + 1), nd)
    shown[..., 7:38:2] = (k[:16] == np.where(fixed, p, 0)) & (k[:16] + 1 < nd)
    shown[..., [39, 40, 42, 43]] = ~fixed
    shown[..., 41] = (code == _EXP3_CODE)[..., 0]
    shown[..., -1] = True
    return shown.reshape(-1, _ROW)


_SHOWN = _layout_masks()
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
    i = np.floor(np.log10(mag)).astype(np.intp) - _P_MIN
    # y = mag * 10**(16 - p) = y_hi + y_lo: Dekker's two-product, then the low word.
    y_hi = mag * _POW_HI.take(i)
    scaled = _SPLIT * mag
    m_hi = scaled - (scaled - mag)
    m_lo = mag - m_hi
    b_hi, b_lo = _POW_HI_HI.take(i), _POW_HI_LO.take(i)
    y_lo = ((m_hi * b_hi - y_hi) + m_hi * b_lo + m_lo * b_hi) + m_lo * b_lo
    y_lo += mag * _POW_LO.take(i)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    floor_y = y_hi.astype(np.int64) + whole.astype(np.int64)
    sig = floor_y + (frac > 0.5)
    exact = inside & (floor_y >= 10**16) & (sig < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    return exact, sig, i


def _text_blocks(table: np.ndarray) -> Iterator[np.ndarray]:
    """The CSV text of ``table``'s rows, a block of about ``_BLOCK_CELLS`` cells at a time.

    Each block is valid until the next one is requested.
    """
    width = table.shape[1]
    block = max(1, min(_BLOCK_CELLS // width, len(table)))
    sep = np.full((block, width), ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    # Buffers reused by every block: fresh ones would cost a page fault a page.
    rows_buf = np.empty((sep.size, _ROW), np.uint8)
    shown_buf = np.empty((sep.size, _ROW), bool)
    words_buf = np.empty((sep.size, 5), np.uint32)
    text_buf = np.empty(rows_buf.size, np.uint8)
    for start in range(0, len(table), block):
        x = table[start : start + block].ravel()
        n = len(x)
        exact, sig, i = _significands(x)

        # The 17 digits: a lead digit, then four 4-digit groups from the table.
        sig = np.where(exact, sig, 10**16)
        upper, lower = np.divmod(sig, 10**8)
        lead, upper = np.divmod(upper, 10**8)
        words = words_buf[:n]
        _QUAD.take(lead, out=words[:, 0])  # "000" and the lead digit
        nd = np.ones(n, np.int8)
        for g, quad in enumerate((upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)):
            _QUAD.take(quad, out=words[:, g + 1])
            np.maximum(nd, _LAST_DIGIT[g].take(quad), out=nd)

        rows, shown = rows_buf[:n], shown_buf[:n]
        rows[:] = _TEMPLATE
        rows[:, _DIGIT_COLS] = words.view(np.uint8)[:, 3:]
        rows[:, 40:44] = _EXP_TEXT.take(i).view(np.uint8).reshape(n, 4)
        rows[:, -1] = sep[:n]
        _SHOWN.take(_CODE.take(i) + nd, axis=0, out=shown)
        shown[:, 0] = x < 0
        slow = np.flatnonzero(~exact)
        if slow.size:
            text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24")
            text = text.view(np.uint8).reshape(-1, 24)
            rows[slow, :24] = text
            shown[slow, :24] = text != 0
            shown[slow, 24:-1] = False
        size = np.count_nonzero(shown)
        yield np.compress(shown.ravel(), rows.ravel(), out=text_buf[:size])


def write_table(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table with LF endings and deterministic formatting.

    ``rows`` is an ``(n, len(header))`` array or an iterable of rows of
    numbers, and ``header`` names at least one column.  Every cell is
    written as ``"%.17g" % float(value)``, which prints integers up to
    2**53 in magnitude verbatim.  The module's digit kernel formats blocks
    of about 8 192 cells, and each block is written as soon as it is
    formatted.  NaN, +-inf, +-0, magnitudes outside ``(1e-280, 1e280)``
    and cells within ``2**-45`` of a rounding tie are formatted by ``%``
    one at a time.
    """
    width = len(header)
    if width == 0:
        raise ValidationError("header must name at least one column")
    try:
        table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    except ValueError:
        raise ValidationError(f"rows must form an (n, {width}) table of numbers") from None
    if len(table) == 0:
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValidationError(
            f"row width {table.shape[-1]} does not match header width {width}"
        )
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for text in _text_blocks(table):
            fh.write(text)


def write_curve_csv(path: str | os.PathLike, samples) -> None:
    """Emit a ``CurveSamples`` record as ``theta,x,y,R,s`` rows."""
    columns = (samples.theta, samples.x, samples.y, samples.radius, samples.arclength)
    write_table(path, CURVE_HEADER, np.column_stack(columns))


def write_caustic_csv(path: str | os.PathLike, caustic) -> None:
    """Emit a ``Caustic`` record as ``theta,theta1,x,y,R1,ray_length`` rows.

    Flagged nodes keep their source angle and read NaN in every other column.
    """
    columns = (
        caustic.source.theta,
        caustic.caustic_theta,
        caustic.x,
        caustic.y,
        caustic.caustic_radius,
        caustic.ray_length,
    )
    write_table(path, CAUSTIC_HEADER, np.column_stack(columns))


def write_coefficient_csv(path: str | os.PathLike, pairs: Iterable[tuple[int, float]]) -> None:
    """Emit an indexed coefficient list under the header ``n,a_n``."""
    write_table(path, ("n", "a_n"), [(int(n), float(v)) for n, v in pairs])
