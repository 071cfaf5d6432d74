"""Deterministic CSV emission for curve and caustic tables.

Every cell is written as ``"%.17g" % value`` (17 significant digits, enough
to round-trip IEEE doubles exactly) and every line ends in LF, so identical
data always produces byte-identical files.

The text comes from the digit kernel in ``caustics._digits`` (its
``GENERAL`` layout), run on blocks of about 8 192 cells that are written to
the file one at a time.  The kernel reads a table as its columns, so a
record's writer hands it the record's own columns and copies no table.  It
spells zeros of either sign itself, and it is exact: cells it cannot certify
are formatted by ``%`` itself, so the output equals the ``%`` operator's byte
for byte.
"""
from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from . import _checks, _digits
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
_SEPARATORS = _digits.separators(b",", b"\n")


def write_table(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table with LF endings and deterministic formatting.

    ``rows`` is an ``(n, len(header))`` array or an iterable of rows of
    numbers, and ``header`` names at least one column.  Every cell is
    written as ``"%.17g" % float(value)``, which prints integers up to
    2**53 in magnitude verbatim.  The digit kernel formats blocks of
    about 8 192 cells, and each block is written as soon as it is
    formatted.  Zeros are spelled ``0`` and ``-0`` by the kernel; NaN,
    +-inf, other magnitudes outside ``(1e-280, 1e280)`` and cells within
    ``2**-45`` of a rounding tie are formatted by ``%`` one at a time.
    """
    width = len(header)
    if width == 0:
        raise ValidationError("header must name at least one column")
    form = f"an (n, {width}) table of numbers"
    rows = rows if isinstance(rows, np.ndarray) else _checks.items("rows", rows)
    table = _checks.floats("rows", rows, form)
    if table.shape == (0,):
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValidationError(f"rows must be {form}; got shape {table.shape}")
    _write_columns(path, header, table.T)


def _write_columns(path: str | os.PathLike, header: Sequence[str], columns) -> None:
    """Write the header, then the table of the float ``columns``, one per header name."""
    codes = np.zeros(len(header), np.int8)
    codes[-1] = 1  # the newline
    with open(_checks.path("path", path), "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        _digits.write_cells(fh, columns, _digits.GENERAL, codes, _SEPARATORS)


def write_curve_csv(path: str | os.PathLike, samples) -> None:
    """Emit a ``CurveSamples`` record as ``theta,x,y,R,s`` rows."""
    columns = (samples.theta, samples.x, samples.y, samples.radius, samples.arclength)
    _write_columns(path, CURVE_HEADER, columns)


def write_caustic_csv(path: str | os.PathLike, caustic) -> None:
    """Emit a ``Caustic`` record as ``theta,theta1,x,y,R1,ray_length`` rows.

    Flagged nodes keep their source angle and read NaN in every other column.
    """
    columns = (caustic.source.theta, caustic.caustic_theta, caustic.x, caustic.y,
               caustic.caustic_radius, caustic.ray_length)
    _write_columns(path, CAUSTIC_HEADER, columns)


def write_coefficient_csv(path: str | os.PathLike, pairs: Iterable[tuple[int, float]]) -> None:
    """Emit an indexed coefficient list under the header ``n,a_n``."""
    write_table(path, ("n", "a_n"), pairs)
