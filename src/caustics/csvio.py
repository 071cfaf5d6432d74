"""Deterministic CSV emission and ingestion for curve and caustic tables.

Values are written with 17 significant digits (enough to round-trip IEEE
doubles exactly) and LF line endings, so identical data always produces
byte-identical files and a read-write cycle is the identity.
"""
from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "CURVE_HEADER",
    "CAUSTIC_HEADER",
    "write_table",
    "read_table",
    "write_curve_csv",
    "write_caustic_csv",
    "write_coefficient_csv",
]

CURVE_HEADER = ("theta", "x", "y", "R", "s")
CAUSTIC_HEADER = ("theta", "theta1", "x", "y", "R1", "ray_length")


def write_table(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table with LF endings and deterministic formatting.

    ``rows`` is an ``(n, len(header))`` array or an iterable of rows of
    numbers.  Every cell is written as ``"%.17g" % float(value)``, which
    prints integers up to 2**53 in magnitude verbatim; the whole table is
    formatted in one pass.
    """
    width = len(header)
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
    line = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(table) % tuple(table.ravel().tolist()))


def read_table(path: str | os.PathLike) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a CSV table written by :func:`write_table`.

    Returns the header and the rows as a float array (empty tables give a
    (0, len(header)) array).
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = fh.read()
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValidationError(f"{path}: empty CSV")
    header = tuple(lines[0].split(","))
    rows = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]], dtype=float
    )
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    if rows.shape[1] != len(header):
        raise ValidationError(f"{path}: ragged CSV ({rows.shape[1]} columns vs header)")
    return header, rows


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


def write_coefficient_csv(
    path: str | os.PathLike, pairs: Iterable[tuple[int, float]], value_label: str = "a_n"
) -> None:
    """Emit an indexed coefficient list as ``n,<label>`` rows."""
    write_table(path, ("n", value_label), [(int(n), float(v)) for n, v in pairs])
