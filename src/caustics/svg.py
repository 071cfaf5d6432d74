"""Deterministic SVG line art for mirrors, caustics and ray diagrams.

Scenes are stroke-only, drawn y-up at uniform scale, and always emit
their groups in the fixed order mirror, caustic, rays, cusps, cuspline
so that regenerated files diff cleanly.  Coordinates are printed as
``"%.3f"`` by the fixed-point layout of the digit kernel in
``caustics._digits``, one call per group between the tags written here;
it spells each coordinate and the path or circle text after it as a byte row.
"""
from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from . import _checks, _digits
from .errors import ValidationError

__all__ = ["GROUP_ORDER", "write_scene"]

GROUP_ORDER = ("mirror", "caustic", "rays", "cusps", "cuspline")

SIZE = 640.0
"""Length of the viewport's longer side, in SVG user units."""
MARGIN_FRACTION = 0.05
"""Blank border on every side, as a fraction of the data's larger extent."""

_STYLE = {
    "mirror": 'stroke="#1f77b4" stroke-width="1.500" fill="none"',
    "caustic": 'stroke="#d62728" stroke-width="1.500" fill="none"',
    "rays": 'stroke="#b0b0b0" stroke-width="0.750" fill="none"',
    "cusps": 'stroke="#000000" stroke-width="0.750" fill="none"',
    "cuspline": 'stroke="#2ca02c" stroke-width="0.750" stroke-dasharray="6.000 4.000" fill="none"',
}
_PATH_SEPARATORS = _digits.separators(b" ", b"L", b"M", b'"/>\n<path d="M', b'"/>')
"""Text after a path coordinate: after x; after y when a line runs to the
next point, or the pen moves there (a NaN row lifted it); after a
polyline's last y, then after the group's."""
_SPACE, _LINE, _MOVE, _NEXT_PATH, _END_PATH = range(5)
_CIRCLE_SEPARATORS = _digits.separators(
    b'" cy="', b'" r="3.840"/>\n<circle cx="', b'" r="3.840"/>'
)
"""Text after a circle's x, after each y but the group's last, and after that one."""
_CY, _NEXT_CIRCLE, _END_CIRCLE = range(3)


def _as_group(name: str, data) -> tuple[np.ndarray, np.ndarray] | None:
    """One group's polylines as stacked ``(m, 2)`` points and each polyline's length.

    ``data`` is one ``(n, 2)`` array, an ``(n, k, 2)`` array of ``n``
    polylines, or a sequence of ``(n, 2)`` arrays; ``None`` or no
    polylines gives ``None``.
    """
    if data is None:
        return None
    if isinstance(data, np.ndarray) and data.ndim == 3:
        n, k, width = data.shape
        polys = [_checks.array(name, data.reshape(n * k, width), 2)]
        lengths = np.full(n, k)
    else:
        if isinstance(data, np.ndarray) and data.ndim == 2:
            data = [data]
        polys = [_checks.array(name, poly, 2) for poly in _checks.items(name, data)]
        lengths = np.array([len(arr) for arr in polys], dtype=int)
    if len(lengths) == 0:
        return None
    return (polys[0] if len(polys) == 1 else np.concatenate(polys, axis=0)), lengths


def _path_codes(finite: np.ndarray, lengths: np.ndarray, codes: np.ndarray) -> None:
    """Separator codes after the x and the y of each finite point of one path group.

    NaN rows lift the pen; a polyline with no finite row draws nothing.
    """
    # The pen is down after a finite row; each polyline's first finite row moves it.
    drawn = np.zeros(len(finite) + 1, np.intp)
    np.cumsum(finite, out=drawn[1:])
    ends = drawn[np.cumsum(lengths)]  # finite rows up to the end of each polyline
    pen_down = np.zeros(len(finite), dtype=bool)
    pen_down[1:] = finite[:-1]
    codes[:, 0] = _SPACE
    codes[:-1, 1] = np.where(pen_down[finite][1:], _LINE, _MOVE)
    codes[ends[ends > 0] - 1, 1] = _NEXT_PATH
    codes[-1, 1] = _END_PATH


def write_scene(
    path: str | os.PathLike,
    mirror: Sequence | None = None,
    caustic: Sequence | None = None,
    rays: Sequence | None = None,
    cusps: Sequence | None = None,
    cuspline: Sequence | None = None,
) -> None:
    """Write one scene; every argument is a list of (n, 2) polylines.

    A group may also be one (n, 2) array, or an (n, k, 2) array of n
    polylines of k points each (a bundle of rays).  ``cusps`` instead
    takes an (n, 2) array of points, drawn as small circles.  NaN rows
    inside polylines lift the pen.  The viewport is fitted to the finite
    data with a uniform scale and the y axis pointing up; its longer side
    is ``SIZE`` and each margin ``MARGIN_FRACTION`` of the data's larger
    extent, which must be finite.
    """
    path = _checks.path("path", path)
    cusps = _checks.array("cusps", cusps, 2)[None] if cusps is not None and len(cusps) else None
    given = dict(mirror=mirror, caustic=caustic, rays=rays, cusps=cusps, cuspline=cuspline)
    groups = {name: _as_group(name, given[name]) for name in GROUP_ORDER}
    groups = {name: group for name, group in groups.items() if group is not None}
    finite = {
        name: np.isfinite(points[:, 0]) & np.isfinite(points[:, 1])
        for name, (points, _) in groups.items()
    }
    counts = {name: int(np.count_nonzero(rows)) for name, rows in finite.items()}
    # The finite points of every group, in drawing order.
    xy = np.empty((sum(counts.values()), 2))
    if len(xy) == 0:
        raise ValidationError("no finite points to draw")
    at = 0
    for name, (points, _) in groups.items():
        np.compress(finite[name], points, axis=0, out=xy[at : at + counts[name]])
        at += counts[name]
    lo_x, hi_x = float(xy[:, 0].min()), float(xy[:, 0].max())
    lo_y, hi_y = float(xy[:, 1].min()), float(xy[:, 1].max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    margin = MARGIN_FRACTION * span
    if not math.isfinite(span + 2 * margin):
        raise ValidationError("the extent of the scene overflows")
    scale = SIZE / (span + 2 * margin)
    width = format((hi_x - lo_x + 2 * margin) * scale, ".3f")
    height = format((hi_y - lo_y + 2 * margin) * scale, ".3f")
    # SVG y runs down: flip it, so the scene reads y-up inside the margin.
    xy[:, 0] -= lo_x
    xy[:, 0] += margin
    xy[:, 0] *= scale
    np.subtract(hi_y, xy[:, 1], out=xy[:, 1])
    xy[:, 1] += margin
    xy[:, 1] *= scale

    with open(path, "wb") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}">\n'.encode("ascii")
        )
        at = 0
        for name, (_, lengths) in groups.items():
            count = counts[name]
            fh.write(f'<g id="{name}" {_STYLE[name]}>'.encode("ascii"))
            if count:
                codes = np.empty((count, 2), np.int8)
                if name == "cusps":
                    codes[:] = (_CY, _NEXT_CIRCLE)
                    codes[-1, 1] = _END_CIRCLE
                    fh.write(b'\n<circle cx="')
                    seps = _CIRCLE_SEPARATORS
                else:
                    _path_codes(finite[name], lengths, codes)
                    fh.write(b'\n<path d="M')
                    seps = _PATH_SEPARATORS
                _digits.write_cells(fh, xy[at : at + count].T, _digits.FIXED, codes, seps)
            fh.write(b"\n</g>\n")
            at += count
        fh.write(b"</svg>\n")
