"""Deterministic SVG line art for mirrors, caustics and ray diagrams.

Scenes are stroke-only, drawn y-up at uniform scale, and always emit
their groups in the fixed order mirror, caustic, rays, cusps, cuspline
so that regenerated files diff cleanly.
"""
from __future__ import annotations

import os
from typing import Sequence

import numpy as np

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
_CIRCLE = '\n<circle cx="%.3f" cy="%.3f" r="3.840"/>'


def _as_group(data) -> tuple[np.ndarray, np.ndarray] | None:
    """One group's polylines as stacked ``(m, 2)`` points and each polyline's length.

    ``data`` is one ``(n, 2)`` array, an ``(n, k, 2)`` array of ``n``
    polylines, or a sequence of ``(n, 2)`` arrays; ``None`` or no
    polylines gives ``None``.
    """
    if data is None:
        return None
    if isinstance(data, np.ndarray) and data.ndim == 3:
        polys = [data.reshape(-1, data.shape[2])]
        lengths = np.full(len(data), data.shape[1])
    else:
        if isinstance(data, np.ndarray) and data.ndim == 2:
            data = [data]
        polys = [np.asarray(poly, dtype=float) for poly in data]
        lengths = np.array([arr.size // 2 for arr in polys], dtype=int)
    if any(arr.ndim != 2 or arr.shape[1] != 2 for arr in polys):
        raise ValidationError("every polyline must be an (n, 2) array")
    if len(lengths) == 0:
        return None
    return np.concatenate(polys, axis=0).astype(float, copy=False), lengths


def _fmt(x: float) -> str:
    return format(x, ".3f")


def _path_lines(xy: np.ndarray, finite: np.ndarray, lengths: np.ndarray) -> str:
    """``<path>`` lines, each led by a newline, for the polylines of one group.

    NaN rows lift the pen; a polyline with no finite row draws nothing.
    """
    # The pen is down after a finite row; each polyline's first finite row moves it.
    pen_down = np.zeros(len(xy), dtype=bool)
    pen_down[1:] = finite[:-1]
    owner = np.repeat(np.arange(len(lengths)), lengths)[finite]
    first = np.ones(len(owner), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    last = np.ones(len(owner), dtype=bool)
    last[:-1] = first[1:]
    cells = np.empty((len(owner), 4), dtype=object)
    cells[:, 0] = np.where(pen_down[finite], "L", "M")
    cells[first, 0] = '\n<path d="M'
    cells[:, 1:3] = xy[finite]
    cells[:, 3] = np.where(last, '"/>', "")
    return "%s%.3f %.3f%s" * len(owner) % tuple(cells.ravel().tolist())


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
    extent.  Each group's text is formatted in one pass.
    """
    groups = {
        "mirror": _as_group(mirror),
        "caustic": _as_group(caustic),
        "rays": _as_group(rays),
        "cusps": _as_group(np.asarray(cusps, dtype=float).reshape(1, -1, 2))
        if cusps is not None and len(cusps)
        else None,
        "cuspline": _as_group(cuspline),
    }
    stacks = [group[0] for group in groups.values() if group is not None]
    if not stacks:
        raise ValidationError("nothing to draw")
    allpts = np.concatenate(stacks, axis=0)
    finite = allpts[np.all(np.isfinite(allpts), axis=1)]
    if len(finite) == 0:
        raise ValidationError("no finite points to draw")
    lo = finite.min(axis=0)
    hi = finite.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    margin = MARGIN_FRACTION * span
    scale = SIZE / (span + 2 * margin)
    width = (hi[0] - lo[0] + 2 * margin) * scale
    height = (hi[1] - lo[1] + 2 * margin) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
    ]
    for name in GROUP_ORDER:
        if groups[name] is None:
            continue
        points, lengths = groups[name]
        finite = np.all(np.isfinite(points), axis=1)
        # SVG y runs down: flip it, so the scene reads y-up inside the margin.
        xy = np.column_stack(
            [(points[:, 0] - lo[0] + margin) * scale, (hi[1] - points[:, 1] + margin) * scale]
        )
        if name == "cusps":
            body = _CIRCLE * int(finite.sum()) % tuple(xy[finite].ravel().tolist())
        else:
            body = _path_lines(xy, finite, lengths)
        lines.append(f'<g id="{name}" {_STYLE[name]}>' + body)
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
