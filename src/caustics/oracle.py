"""Brute-force validation of caustics by actual ray geometry.

Everything here works on concrete rays and polylines, independently of
the closed forms elsewhere in the package: families of rays are built
either from a curve plus a tilt field or by physically reflecting
horizontal light off a polyline mirror, envelopes are extracted by
intersecting nearby rays and compared with a closed form point by point,
and mirror feasibility (verticality, self occlusion) is decided by direct
monotonicity and ray-casting checks.  The module exists to disagree with
the analytic machinery whenever the analytic machinery is wrong.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _checks
from .caustic import TiltField, caustic_curve
from .errors import DegenerateSamplingError, ValidationError
from .inclination import AngleInterval, InclinationCurve, _check_finite, reconstruct

__all__ = [
    "PARALLEL_THRESHOLD",
    "CUSP_EXCLUSION_RADIUS",
    "RayFamily",
    "rays_from_tilt",
    "reflect_horizontal",
    "EnvelopePolyline",
    "envelope_numeric",
    "hausdorff_distance",
    "EnvelopeGap",
    "envelope_gap",
    "Verticality",
    "verticality_check",
    "Occlusion",
    "occlusion_check",
]

PARALLEL_THRESHOLD = 1e-12
"""Consecutive rays whose direction cross product is below this are parallel."""

CUSP_EXCLUSION_RADIUS = 1e-2
"""Radius of the disks that ``hausdorff_distance`` leaves out around its exclusion centres.

``envelope_gap`` leaves out nothing: within two nodes of a caustic cusp the
envelope's node error is 3-6x below its largest (circle and cycloid under
reflection, cycloid evolute, 251-4 001 rays).
"""


@dataclass(frozen=True, eq=False)
class RayFamily:
    """An ordered one-parameter family of rays, one row per ray.

    ``bases`` and ``directions`` are ``(n, 2)`` arrays of base points and
    unit directions; ``source_thetas`` holds the strictly increasing
    parameter of each ray.
    """

    bases: np.ndarray
    directions: np.ndarray
    source_thetas: np.ndarray

    def __post_init__(self):
        bases = _checks.array("bases", self.bases, 2)
        directions = _checks.array("directions", self.directions, 2)
        thetas = _checks.increasing("source_thetas", self.source_thetas, least=0)
        if not len(directions) == len(thetas) == len(bases):
            raise ValidationError("one direction and one source angle per ray")
        if np.any(np.abs(np.hypot(directions[:, 0], directions[:, 1]) - 1.0) > 1e-12):
            raise ValidationError("ray directions must be unit vectors (to 1e-12)")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "source_thetas", thetas)

    def __len__(self) -> int:
        return len(self.bases)


def rays_from_tilt(
    curve: InclinationCurve, tilt: TiltField, interval: AngleInterval | Sequence[float]
) -> RayFamily:
    """Rays leaving the curve along the tilted direction field.

    Each reconstructed sample emits one ray from its position along
    nu = sin(phi) T + cos(phi) N.
    """
    samples = reconstruct(curve, interval)
    tangents, normals = samples.frame
    phi = tilt(samples.theta)[0][:, None]
    nu = np.sin(phi) * tangents + np.cos(phi) * normals
    nu /= np.hypot(nu[:, 0], nu[:, 1])[:, None]
    return RayFamily(bases=samples.points, directions=nu, source_thetas=samples.theta)


def reflect_horizontal(points: np.ndarray, source_thetas: Sequence[float]) -> RayFamily:
    """Reflect rightward-travelling horizontal light off a polyline mirror.

    The vertex normal comes from the adjacent segment directions; the
    incoming direction (1, 0) is reflected about it.  ``source_thetas``
    holds each ray's parameter, one per vertex, strictly increasing.
    """
    pts = _checks.array("points", points, 2, least=2)
    seg = np.diff(pts, axis=0)
    norms = np.linalg.norm(seg, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateSamplingError(
            f"repeated polyline point at index {int(np.argmin(norms))}"
        )
    unit = seg / norms[:, None]
    tangents = np.empty_like(pts)
    tangents[0] = unit[0]
    tangents[-1] = unit[-1]
    if len(pts) > 2:
        mids = unit[:-1] + unit[1:]
        bad = np.linalg.norm(mids, axis=1) < 1e-12
        if np.any(bad):
            raise DegenerateSamplingError(
                f"polyline reverses direction at vertex {int(np.flatnonzero(bad)[0]) + 1}"
            )
        tangents[1:-1] = mids / np.linalg.norm(mids, axis=1)[:, None]
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    incoming = np.array([1.0, 0.0])
    dot = normals @ incoming
    directions = incoming[None, :] - 2.0 * dot[:, None] * normals
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    return RayFamily(bases=pts, directions=directions, source_thetas=source_thetas)


@dataclass(frozen=True)
class EnvelopePolyline:
    """Envelope estimate from consecutive-ray intersections.

    ``points[i]`` is the intersection of rays i and i+1, or NaN where the
    pair was parallel; ``gap_indices`` lists those pairs.  ``parameters``
    carries the midpoint source angles.
    """

    points: np.ndarray
    parameters: np.ndarray
    gap_indices: tuple[int, ...]


def envelope_numeric(family: RayFamily) -> EnvelopePolyline:
    """Estimate the envelope of a ray family by intersecting neighbours.

    Second-order accurate in the angular step.  Parallel consecutive rays
    (cross product below ``PARALLEL_THRESHOLD``) produce a flagged NaN gap
    instead of a point; a family of all-parallel rays therefore yields an
    empty (all-NaN) envelope, the caustic at infinity.
    """
    if len(family) < 3:
        raise ValidationError("need at least 3 rays to estimate an envelope")
    b = family.bases
    d = family.directions
    b0, b1 = b[:-1], b[1:]
    d0, d1 = d[:-1], d[1:]
    cross = d0[:, 0] * d1[:, 1] - d0[:, 1] * d1[:, 0]
    delta = b1 - b0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (delta[:, 0] * d1[:, 1] - delta[:, 1] * d1[:, 0]) / cross
        pts = b0 + t[:, None] * d0
    parallel = np.abs(cross) < PARALLEL_THRESHOLD
    pts[parallel] = np.nan
    mids = 0.5 * family.source_thetas[:-1] + 0.5 * family.source_thetas[1:]
    return EnvelopePolyline(
        points=pts,
        parameters=mids,
        gap_indices=tuple(int(i) for i in np.flatnonzero(parallel)),
    )


def _split_segments(points: np.ndarray) -> np.ndarray:
    """Segments between consecutive finite points (NaN rows break the chain)."""
    finite = np.isfinite(points[:, 0]) & np.isfinite(points[:, 1])
    keep = finite[:-1] & finite[1:]
    return np.stack([points[:-1][keep], points[1:][keep]], axis=1)


_PAIR_CHUNK = 1 << 18
"""Point-segment pairs evaluated in one array pass; bounds the working memory."""

_REACH = 4
"""A point's upper bound is its distance to the ``2 * _REACH + 1`` segments at
its proportional place along the other chain."""


def _pair_distance(p, a, v, vv) -> np.ndarray:
    """Distance from each point to the segment ``a + t v``, ``0 <= t <= 1``, pair by pair.

    ``p`` and ``a`` / ``v`` / ``vv`` broadcast against each other; ``vv``
    is ``|v|^2`` with zero-length segments set to 1.
    """
    wx, wy = p[..., 0] - a[..., 0], p[..., 1] - a[..., 1]
    t = np.clip((wx * v[..., 0] + wy * v[..., 1]) / vv, 0.0, 1.0)
    dx = p[..., 0] - (a[..., 0] + t * v[..., 0])
    dy = p[..., 1] - (a[..., 1] + t * v[..., 1])
    return np.sqrt(dx * dx + dy * dy)


def _nearest(points, a, v, vv) -> np.ndarray:
    """Distance from each point to the nearest of all given segments, in bounded chunks."""
    best = np.full(len(points), math.inf)
    if len(a) == 0:
        return best
    step = max(1, _PAIR_CHUNK // len(a))
    for lo in range(0, len(points), step):
        p = points[lo : lo + step, None, :]
        best[lo : lo + step] = _pair_distance(p, a, v, vv).min(axis=1)
    return best


def _directed_distance(points: np.ndarray, segments: np.ndarray) -> float:
    """Largest distance from a point to its nearest segment, by bound and settle.

    Bound: each point's distance to the few segments at its proportional
    place along the other chain is an upper bound on its minimum.  Settle:
    points go largest bound first, each against every segment, 8 in the
    first round and twice as many in each round after, until the next bound
    is at or below the largest settled minimum; no point left can exceed it.
    Every pair goes through one distance formula, so the result equals the
    all-pairs maximum bit for bit, whether or not the chains follow one
    parameter; when they do, a round or two settles it.
    """
    if len(points) == 0:
        return 0.0
    if len(segments) == 0:
        return math.inf
    a = segments[:, 0]
    v = segments[:, 1] - a
    vv = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    vv[vv == 0.0] = 1.0
    n, m = len(points), len(segments)
    place = np.arange(n) * (m - 1) // max(n - 1, 1)
    reach = np.arange(-_REACH, _REACH + 1)
    bound = np.empty(n)
    step = max(1, _PAIR_CHUNK // len(reach))
    for lo in range(0, n, step):
        seg = np.clip(place[lo : lo + step, None] + reach, 0, m - 1)
        p = points[lo : lo + step, None, :]
        bound[lo : lo + step] = _pair_distance(p, a[seg], v[seg], vv[seg]).min(axis=1)
    order = np.argsort(-bound, kind="stable")
    worst, lo, size = -math.inf, 0, 8
    while lo < n and bound[order[lo]] > worst:
        chosen = order[lo : lo + size]
        worst = max(worst, float(_nearest(points[chosen], a, v, vv).max()))
        lo, size = lo + size, 2 * size
    return worst


def hausdorff_distance(
    first: np.ndarray,
    second: np.ndarray,
    exclusions: np.ndarray | Sequence = (),
) -> float:
    """Symmetric Hausdorff distance between two polylines, computed exactly.

    NaN rows split a polyline into disconnected runs.  Points within
    ``CUSP_EXCLUSION_RADIUS`` of any exclusion center are left out of the
    comparison, as are the segments touching them.

    Each directed distance bounds every point's minimum by the segments at
    its proportional place along the other polyline, then settles points
    against all segments, largest bound first, until no bound left can
    exceed the largest settled minimum.  The value equals the brute-force
    maximum over points of the minimum over all point-segment pairs, to
    the last bit.  It costs near-linear time when the two polylines follow
    one parameter, and all pairs when they do not.  Raises ``ValidationError`` unless
    both polylines, and the exclusion centers if any, are ``(n, 2)`` arrays
    of numbers.
    """
    first = _checks.array("first polyline", first, 2)
    second = _checks.array("second polyline", second, 2)
    centers = _checks.array("exclusions", exclusions, 2)

    def prepare(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = np.linalg.norm(points[:, None, :] - centers, axis=2)
        keep = np.all(d > CUSP_EXCLUSION_RADIUS, axis=1) & np.isfinite(points).all(axis=1)
        return points[keep], _split_segments(np.where(keep[:, None], points, np.nan))

    pts1, segs1 = prepare(first)
    pts2, segs2 = prepare(second)
    if len(pts1) == 0 or len(pts2) == 0:
        raise ValidationError("a polyline was entirely excluded; nothing to compare")
    return max(_directed_distance(pts1, segs2), _directed_distance(pts2, segs1))


class EnvelopeGap(NamedTuple):
    """A closed-form caustic against the numeric envelope of its rays."""

    distance: float
    envelope: EnvelopePolyline


def envelope_gap(
    curve: InclinationCurve, tilt: TiltField, window: AngleInterval
) -> EnvelopeGap:
    """Largest node-by-node distance between a caustic's closed form and its rays' envelope.

    The closed form is sampled at the envelope's own (midpoint) parameters, so envelope
    point i pairs with closed-form point i; pairs with a NaN point (a parallel-ray gap in
    ``envelope.gap_indices``, or a flagged node) are left out.  Raises ``ValidationError``
    unless ``window`` is an ``AngleInterval``, or if every pair is left out, and
    ``EvaluationError`` at the first parameter whose distance is not finite.
    """
    if not isinstance(window, AngleInterval):
        raise ValidationError(f"window must be an AngleInterval, got {window!r}")
    envelope = envelope_numeric(rays_from_tilt(curve, tilt, window))
    # Keeping the window's first node in the grid starts the reconstruction
    # at the same origin as the ray family's; starting it on the midpoint
    # grid instead would translate the whole caustic by half a step.
    grid = np.concatenate(([window.lo], envelope.parameters))
    closed = caustic_curve(curve, tilt, grid)[1:]
    kept = ~(np.isnan(envelope.points) | np.isnan(closed.points)).any(axis=1)
    if not kept.any():
        raise ValidationError("no pair of envelope and closed-form points is finite")
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = (envelope.points[kept] - closed.points[kept]).T
        # The Hausdorff search's formula, bit for bit; hypot where its squares overflow.
        errors = np.sqrt(dx * dx + dy * dy)
        errors = np.where(np.isinf(errors), np.hypot(dx, dy), errors)
    _check_finite("the distance to the closed form", errors, envelope.parameters[kept])
    return EnvelopeGap(float(errors.max()), envelope)


class Verticality(NamedTuple):
    """Whether a polyline is the graph of x = f(y), plus the first breakage."""

    is_vertical: bool
    first_violation: int | None


def verticality_check(points: np.ndarray) -> Verticality:
    """A mirror is vertical iff y is strictly monotone along it."""
    pts = _checks.array("points", points, 2, least=2)
    dy = np.diff(pts[:, 1])
    broken = np.flatnonzero((dy == 0.0) | (np.sign(dy) != np.sign(dy[0])))
    if broken.size:
        return Verticality(False, int(broken[0]))
    return Verticality(True, None)


_OCCLUSION_CHUNK = 1 << 20
"""Candidate (segment, vertex) pairs that ``occlusion_check`` tests at a time."""


class Occlusion(NamedTuple):
    """Self-shadowing of a mirror under rightward horizontal light."""

    has_occlusion: bool
    blocked_fraction: float
    blocked_indices: tuple[int, ...]


def occlusion_check(points: np.ndarray) -> Occlusion:
    """Cast the incoming horizontal ray to every vertex and look for blockers.

    A vertex is blocked when some non-adjacent segment of the polyline
    intersects the open ray from x = -inf to the vertex strictly before
    reaching it.  A segment can only cross the ray of a vertex whose y lies
    in ``[min(y0, y1), max(y0, y1))``; with the vertices sorted by y those
    form one run, found by binary search, so the intersection test runs on
    the candidate (segment, vertex) pairs only, in bounded chunks.
    Segments with a NaN end cross nothing.
    """
    pts = _checks.array("points", points, 2, least=2)
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = x[:-1], y[:-1]
    x1, y1 = x[1:], y[1:]
    dy = y1 - y0
    order = np.argsort(y, kind="stable")
    sorted_y = y[order]
    first = np.searchsorted(sorted_y, np.minimum(y0, y1), side="left")
    stop = np.searchsorted(sorted_y, np.maximum(y0, y1), side="left")
    counts = np.where(np.isnan(dy), 0, stop - first)
    ends = np.cumsum(counts)
    blocked = np.zeros(n, dtype=bool)
    seg_lo = 0
    while seg_lo < n - 1:
        done = int(ends[seg_lo - 1]) if seg_lo else 0
        seg_hi = max(seg_lo + 1, int(np.searchsorted(ends, done + _OCCLUSION_CHUNK, side="right")))
        span = counts[seg_lo:seg_hi]
        seg = np.repeat(np.arange(seg_lo, seg_hi), span)
        offset = np.arange(len(seg)) - np.repeat(ends[seg_lo:seg_hi] - span - done, span)
        vert = order[first[seg] + offset]
        yv, xv = y[vert], x[vert]
        with np.errstate(invalid="ignore"):
            xhit = x0[seg] + (yv - y0[seg]) / dy[seg] * (x1 - x0)[seg]
        hit = (xhit < xv - 1e-9) & (seg != vert) & (seg != vert - 1)
        blocked[vert[hit]] = True
        seg_lo = seg_hi
    indices = np.flatnonzero(blocked)
    return Occlusion(
        has_occlusion=bool(indices.size),
        blocked_fraction=indices.size / n,
        blocked_indices=tuple(indices.tolist()),
    )
