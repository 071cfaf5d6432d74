"""Ray-level checks: reflection, envelopes, feasibility flags."""

import math
import tracemalloc

import numpy as np
import pytest

from caustics import oracle
from caustics.caustic import TiltField, caustic_curve
from caustics.errors import DegenerateSamplingError, ValidationError
from caustics.inclination import AngleInterval, circle, cycloid, log_spiral, reconstruct
from caustics.oracle import (
    RayFamily,
    envelope_gap,
    envelope_numeric,
    hausdorff_distance,
    occlusion_check,
    rays_from_tilt,
    reflect_horizontal,
    verticality_check,
)
from caustics.pantograph import solution_curve


def circle_points(lo, hi, n):
    samples = reconstruct(circle(1.0), AngleInterval(lo, hi, n))
    return samples.points, samples.theta


def tangent_family(n):
    thetas = np.linspace(0.01, 2 * math.pi, n)
    return RayFamily(
        bases=np.column_stack([np.cos(thetas), np.sin(thetas)]),
        directions=np.column_stack([-np.sin(thetas), np.cos(thetas)]),
        source_thetas=thetas,
    )


def test_ray_requires_unit_direction():
    with pytest.raises(ValidationError):
        RayFamily(
            bases=np.zeros((2, 2)),
            directions=np.array([[0.0, 1.0], [1.0, 1.0]]),
            source_thetas=np.array([0.0, 1.0]),
        )
    family = RayFamily(
        bases=np.array([[1.0, 2.0]]), directions=np.array([[0.0, 1.0]]), source_thetas=[0.0]
    )
    assert np.allclose(family.bases[0] + 3.0 * family.directions[0], [1.0, 5.0])


def test_family_requires_increasing_thetas():
    bases = np.column_stack([np.arange(3.0), np.zeros(3)])
    directions = np.tile([0.0, 1.0], (3, 1))
    with pytest.raises(ValidationError):
        RayFamily(bases, directions, source_thetas=np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValidationError):
        RayFamily(bases, directions, source_thetas=np.array([0.0, 0.5]))


def test_evolute_rays_of_circle_hit_center():
    family = rays_from_tilt(circle(1.0), TiltField.evolute(), AngleInterval(0.0, 2 * math.pi, 65))
    for hit in family.bases + 1.0 * family.directions:
        assert np.linalg.norm(hit - np.array([0.0, 1.0])) < 1e-9


def test_reflection_of_semicircle_doubles_angle():
    pts, thetas = circle_points(0.01, math.pi - 0.01, 4001)
    family = reflect_horizontal(pts, thetas)
    dirs = family.directions
    want = np.stack([np.cos(2 * thetas), np.sin(2 * thetas)], axis=1)
    err = np.linalg.norm(dirs[1:-1] - want[1:-1], axis=1)
    assert np.max(err) < 1e-6


def test_reflection_rejects_degenerate_polylines():
    dup = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSamplingError):
        reflect_horizontal(dup, np.arange(3.0))
    reversal = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(DegenerateSamplingError):
        reflect_horizontal(reversal, np.arange(3.0))


def test_envelope_of_tangent_lines_is_the_circle():
    envelope = envelope_numeric(tangent_family(2000))
    radii = np.linalg.norm(envelope.points, axis=1)
    assert envelope.gap_indices == ()
    assert np.max(np.abs(radii - 1.0)) < 5e-6


def test_envelope_error_at_least_halves_with_step():
    fine = envelope_numeric(tangent_family(2000))
    coarse = envelope_numeric(tangent_family(1000))
    err_fine = np.max(np.abs(np.linalg.norm(fine.points, axis=1) - 1.0))
    err_coarse = np.max(np.abs(np.linalg.norm(coarse.points, axis=1) - 1.0))
    assert err_fine <= 0.5 * err_coarse


def test_envelope_needs_three_rays_and_flags_parallels():
    bases = np.column_stack([np.zeros(4), np.arange(4.0)])
    directions = np.tile([1.0, 0.0], (4, 1))
    family = RayFamily(bases, directions, source_thetas=np.arange(4.0))
    envelope = envelope_numeric(family)
    assert len(envelope.gap_indices) == 3
    assert np.all(np.isnan(envelope.points))
    with pytest.raises(ValidationError):
        envelope_numeric(RayFamily(bases[:2], directions[:2], source_thetas=np.arange(2.0)))


def test_hausdorff_of_offset_segments():
    first = np.array([[0.0, 0.0], [1.0, 0.0]])
    second = np.array([[0.0, 0.3], [1.0, 0.3]])
    assert abs(hausdorff_distance(first, second) - 0.3) < 1e-12


def test_hausdorff_with_gaps_and_exclusions():
    first = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, np.nan], [0.0, 1.0], [1.0, 1.0]])
    second = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert hausdorff_distance(first, second) == 1.0
    # Centres within the 1e-2 disk of the offset branch's two points excise it, and the
    # segment between them, leaving two identical segments.
    inside = np.array([[0.0, 1.0 + 0.9e-2], [1.0 - 0.9e-2, 1.0]])
    assert hausdorff_distance(first, second, exclusions=inside) == 0.0
    # Just outside the disk they excise nothing.
    outside = np.array([[0.0, 1.0 + 1.1e-2], [1.0 - 1.1e-2, 1.0]])
    assert hausdorff_distance(first, second, exclusions=outside) == 1.0
    # Centres on every point excise both polylines.
    with pytest.raises(ValidationError, match="entirely excluded"):
        hausdorff_distance(first, second, exclusions=first[[0, 1, 3, 4]])


@pytest.mark.parametrize(
    "bad", [[], np.zeros((3, 3)), [["a", "b"]]], ids=["empty", "three_columns", "strings"]
)
def test_hausdorff_rejects_malformed_polylines(bad):
    good = [[0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ValidationError, match="polyline"):
        hausdorff_distance(bad, good)
    with pytest.raises(ValidationError, match="polyline"):
        hausdorff_distance(good, bad)


@pytest.mark.parametrize(
    "bad", [[1.0, 2.0, 3.0], [["a", "b"]]], ids=["odd_length", "strings"]
)
def test_hausdorff_rejects_malformed_exclusions(bad):
    good = [[0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ValidationError, match="exclusions"):
        hausdorff_distance(good, good, exclusions=bad)


def _brute_directed_distance(points, segments):
    """Reference: every point against every segment, in chunks of 2e6 pairs."""
    if len(points) == 0:
        return 0.0
    if len(segments) == 0:
        return math.inf
    a = segments[:, 0]
    v = segments[:, 1] - segments[:, 0]
    vv = np.einsum("ij,ij->i", v, v)
    vv[vv == 0.0] = 1.0
    best = np.full(len(points), math.inf)
    chunk = max(1, 2_000_000 // max(1, len(segments)))
    for lo in range(0, len(points), chunk):
        p = points[lo : lo + chunk]
        w = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", w, v) / vv[None, :], 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * v[None, :, :]
        dist = np.linalg.norm(p[:, None, :] - closest, axis=2)
        best[lo : lo + chunk] = dist.min(axis=1)
    return float(best.max())


def _wiggle(rng, n, scale=1.0):
    """A random smooth-ish closed loop of n points."""
    t = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    r = 1.0 + 0.2 * np.sin(3 * t + rng.uniform(0, 6)) + 0.01 * rng.normal(size=n)
    return scale * np.column_stack([r * np.cos(t), r * np.sin(t)])


def _hausdorff_cases(rng):
    base = _wiggle(rng, 400)
    near = base + 1e-3 * rng.normal(size=base.shape)
    gaps = near.copy()
    gaps[[0, 57, 58, 200, -1]] = np.nan
    repeated = np.repeat(base, rng.integers(1, 4, size=len(base)), axis=0)
    long_jump = np.concatenate([base[:200], [[40.0, -25.0]], base[200:]])
    far = np.concatenate([near, 5.0 + _wiggle(rng, 30, 0.1)])
    lone = np.array([[0.3, 0.1], [50.0, 50.0], [-1e3, 2.0]])
    return {
        "nan_breaks": (gaps, base, ()),
        "cusp_exclusions": (near, base, base[[10, 150, 151, 300]]),
        "zero_length_segments": (near, repeated, ()),
        "one_long_segment": (near, long_jump, ()),
        "far_points": (far, base, ()),
        "lone_points": (lone, base, ()),
        "coarse_against_fine": (base[::37], _wiggle(rng, 3000), ()),
        "identical": (base, base.copy(), ()),
        "reversed": (base, base[::-1].copy(), ()),
    }


@pytest.mark.parametrize(
    "case",
    [
        "nan_breaks",
        "cusp_exclusions",
        "zero_length_segments",
        "one_long_segment",
        "far_points",
        "lone_points",
        "coarse_against_fine",
        "identical",
        "reversed",
    ],
)
def test_hausdorff_equals_brute_force(case, rng, monkeypatch):
    first, second, exclusions = _hausdorff_cases(rng)[case]
    got = hausdorff_distance(first, second, exclusions=exclusions)
    monkeypatch.setattr(oracle, "_directed_distance", _brute_directed_distance)
    want = hausdorff_distance(first, second, exclusions=exclusions)
    assert got == want
    if case == "identical":
        # Zero but for the end of the run, where a + (b - a) need not round to b.
        assert got <= 4 * np.finfo(float).eps


def test_directed_distance_is_exact_point_by_point(rng):
    """The per-point minimum, not only the maximum, equals the all-pairs one."""
    segments = oracle._split_segments(_wiggle(rng, 300))
    points = np.concatenate([_wiggle(rng, 200) * 1.001, rng.uniform(-3.0, 3.0, size=(50, 2))])
    for point in points:
        one = point[None, :]
        assert oracle._directed_distance(one, segments) == _brute_directed_distance(one, segments)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_hausdorff_in_small_chunks(chunk, rng, monkeypatch):
    """Pair runs cut at any size give the same value, down to one point at a time."""
    first, second, _ = _hausdorff_cases(rng)["far_points"]
    want = hausdorff_distance(first, second)
    monkeypatch.setattr(oracle, "_PAIR_CHUNK", chunk)
    assert hausdorff_distance(first, second) == want


def test_aligned_chains_settle_one_round(monkeypatch):
    """On an envelope and its closed form, the proportional-place bounds
    leave one round of 8 points to check against every segment."""
    envelope, closed = _closed_at_midpoints(
        cycloid(1.0), TiltField.reflection(), AngleInterval(0.2, math.pi - 0.2, 4097))
    rows = []
    nearest = oracle._nearest

    def counted(p, a, v, vv):
        rows.append(len(p))
        return nearest(p, a, v, vv)

    monkeypatch.setattr(oracle, "_nearest", counted)
    hausdorff_distance(envelope.points, closed.points, exclusions=_cusp_centres(closed))
    assert rows == [8, 8]


def _closed_at_midpoints(curve, tilt, window):
    """Reference: rays, their envelope, and the closed form at the envelope's
    midpoints, its reconstruction anchored at ``window.lo``."""
    envelope = envelope_numeric(rays_from_tilt(curve, tilt, window))
    grid = np.concatenate(([window.lo], envelope.parameters))
    return envelope, caustic_curve(curve, tilt, grid)[1:]


def _cusp_centres(closed):
    """Midpoints of consecutive closed-form nodes whose caustic radius changes sign."""
    radii, points = closed.caustic_radius, closed.points
    flips = np.flatnonzero(np.sign(radii[:-1]) != np.sign(radii[1:]))
    return 0.5 * (points[flips] + points[flips + 1])


def _node_errors(envelope, closed):
    """Distance between envelope point i and closed-form point i, for every i."""
    return np.sqrt(np.sum((envelope.points - closed.points) ** 2, axis=1))


@pytest.mark.parametrize(
    "curve, tilt, window, n_cusps",
    [
        (circle(1.0), TiltField.reflection(), AngleInterval(0.01, math.pi - 0.01, 801), 1),
        (cycloid(1.0), TiltField.reflection(), AngleInterval(0.2, math.pi - 0.2, 801), 1),
        (log_spiral(1.0, 0.15), TiltField.skew(0.7), AngleInterval(0.0, 3 * math.pi, 801), 0),
    ],
    ids=["circle_reflection", "cycloid_reflection", "log_spiral_skew"],
)
def test_envelope_gap_matches_reference(curve, tilt, window, n_cusps):
    gap = envelope_gap(curve, tilt, window)
    envelope, closed = _closed_at_midpoints(curve, tilt, window)
    assert gap.distance == np.nanmax(_node_errors(envelope, closed))
    assert np.array_equal(gap.envelope.points, envelope.points, equal_nan=True)
    assert np.array_equal(gap.envelope.parameters, envelope.parameters)
    cusps = _cusp_centres(closed)
    assert len(cusps) == n_cusps
    # The nearest-point search with disks around the cusps reads the same value, bit for bit.
    assert gap.distance == hausdorff_distance(envelope.points, closed.points, exclusions=cusps)
    assert gap.distance < 1e-3


def test_envelope_gap_sees_a_sliding_closed_form(monkeypatch):
    """A closed form sampled at slightly wrong parameters stays near the envelope
    as a set, so a nearest-point search misses the slide; corresponding points do not."""
    lo, hi = 0.2, 1.2

    def slid(curve, tilt, grid):
        return caustic_curve(curve, tilt, grid + 1e-3 * np.sin(math.pi * (grid - lo) / (hi - lo)))

    monkeypatch.setattr(oracle, "caustic_curve", slid)
    gap = envelope_gap(circle(1.0), TiltField.reflection(), AngleInterval(lo, hi, 1001))
    assert gap.distance > 1e-4


@pytest.mark.parametrize("n", [251, 1001, 4001])
def test_envelope_gap_holds_through_a_cusp(n, monkeypatch):
    """The cycloid's reflection caustic has a cusp at pi/2, inside the window.  The node
    error next to it stays below the error elsewhere, and no node there is left out:
    moving the closed-form node at the cusp by 1e-3 shows in the gap."""
    curve, tilt = cycloid(1.0), TiltField.reflection()
    window = AngleInterval(0.3, 2.8, n)
    distance, envelope = envelope_gap(curve, tilt, window)
    _, closed = _closed_at_midpoints(curve, tilt, window)
    assert len(_cusp_centres(closed)) == 1
    errors = _node_errors(envelope, closed)
    cusp = int(np.argmin(np.abs(envelope.parameters - math.pi / 2)))
    assert distance < 2 / n
    assert errors[cusp - 2 : cusp + 3].max() < distance

    def nudged(curve, tilt, grid):
        closed = caustic_curve(curve, tilt, grid)
        closed.x[np.argmin(np.abs(grid - math.pi / 2))] += 1e-3
        return closed

    monkeypatch.setattr(oracle, "caustic_curve", nudged)
    assert envelope_gap(curve, tilt, window).distance > 0.9e-3


def test_hausdorff_memory_is_not_quadratic():
    """4097 x 4097 points: all-pairs matrices would take over 100 MB."""
    t = np.linspace(0.0, 2 * math.pi, 4097)
    first = np.column_stack([np.cos(t), np.sin(2 * t)])
    second = first + 1e-4 * np.column_stack([np.sin(5 * t), np.cos(3 * t)])
    tracemalloc.start()
    try:
        hausdorff_distance(first, second)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_hausdorff_chunks_bound_memory_on_a_wide_spiral(monkeypatch):
    """A growing spiral's long outer segments pair with every point; the
    pairs still go through in chunks of ``_PAIR_CHUNK`` (1 << 18), not in
    the occlusion check's larger ones."""
    curve, tilt = log_spiral(1.0189, 0.2480), TiltField.skew(-0.1415)
    window = AngleInterval(0.0, 9.7846, 4097)
    envelope = envelope_numeric(rays_from_tilt(curve, tilt, window))
    closed = caustic_curve(curve, tilt, np.concatenate(([window.lo], envelope.parameters)))
    points = closed.points[1:]
    tracemalloc.start()
    try:
        got = hausdorff_distance(envelope.points, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    monkeypatch.setattr(oracle, "_directed_distance", _brute_directed_distance)
    assert got == hausdorff_distance(envelope.points, points)


def test_verticality_flags():
    arc, _ = circle_points(0.0, math.pi, 101)
    assert verticality_check(arc).is_vertical
    overhang, _ = circle_points(0.0, 1.5 * math.pi, 151)
    verdict = verticality_check(overhang)
    assert not verdict.is_vertical
    assert verdict.first_violation is not None
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    assert not verticality_check(flat).is_vertical


def _scan_verticality(points):
    """Reference: walk the y-steps, fixing the direction at the first one."""
    direction = 0.0
    for i, step in enumerate(np.diff(points[:, 1])):
        if step == 0.0:
            return (False, i)
        if direction == 0.0:
            direction = math.copysign(1.0, step)
        elif math.copysign(1.0, step) != direction:
            return (False, i)
    return (True, None)


def test_verticality_matches_step_scan(rng):
    polylines = [
        circle_points(0.0, math.pi, 101)[0],
        circle_points(0.0, 1.5 * math.pi, 151)[0],
        circle_points(math.pi, 1.9 * math.pi, 64)[0],
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]),
        np.array([[0.0, 3.0], [1.0, 2.0], [0.5, 1.0], [0.2, 1.0]]),
    ] + [rng.normal(size=(n, 2)).cumsum(axis=0) for n in (2, 3, 9, 40)]
    for points in polylines:
        assert tuple(verticality_check(points)) == _scan_verticality(points)


def test_occlusion_flags():
    arc, _ = circle_points(0.0, math.pi, 101)
    clear = occlusion_check(arc)
    assert not clear.has_occlusion
    assert clear.blocked_fraction == 0.0
    overhang, _ = circle_points(0.0, 1.5 * math.pi, 301)
    blocked = occlusion_check(overhang)
    assert blocked.has_occlusion
    assert 0.0 < blocked.blocked_fraction < 1.0
    assert len(blocked.blocked_indices) > 0


def _occlusion_loop(points):
    """Reference: every vertex's ray against every segment, as the check was written first."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = x[:-1], y[:-1]
    x1, y1 = x[1:], y[1:]
    dy = y1 - y0
    safe_dy = np.where(dy == 0.0, 1.0, dy)
    blocked = []
    chunk = max(1, 2_000_000 // max(1, n))
    seg_idx = np.arange(n - 1)
    for lo in range(0, n, chunk):
        yv = y[lo : lo + chunk, None]
        xv = x[lo : lo + chunk, None]
        crosses = (y0[None, :] <= yv) != (y1[None, :] <= yv)
        with np.errstate(invalid="ignore"):
            xhit = x0[None, :] + (yv - y0[None, :]) / safe_dy[None, :] * (x1 - x0)[None, :]
        ahead = xhit < xv - 1e-9
        vidx = np.arange(lo, min(lo + chunk, n))[:, None]
        adjacent = (seg_idx[None, :] == vidx) | (seg_idx[None, :] == vidx - 1)
        hit = crosses & ahead & ~adjacent
        blocked.extend((lo + np.flatnonzero(hit.any(axis=1))).tolist())
    return tuple(blocked), len(blocked) / n


def _assert_occlusion_matches_loop(points):
    got = occlusion_check(points)
    indices, fraction = _occlusion_loop(points)
    assert got.blocked_indices == indices
    assert got.blocked_fraction == fraction
    assert got.has_occlusion == bool(indices)


@pytest.mark.parametrize("profile", ["cycloid_solution", "m2_solution", "m3_solution"])
def test_occlusion_matches_loop_on_mirror_profiles(request, profile):
    solution = request.getfixturevalue(profile)
    curve = solution_curve(solution)
    points = reconstruct(curve, np.linspace(0.0, 4 * math.pi, 2049)).points
    _assert_occlusion_matches_loop(points)
    if profile != "cycloid_solution":
        assert occlusion_check(points).has_occlusion


def test_occlusion_matches_loop_on_awkward_polylines(rng):
    zigzag = np.column_stack([np.arange(12.0) % 3, np.repeat(np.arange(6.0), 2)])  # flat steps
    ties = np.array([[3.0, 0.0], [-1.0, 1.0], [2.0, 1.0], [0.0, 0.0], [5.0, 1.0], [1.0, 0.0]])
    holes = circle_points(0.0, 1.5 * math.pi, 61)[0]
    holes[[0, 7, 8, 30]] = np.nan
    half_holes = holes.copy()
    half_holes[[12, 40], 0] = np.nan  # x missing, y kept
    half_holes[[20], 1] = np.nan
    polylines = [
        zigzag,
        ties,
        holes,
        half_holes,
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([[np.nan, np.nan], [np.nan, np.nan], [0.0, 1.0]]),
        circle_points(0.0, 1.5 * math.pi, 301)[0],
    ]
    for n in (2, 3, 5, 17, 64, 200):
        walk = rng.normal(size=(n, 2)).cumsum(axis=0)
        polylines.append(walk)
        polylines.append(np.round(walk, 0))  # many repeated y values and horizontal segments
        gappy = walk.copy()
        gappy[rng.random(n) < 0.1] = np.nan
        polylines.append(gappy)
    for points in polylines:
        _assert_occlusion_matches_loop(points)
