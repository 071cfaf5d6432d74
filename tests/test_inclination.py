"""Curve reconstruction from the turning radius and its invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from caustics.caustic import TiltField, caustic_curve
from caustics.errors import (
    DegenerateSamplingError,
    DomainError,
    EvaluationError,
    ValidationError,
)
from caustics.inclination import (
    _CUSP_TOL,
    AngleInterval,
    InclinationCurve,
    circle,
    cycloid,
    find_cusps,
    frenet_residual,
    log_spiral,
    polynomial_curve,
    reconstruct,
    _refine_zeros,
)
from caustics.pantograph import (
    PantographSolution,
    parabola_mirror,
    solution_curve,
    solve_series,
)
from caustics.skew import (
    SkewFamilySpec,
    build_family,
    inverse_position_curve,
    puiseux_curve,
)


def test_interval_validation():
    with pytest.raises(ValidationError):
        AngleInterval(1.0, 1.0, 257)
    with pytest.raises(ValidationError):
        AngleInterval(2.0, 1.0, 257)
    with pytest.raises(ValidationError):
        AngleInterval(0.0, 1.0, n_samples=1)
    iv = AngleInterval(0.0, 2.0, 5)
    assert iv.hi - iv.lo == 2.0
    assert np.allclose(iv.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert AngleInterval(0.0, 1.0, np.int64(9)).grid().size == 9


@pytest.mark.parametrize("n_samples", [2.5, float("nan"), "9", True])
def test_interval_rejects_non_integer_sample_counts(n_samples):
    with pytest.raises(ValidationError, match="n_samples must be an integer"):
        AngleInterval(0.0, 1.0, n_samples)


def test_circle_reconstruction_closed_form():
    samples = reconstruct(circle(1.0), AngleInterval(0.0, 2 * math.pi, 257))
    t, pts = samples.theta, samples.points
    assert np.max(np.abs(pts[:, 0] - np.sin(t))) < 1e-10
    assert np.max(np.abs(pts[:, 1] - (1.0 - np.cos(t)))) < 1e-10
    assert np.max(np.abs(samples.arclength - t)) < 1e-10


def test_cycloid_reconstruction_closed_form():
    samples = reconstruct(cycloid(1.0), AngleInterval(0.0, math.pi, 129))
    t, pts = samples.theta, samples.points
    assert np.max(np.abs(pts[:, 0] - np.sin(t) ** 2 / 2)) < 1e-12
    assert np.max(np.abs(pts[:, 1] - (t / 2 - np.sin(2 * t) / 4))) < 1e-12
    assert np.max(np.abs(samples.arclength - (1.0 - np.cos(t)))) < 1e-12


def test_log_spiral_closed_form():
    # R = e^theta: x = (e^t/2)(cos t + sin t) - 1/2, y = (e^t/2)(sin t - cos t) + 1/2
    samples = reconstruct(log_spiral(1.0, 1.0), AngleInterval(0.0, 1.0, 65))
    t, pts = samples.theta, samples.points
    ex = np.exp(t) / 2
    assert np.max(np.abs(pts[:, 0] - (ex * (np.cos(t) + np.sin(t)) - 0.5))) < 1e-12
    assert np.max(np.abs(pts[:, 1] - (ex * (np.sin(t) - np.cos(t)) + 0.5))) < 1e-12
    assert abs(pts[-1, 0] - 1.3780246135473637742) < 1e-12
    assert abs(pts[-1, 1] - 0.90933067363147861703) < 1e-12


def test_entire_curves_reconstruct_past_4pi():
    # Curves with R defined at every angle take any window.
    samples = reconstruct(cycloid(1.0), AngleInterval(0.0, 100.0, 4097))
    assert abs(samples.arclength[-1] - (1.0 - math.cos(100.0))) <= 1e-10
    assert np.max(np.abs(samples.arclength - (1.0 - np.cos(samples.theta)))) <= 1e-10
    ring = reconstruct(circle(2.0), AngleInterval(-20.0, 20.0, 4097))
    centre = ring.points[0] + 2.0 * ring.frame[1][0]
    assert np.max(np.abs(np.hypot(*(ring.points - centre).T) - 2.0)) <= 1e-10


def test_first_sample_is_the_origin():
    # R fixes a curve up to translation; the reconstruction starts at the origin.
    for curve, interval in [
        (circle(1.0), AngleInterval(0.0, 1.0, 17)),
        (log_spiral(2.0, 0.3), AngleInterval(1.5, 4.0, 33)),
    ]:
        samples = reconstruct(curve, interval)
        assert (samples.x[0], samples.y[0]) == (0.0, 0.0)
        assert np.array_equal(samples.points[0], [0.0, 0.0])


def test_tangents_and_normals_are_orthonormal():
    samples = reconstruct(cycloid(), AngleInterval(0.1, 3.0, 33))
    tangents, normals = samples.frame
    for tangent, normal in zip(tangents, normals):
        assert abs(np.dot(tangent, tangent) - 1.0) < 1e-14
        assert abs(np.dot(tangent, normal)) < 1e-14
        cross = tangent[0] * normal[1] - tangent[1] * normal[0]
        assert abs(cross - 1.0) < 1e-14


def test_frenet_residual_small_on_smooth_arc():
    samples = reconstruct(log_spiral(1.0, 0.3), AngleInterval(0.0, 2.0, 513))
    assert frenet_residual(samples) < 1e-4


def test_frenet_residual_rejects_degenerate_input():
    samples = reconstruct(circle(), AngleInterval(0.0, 1.0, 17))
    with pytest.raises(DegenerateSamplingError):
        frenet_residual(samples[:2])


def test_find_cusps_cycloid():
    cusps = find_cusps(cycloid(1.0), AngleInterval(-0.5, 3 * math.pi + 0.5, 257))
    assert len(cusps) == 4
    for got, want in zip(cusps, [0.0, math.pi, 2 * math.pi, 3 * math.pi]):
        assert abs(got - want) < 1e-9


def test_touching_zero_is_not_a_cusp():
    curve = InclinationCurve(
        jet=lambda t: (np.asarray(t, dtype=float) ** 2, 2.0 * np.asarray(t, dtype=float)),
        label="touch",
    )
    window = AngleInterval(-1.0, 1.0, 41)
    # R touches zero at the grid node 0.0 without changing sign.
    assert np.sign(curve.jet(window.grid())[0][19:22]).tolist() == [1.0, 0.0, 1.0]
    assert find_cusps(curve, window) == []


def test_non_finite_radius_derivative_is_an_error():
    def jet(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            slope = 0.5 / np.sqrt(np.abs(t))
        return 1.0 + np.sqrt(np.abs(t)), np.where(t < 0, -slope, slope)

    curve = InclinationCurve(jet=jet, label="kink")
    window = AngleInterval(-1.0, 1.0, 5)
    slopes = jet(window.grid())[1].tolist()
    assert slopes[1:4] == [-1 / math.sqrt(2), math.inf, 1 / math.sqrt(2)]
    with pytest.raises(EvaluationError, match=r"R' is not finite at theta = 0\.0$"):
        reconstruct(curve, window)
    with pytest.raises(EvaluationError, match=r"R' is not finite at theta = 0\.0$"):
        caustic_curve(curve, TiltField.skew(0.3), window)


def test_overflowing_jet_is_an_error_under_warnings_as_errors():
    # exp(1000 theta) overflows past theta = 0.7098; the node 0.75 is the first.
    curve = log_spiral(1.0, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (reconstruct, find_cusps):
            with pytest.raises(EvaluationError, match=r"R is not finite at theta = 0\.75$"):
                fn(curve, AngleInterval(0.0, 1.0, 5))


def test_zero_run_past_half_the_float_range_is_one_cusp_at_its_node():
    # R = theta - 1.2e308 is zero at the middle node; the run's two ends sum past the floats.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cusps = find_cusps(polynomial_curve([-1.2e308, 1.0]), [1e308, 1.2e308, 1.4e308])
    assert cusps == [1.2e308]


def test_endpoint_zeros_are_not_cusps():
    assert find_cusps(cycloid(1.0), AngleInterval(0.0, math.pi, 65)) == []


def _inverse(t):
    t = np.asarray(t, dtype=float)
    return 1.0 / t, -1.0 / t**2


def test_pole_guard_clips_and_blocks():
    curve = InclinationCurve(jet=_inverse, label="pole", poles=(0.0,))
    samples = reconstruct(curve, AngleInterval(0.0, 1.0, 33))
    assert samples.theta[0] >= 1e-6
    with pytest.raises(DomainError, match="pole at theta = 0"):
        reconstruct(curve, AngleInterval(-1.0, 1.0, 33))


def test_reconstruct_rejects_interval_outside_domain():
    arc = dataclasses.replace(cycloid(), domain=(0.0, 10.0))
    with pytest.raises(DomainError, match=r"100\.0 leaves the curve domain \[0\.0, 10\.0\]"):
        reconstruct(arc, AngleInterval(0.0, 100.0, 17))


@pytest.mark.parametrize(
    "domain",
    [AngleInterval(0.0, 1.0, 9), (1.0, 0.0), (math.nan, 1.0), (0.0, 0.0), (0.0,), "01"],
    ids=["interval", "reversed", "nan", "empty", "one_end", "text"],
)
def test_bad_domain_is_validation_error_at_construction(domain):
    with pytest.raises(ValidationError, match="domain"):
        InclinationCurve(jet=cycloid().jet, domain=domain)


def test_domains_in_use_build_as_float_pairs():
    solution = PantographSolution(solve_series(1, n_max=30))
    for curve in (cycloid(), parabola_mirror(1.0), solution_curve(solution),
                  InclinationCurve(jet=cycloid().jet, domain=(0, np.float64(math.inf)))):
        lo, hi = curve.domain
        assert type(lo) is float and type(hi) is float and lo < hi
    assert cycloid().domain == (-math.inf, math.inf)
    assert parabola_mirror(1.0).domain == (0.0, math.pi)
    assert solution_curve(solution).domain == (0.0, solution.max_theta)


def test_reconstruct_accepts_explicit_grid():
    grid = np.array([0.0, 0.3, 1.1, 2.0])
    samples = reconstruct(circle(), grid)
    assert samples.theta.tolist() == list(grid)
    with pytest.raises(ValidationError):
        reconstruct(circle(), np.array([0.0, 0.5, 0.5, 1.0]))


def test_non_finite_grid_is_validation_error():
    grid = [0.0, math.nan, 1.0]
    for call in (lambda: reconstruct(circle(), grid), lambda: find_cusps(cycloid(), grid),
                 lambda: caustic_curve(circle(), TiltField.reflection(), grid)):
        with pytest.raises(ValidationError, match="finite"):
            call()


@pytest.mark.parametrize("make", [circle, lambda: polynomial_curve([1])],
                         ids=["closed_form", "quadrature"])
def test_grid_too_narrow_for_its_samples_is_one_validation_error(make):
    # 1 + 4.5e-16 rounds to 1 + 2 ulp, so 9 equispaced angles on it repeat; both position
    # paths refuse them before either runs.
    interval = AngleInterval(1, 1 + 4.5e-16, 9)
    messages = set()
    for call in (lambda: reconstruct(make(), interval), lambda: find_cusps(make(), interval),
                 lambda: caustic_curve(make(), TiltField.reflection(), interval)):
        with pytest.raises(ValidationError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {"9 angles on [1.0, 1.0000000000000004] do not increase"}


# One curve from each construction site, with a window of interior angles.
JET_SITES = {
    "circle": (lambda: circle(1.5), (-3.0, 3.0)),
    "cycloid": (lambda: cycloid(0.7), (-3.0, 3.0)),
    "log_spiral": (lambda: log_spiral(1.2, 0.3), (-3.0, 3.0)),
    "polynomial": (lambda: polynomial_curve([1.0, -0.5, 0.25, 0.1]), (-3.0, 3.0)),
    "inverse_trig": (lambda: inverse_position_curve(1.0, 0.5, 1.2, 0.3), (-3.0, 3.0)),
    "inverse_linear": (
        lambda: inverse_position_curve(1.0, 0.5, math.sin(0.6), 0.6), (-3.0, 3.0)
    ),
    "inverse_hyperbolic": (lambda: inverse_position_curve(1.0, 0.5, 0.1, 0.6), (-3.0, 3.0)),
    "delay": (
        lambda: build_family(
            SkewFamilySpec("delay", 0.3, 0.9, alpha=0.8, root_indices=(0, 1),
                           coefficients=((1.0, 0.0), (0.5, 0.3)))
        ),
        (-3.0, 3.0),
    ),
    "puiseux": (lambda: puiseux_curve(0.2, 3.0), (-3.0, 3.0)),
    "parabola": (lambda: parabola_mirror(1.0), (0.3, 2.8)),
    "pantograph": (lambda: solution_curve(PantographSolution(solve_series(1))), (0.2, 12.0)),
}


@pytest.mark.parametrize("site", sorted(JET_SITES))
def test_jet_derivative_matches_difference_of_radius(site):
    make, (lo, hi) = JET_SITES[site]
    curve = make()
    t = np.linspace(lo, hi, 41)
    rp = curve.jet(t)[1]
    radius = lambda u: curve.jet(u)[0]
    h = 1e-3
    fd = (radius(t - 2 * h) - 8 * radius(t - h) + 8 * radius(t + h) - radius(t + 2 * h)) / (
        12 * h
    )
    assert np.max(np.abs(fd - rp)) <= 1e-7 * np.max(np.abs(rp))


def test_curve_samples_slice_keeps_radius_prime():
    samples = reconstruct(cycloid(2.0), AngleInterval(0.0, 3.0, 31))
    np.testing.assert_array_equal(samples.radius_prime, 2.0 * np.cos(samples.theta))
    part = samples[3:9]
    np.testing.assert_array_equal(part.radius_prime, samples.radius_prime[3:9])
    masked = samples[samples.radius > 1.0]
    np.testing.assert_array_equal(masked.radius_prime, samples.radius_prime[samples.radius > 1.0])
    for key in (0, -1, np.int64(3)):
        with pytest.raises(TypeError, match="column"):
            samples[key]


def test_constructor_validation():
    with pytest.raises(ValidationError):
        cycloid(0.0)
    with pytest.raises(ValidationError):
        log_spiral(0.0)
    with pytest.raises(ValidationError):
        polynomial_curve([])
    with pytest.raises(ValidationError):
        polynomial_curve([0.0, 0.0])


def _scalar_cusps(curve, interval, refine_tol=1e-12):
    """Reference: one scalar bisection per sign-change bracket, plus grid zeros."""

    def bisect(lo, hi):
        flo = float(curve.jet(np.array([lo]))[0][0])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= refine_tol:
                return mid
            fmid = float(curve.jet(np.array([mid]))[0][0])
            if fmid == 0.0:
                return mid
            if (flo < 0) != (fmid < 0):
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi)

    grid = interval.grid()
    sign = np.sign(curve.jet(grid)[0])
    cusps = []
    for i in range(len(grid) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            cusps.append(bisect(grid[i], grid[i + 1]))
    for i in range(1, len(grid) - 1):
        if sign[i] == 0 and sign[i - 1] * sign[i + 1] < 0:
            cusps.append(float(grid[i]))
    return sorted(cusps)


@pytest.mark.parametrize(
    "curve, interval",
    [
        (cycloid(1.0), AngleInterval(-4 * math.pi, 4 * math.pi, 1025)),
        (puiseux_curve(0.2, 3.0), AngleInterval(-8 * math.pi, 8 * math.pi, 2049)),
    ],
    ids=["cycloid", "puiseux"],
)
def test_batched_cusp_bisection_matches_scalar_bisection(curve, interval):
    got = find_cusps(curve, interval)
    want = _scalar_cusps(curve, interval)
    assert len(got) == len(want) > 0
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12


def _counted(curve):
    """The curve with its jet wrapped to record each call's size."""
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return curve.jet(t)

    return dataclasses.replace(curve, jet=counted), calls


# The k = 1 mirror's cusps on [0, 12 pi], as float.hex, at n_max 30 and 60.
MIRROR_K1_CUSPS = {
    30: ("0x1.c036cebd20d32p+1 0x1.b4aee5ece9790p+2 0x1.36ae332e32354p+3 0x1.abc5c7fc58482p+3 "
         "0x1.ffa3e0603d6b8p+3 0x1.3467bce550b0ep+4 0x1.63ee603603a6ep+4 0x1.a4ba79ce87edap+4 "
         "0x1.ca2c2ca6cc3d8p+4 0x1.fd63810c1f7bcp+4 0x1.16209040fea1cp+5"),
    60: ("0x1.c036cebd20d34p+1 0x1.b4aee5ece9790p+2 0x1.36ae332e31548p+3 0x1.abc5c7fc5857ep+3 "
         "0x1.ffa3e0603d582p+3 0x1.3467bce5500a2p+4 0x1.63ee6035fed5ap+4 0x1.a4ba79ce87edap+4 "
         "0x1.ca2c2ca6cc3d6p+4 0x1.fd63810c1f790p+4 0x1.16209040fe9e8p+5"),
}


# Per (k, n_max), the size of each radius call in that search: the grid, then three points per
# live bracket.
MIRROR_CALL_SIZES = {
    (0, 30): [513, 33, 24, 24], (0, 60): [513, 33, 24, 24],
    (1, 30): [513, 33, 33, 33, 24], (1, 60): [513, 33, 33, 33, 24],
    (2, 30): [513, 33, 33, 33, 27], (2, 60): [513, 33, 33, 33, 27],
}


@pytest.mark.parametrize("k, n_max", MIRROR_CALL_SIZES)
def test_cusp_refinement_takes_few_radius_calls(k, n_max):
    curve = solution_curve(PantographSolution(solve_series(k, n_max=n_max)))
    counted, calls = _counted(curve)
    cusps = find_cusps(counted, AngleInterval(0.0, 12 * math.pi, 513))
    assert len(cusps) == 11
    # One grid pass, then at most five secant steps that a squeeze pair closes.
    assert len(calls) <= 6
    assert calls == MIRROR_CALL_SIZES[k, n_max]
    if k == 1:
        assert " ".join(c.hex() for c in cusps) == MIRROR_K1_CUSPS[n_max]


def _pole(x):
    with np.errstate(divide="ignore"):
        return 1.0 / (x - 0.3), -1.0 / (x - 0.3) ** 2


def _cube_root(x):
    with np.errstate(divide="ignore"):
        return np.cbrt(x - 0.3), 1.0 / (3.0 * np.cbrt(x - 0.3) ** 2)


# (jet, grid, exact root or None): each grid holds exactly one sign change.
HARD_ZEROS = {
    "cube": (lambda x: ((x - 0.3) ** 3, 3.0 * (x - 0.3) ** 2), np.linspace(-1.0, 1.0, 8), 0.3),
    "ninth_power": (
        lambda x: ((x - 0.3) ** 9, 9.0 * (x - 0.3) ** 8), np.linspace(-1.0, 1.0, 8), 0.3
    ),
    "pole": (_pole, np.linspace(-1.0, 1.0, 8), 0.3),
    "tan": (lambda x: (np.tan(x), 1.0 / np.cos(x) ** 2), np.linspace(1.0, 2.0, 4), None),
    "step": (
        lambda x: (np.where(x < 0.3, -1.0, 1.0), np.zeros_like(x)), np.linspace(-1.0, 1.0, 8), 0.3
    ),
    "cube_root": (_cube_root, np.linspace(-1.0, 1.0, 8), 0.3),
    "steep_exponential": (
        lambda x: (np.exp(40.0 * (x - 0.3)) - 1.0, 40.0 * np.exp(40.0 * (x - 0.3))),
        np.linspace(-1.0, 1.0, 8),
        None,
    ),
    "flat_then_linear": (
        lambda x: (np.where(x < 0.3, -1e-9, x - 0.3 - 1e-9), np.where(x < 0.3, 0.0, 1.0)),
        np.linspace(-1.0, 1.0, 8),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(HARD_ZEROS))
def test_hard_zeros_stay_within_the_bisection_budget(name):
    jet, grid, root = HARD_ZEROS[name]
    fn = lambda x: jet(x)[0]
    tol = _CUSP_TOL
    curve = InclinationCurve(jet=lambda t: jet(np.asarray(t, dtype=float)), label=name)
    counted, calls = _counted(curve)
    (z,) = find_cusps(counted, grid)
    width = grid[1] - grid[0]
    assert len(calls) - 1 <= math.ceil(math.log2(width / tol)) + 2
    if root is not None:
        assert abs(z - root) <= tol / 2
    else:
        assert np.sign(fn(np.array(z - 0.51 * tol))) != np.sign(fn(np.array(z + 0.51 * tol)))


# The families-style puiseux draw's 33 cusps on [-8 pi, 8 pi], as float.hex.
PUISEUX_DRAW_CUSPS = (
    "-0x1.8e2476a3e6ec8p+4 -0x1.75422f39a87e2p+4 -0x1.5c5fe7cf6a0fap+4 -0x1.437da0652b992p+4 "
    "-0x1.2a9b58faed2aap+4 -0x1.11b91190aec40p+4 -0x1.f1ad944ce0aaep+3 -0x1.bfe9057863cdap+3 "
    "-0x1.8e2476a3e6efep+3 -0x1.5c5fe7cf6a114p+3 -0x1.2a9b58faed358p+3 -0x1.f1ad944ce0b10p+2 "
    "-0x1.8e2476a3e6f74p+2 -0x1.2a9b58faed3dcp+2 -0x1.8e2476a3e7082p+1 -0x1.8e2476a3e7282p+0 "
    "0x0.0p+0 0x1.8e2476a3e7282p+0 0x1.8e2476a3e6c92p+1 0x1.2a9b58faed1eep+2 "
    "0x1.8e2476a3e6d9ap+2 0x1.f1ad944ce095ap+2 0x1.2a9b58faed2a0p+3 0x1.5c5fe7cf6a04cp+3 "
    "0x1.8e2476a3e6e1cp+3 0x1.bfe9057863beap+3 0x1.f1ad944ce09b6p+3 0x1.11b91190aebc2p+4 "
    "0x1.2a9b58faed2aap+4 0x1.437da0652b9fap+4 0x1.5c5fe7cf6a0fap+4 0x1.75422f39a8764p+4 "
    "0x1.8e2476a3e6e4ep+4"
)


def test_puiseux_draw_refines_in_few_calls():
    # A families-style draw: 33 brackets, all refined in four secant steps.
    counted, calls = _counted(puiseux_curve(-0.184, 2.02))
    cusps = find_cusps(counted, AngleInterval(-8 * math.pi, 8 * math.pi, 257))
    assert len(cusps) == 33
    placement = np.array(cusps) - np.round(np.array(cusps) * 2.02 / math.pi) * math.pi / 2.02
    assert np.max(np.abs(placement)) <= 1e-12
    assert len(calls) <= 6
    assert calls == [257, 96, 96, 96, 96]
    assert " ".join(c.hex() for c in cusps) == PUISEUX_DRAW_CUSPS


def test_refine_tol_below_float_spacing_stops_at_adjacent_floats():
    # find_cusps' own brackets, refined to a width no float spacing reaches.
    counted, calls = _counted(cycloid(1.0))
    grid = AngleInterval(0.5, 7.0, 65).grid()
    r = counted.jet(grid)[0]
    i = np.flatnonzero(np.sign(r[:-1]) != np.sign(r[1:]))
    fn = lambda t: counted.jet(t)[0]
    cusps = _refine_zeros(fn, grid[i], grid[i + 1], r[i], r[i + 1], 1e-300)
    assert cusps.tolist() == [math.pi, 2 * math.pi]
    # The budget at 1e-300 is about a thousand calls; adjacent ends stop first.
    assert len(calls) <= 24


def test_sign_change_across_a_run_of_zero_nodes_is_one_cusp():
    def jet(t):
        t = np.asarray(t, dtype=float)
        zero = np.abs(t - 1.0) <= 0.1
        return np.where(zero, 0.0, t - 1.0), np.where(zero, 0.0, 1.0)

    def touching_jet(t):
        r, rp = jet(t)
        return np.abs(r), np.sign(r) * rp

    curve = InclinationCurve(jet=jet, label="run")
    window = AngleInterval(0.0, 2.0, 21)
    grid = window.grid()
    assert np.sign(jet(grid[8:12])[0]).tolist() == [-1.0, 0.0, 0.0, 1.0]
    assert find_cusps(curve, window) == [0.5 * (grid[9] + grid[10])]
    touching = dataclasses.replace(curve, jet=touching_jet)
    assert np.sign(touching_jet(grid[8:12])[0]).tolist() == [1.0, 0.0, 0.0, 1.0]
    assert find_cusps(touching, window) == []
