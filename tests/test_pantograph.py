"""Series mirrors, doubling continuation and the feasibility report."""

import dataclasses
import functools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from caustics import pantograph, specfun
from caustics.cli import main
from caustics.caustic import (
    CUSP, OK, SimilaritySpec, TiltField, caustic_curve, caustic_radius, similarity_residual)
from caustics.errors import (
    DegenerateCurveError,
    DomainError,
    JetDepthError,
    NumericError,
    PoleError,
    ResonanceError,
    ValidationError,
)
from caustics.inclination import (
    POLE_GUARD,
    AngleInterval,
    InclinationCurve,
    find_cusps,
    reconstruct,
)
from caustics.pantograph import (
    BASE_GUARD,
    JET_ORDER,
    PantographSolution,
    continue_R,
    mirror_equation_residual,
    mirror_report,
    overlay_caustic_points,
    parabola_mirror,
    similarity_factor,
    solution_curve,
    solve_series,
)
from caustics.specfun import tan_coeffs


def test_similarity_factor_exact_values():
    assert similarity_factor(0) == Fraction(1, 2)
    assert similarity_factor(1) == Fraction(5, 16)
    assert similarity_factor(2) == Fraction(3, 16)
    assert similarity_factor(-1) == Fraction(3, 4)
    assert similarity_factor(-3) == Fraction(1, 1)


def test_similarity_factor_rejections():
    with pytest.raises(ValidationError, match="parabola"):
        similarity_factor(-4)
    with pytest.raises(ValidationError):
        similarity_factor(-5)
    with pytest.raises(ValidationError):
        similarity_factor(2.5)  # type: ignore[arg-type]
    with pytest.raises(ValidationError):
        similarity_factor(True)  # type: ignore[arg-type]


def test_cycloid_series_is_trivial():
    series = solve_series(0, n_max=12, exact=True)
    assert series.factor_a == 0.5
    assert series.exact[0] == 1
    assert all(c == 0 for c in series.exact[1:])


def test_m2_series_exact_coefficients():
    series = solve_series(1, n_max=30, exact=True)
    assert series.exact[0] == 1
    assert series.exact[2] == Fraction(1, 39)
    coeffs = np.asarray(series.coefficients)
    # indices 1, 3, 5, ... hold theta^2, theta^4, ...: the wrong parity
    assert np.all(coeffs[1::2] == 0.0)
    assert np.all(coeffs[0::2] > 0.0)


def test_m2_coefficients_decay_bound():
    series = solve_series(1, n_max=30)
    n = np.asarray(series.powers(), dtype=float)
    scaled = np.abs(np.asarray(series.coefficients)) * (math.pi / 2) ** n
    assert np.all(scaled <= 2.0)
    assert scaled[-1] < scaled[0]


def test_resonant_order_needs_secondary():
    with pytest.raises(ResonanceError):
        solve_series(-3, n_max=8)
    series = solve_series(-3, n_max=8, secondary=0.25, exact=True)
    assert series.coefficients[-3 - series.k] == 1.0
    assert series.coefficients[-2 - series.k] == 0.25
    with pytest.raises(ValidationError):
        solve_series(1, n_max=8, secondary=0.25)


@functools.cache
def _reference_series(k, n_max, leading, secondary):
    """The coefficient recursion run from scratch for one seed pair (cached: a tuple)."""
    a = similarity_factor(k)
    tau = tan_coeffs(max(1, (n_max - k) // 2 + 1)).exact
    coeffs = {k: Fraction(leading)}
    for n in range(k + 1, n_max + 1):
        den = Fraction(2) ** (n + 3) * a - n - 4
        num = Fraction(0)
        i = 1
        while n - 2 * i >= k:
            num += tau[i] * (n - 2 * i) * coeffs[n - 2 * i]
            i += 1
        if den == 0:
            assert k == -3 and n == -2
            coeffs[n] = Fraction(secondary)
            continue
        assert den > 0
        coeffs[n] = num / den
    return tuple(coeffs[n] for n in range(k, n_max + 1))


@pytest.mark.parametrize("orders", [(6, 23, 41), (41, 23, 6)], ids=["ascending", "descending"])
def test_solve_series_matches_reference_recursion(monkeypatch, orders):
    monkeypatch.setattr(pantograph, "_UNIT_SERIES", {})
    for n_max in orders:
        for k in range(-3, 6):
            if k == -3:
                with pytest.raises(ResonanceError):
                    solve_series(k, n_max=n_max)
            for leading in (1, 0.1, -2.3, 1e-300):
                for secondary in (0.25, -1.5) if k == -3 else (None,):
                    got = solve_series(k, n_max, leading, secondary, exact=True)
                    want = _reference_series(k, n_max, leading, secondary)
                    assert got.exact == want, (k, n_max, leading, secondary)
                    floats = np.array([float(c) for c in want])
                    assert got.coefficients.tobytes() == floats.tobytes()
    # Extend the warm basis from order 41 to 120 in one call.
    for k in (-2, 1, 3):
        got = solve_series(k, 120, exact=True)
        want = _reference_series(k, 120, 1, None)
        assert got.exact == want, k
        assert got.coefficients.tobytes() == np.array([float(c) for c in want]).tobytes()


def test_recursion_denominators_vanish_only_at_the_resonance():
    # With m = n - k, 2^(n+3) a - n - 4 = (k+4)(2^m - 1) - m: at least 2^m - 1 - m >= 0 for
    # k >= -3, and 0 only for k = -3, m = 1, so the recursion divides by a positive number.
    for k in range(-3, 61):
        a = similarity_factor(k)
        for m in range(1, 201):
            n = k + m
            den = Fraction(2) ** (n + 3) * a - n - 4
            assert den == (k + 4) * (2**m - 1) - m
            assert den > 0 or (k, m, den) == (-3, 1, 0), (k, n)


def test_concurrent_callers_extend_the_basis_once(monkeypatch):
    orders = (7, 31, 15, 40, 23, 9, 36, 12)
    want = {n_max: _reference_series(2, n_max, 1, None) for n_max in orders}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(pantograph, "_UNIT_SERIES", {})
            monkeypatch.setattr(specfun, "_TAN_EXACT", [])
            results = {}
            start = threading.Barrier(len(orders))

            def work(n_max):
                start.wait(timeout=60)
                results[n_max] = solve_series(2, n_max, exact=True).exact

            threads = [threading.Thread(target=work, args=(n,)) for n in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(k=1, leading=math.nan),
         "the leading coefficient a_k must be a finite real number, got nan"),
        (dict(k=1, leading=math.inf),
         "the leading coefficient a_k must be a finite real number, got inf"),
        (dict(k=-3, secondary=math.nan),
         "the secondary coefficient a_{-2} must be a finite real number, got nan"),
        (dict(k=1, n_max="30"), "n_max must be an integer, got '30'"),
        (dict(k=1, n_max=30.5), "n_max must be an integer, got 30.5"),
        (dict(k=1, n_max=True), "n_max must be an integer, got True"),
    ],
)
def test_solve_series_rejects_bad_numbers(kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        solve_series(**kwargs)


def test_base_window_jet_matches_cycloid():
    series = solve_series(0, n_max=30)
    for t in np.linspace(0.0, math.pi / 2 - 1e-3, 20):
        # Taylor row j times j! is the j-th derivative.
        jet = pantograph._r_taylor(series, np.array([t]), [1] * 3)[:, 0] * [1.0, 1.0, 2.0]
        assert abs(jet[0] - math.sin(t)) < 1e-14
        assert abs(jet[1] - math.cos(t)) < 1e-13
        assert abs(jet[2] + math.sin(t)) < 1e-12


def test_q_derivatives_finite_at_origin():
    series = solve_series(0, n_max=12)
    rows = pantograph._q_taylor(series, np.array([0.0]), [1] * 4)[:, 0]
    values = rows * [1.0, 1.0, 2.0, 6.0]  # row j times j!
    assert np.all(np.isfinite(values))


def test_continuation_reproduces_cycloid(cycloid_solution):
    t = np.linspace(0.0, 4 * math.pi, 401)
    r, rp = continue_R(cycloid_solution, t)
    assert np.max(np.abs(r - np.sin(t))) < 1e-12
    assert np.max(np.abs(rp - np.cos(t))) < 1e-12


def test_continuation_domain_limits(cycloid_solution):
    with pytest.raises(ValidationError):
        continue_R(cycloid_solution, -0.5)
    with pytest.raises(JetDepthError):
        continue_R(cycloid_solution, cycloid_solution.max_theta * 2.1)


def test_m2_frozen_values(m2_solution):
    r_pi, _ = continue_R(m2_solution, math.pi)
    assert abs(r_pi - 1.0333160412092028) < 1e-12


def test_m2_first_zero(m2_report):
    assert abs(m2_report.zeros[0] - 3.5016725944021463) < 1e-9


def test_doubling_identity_links_caustic_to_overlay(m2_solution):
    t = np.linspace(0.1, 2.0, 77)
    r, rp = continue_R(m2_solution, t)
    r2, _ = continue_R(m2_solution, 2.0 * t)
    a = m2_solution.series.factor_a
    caustic_r = 0.25 * (3.0 * np.cos(t) * r + np.sin(t) * rp)
    assert np.max(np.abs(caustic_r - a * r2)) < 1e-10


def test_equation_residuals(m2_solution, m3_solution, cycloid_solution):
    interval = AngleInterval(0.01, 2 * math.pi, 257)
    for sol in (cycloid_solution, m2_solution, m3_solution):
        assert mirror_equation_residual(sol, interval) < 1e-8


@pytest.mark.parametrize("n_max, bound", [(30, 1e-9), (60, 1e-13)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_reflection_caustic_is_the_homothety(monkeypatch, k, n_max, bound):
    # The figure's caustic comes from the mirror's own R and R', at positions from the
    # doubling law; the paper's homothety a r(2 theta) + (1 - a) r(0) is reconstructed
    # independently, by the quadrature, so the law is never compared with itself.
    laws = []
    law = pantograph._doubling_law

    def counted(curve, theta):
        laws.append(theta.size)
        return law(curve, theta)

    monkeypatch.setattr(pantograph, "_doubling_law", counted)
    solution = PantographSolution(solve_series(k, n_max=n_max))
    curve = solution_curve(solution)
    windows = (AngleInterval(0.0, 2 * math.pi, 513).grid(), np.linspace(0.05, 3 * math.pi, 200))
    for grid in windows:
        caus = caustic_curve(curve, TiltField.reflection(), np.union1d([0.0], grid))
        assert caus.source.theta[0] == 0.0 and caus.flag[0] == CUSP
        assert np.all(caus.flag[1:] == OK)
        want = overlay_caustic_points(solution, caus.source.theta[1:])
        scale = np.max(np.linalg.norm(caus.source.points, axis=1))
        assert np.max(np.abs(caus.points[1:] - want)) < bound * scale
    assert laws == [513, 201]


def test_overlay_points_match_closed_form(cycloid_solution):
    thetas = np.array([0.3, 0.7, 1.1])
    pts = overlay_caustic_points(cycloid_solution, thetas)
    want_x = np.sin(2 * thetas) ** 2 / 4
    want_y = thetas / 2 - np.sin(4 * thetas) / 8
    assert np.max(np.abs(pts[:, 0] - want_x)) < 1e-9
    assert np.max(np.abs(pts[:, 1] - want_y)) < 1e-9


def test_cycloid_report_is_regular(cycloid_report):
    assert max(abs(d) for d in cycloid_report.zero_deviations) < 1e-9
    assert cycloid_report.collinearity_residual < 1e-10
    assert abs(cycloid_report.rho_min - 1.0) < 1e-10
    assert abs(cycloid_report.rho_max - 1.0) < 1e-10
    assert not cycloid_report.q_has_pole
    assert cycloid_report.is_vertical
    assert not cycloid_report.has_occlusion


def test_m2_report_shows_infeasibility(m2_report):
    assert min(abs(d) for d in m2_report.zero_deviations) > 0.1
    assert m2_report.rho_spread > 1e-3
    assert m2_report.q_has_pole
    assert not m2_report.is_vertical
    assert m2_report.has_occlusion
    assert m2_report.collinearity_residual > 1e-3


def test_m3_collinearity_exceeds_cycloid(m3_report, cycloid_report, m2_report):
    assert m3_report.collinearity_residual > cycloid_report.collinearity_residual
    assert m3_report.collinearity_residual > m2_report.collinearity_residual


@pytest.mark.parametrize("name", ["cycloid", "m2", "m3"])
def test_report_point_sets_are_arrays(name, request, law_gap):
    solution = request.getfixturevalue(f"{name}_solution")
    report = request.getfixturevalue(f"{name}_report")
    mirror, caustic, line = (
        report.mirror_cusp_points,
        report.caustic_cusp_points,
        report.collinearity_points,
    )
    for pts in (mirror, caustic, line):
        assert isinstance(pts, np.ndarray) and pts.dtype == float
        assert pts.ndim == 2 and pts.shape[1] == 2
    assert len(mirror) == len(report.zeros) and len(line) == 5
    a = solution.series.factor_a
    assert np.array_equal(caustic, a * mirror + (1 - a) * line[0])
    # The report's positions come from reconstruct, once, on its grid, by the doubling law,
    # within its accuracy gate of the quadrature split at the seams.
    grid = _report_grid(solution)
    samples = reconstruct(solution_curve(solution), grid)
    at_zeros = samples.points[np.searchsorted(samples.theta, report.zeros)]
    assert np.array_equal(mirror, at_zeros)
    assert law_gap(solution, grid, (samples.x, samples.y, samples.arclength)) <= 1.0


def _report_grid(solution):
    """``mirror_report``'s default grid: its even grid merged with 0 and every
    sign change below far = 8pi + 4pi."""
    far = 2 * (4 * math.pi) + 4 * math.pi
    cusps = find_cusps(solution_curve(solution), AngleInterval(0.0, far, 513))
    return np.union1d(np.linspace(0.0, 4 * math.pi, 2049), [0.0, *cusps])


def test_mirror_samples_climb_each_chain_once(monkeypatch):
    # Past the quadrature of the series window, the law takes R from one base jet per
    # distinct base angle, the seams' w / 2 and w included: 1 165 for the 2 060 grid
    # angles of the k = 1 report, down to depth 5, whose chains hold 4 292 angles.  The
    # quadrature asks continue_R for its inner nodes only.
    solution = PantographSolution(solve_series(1, n_max=30))
    grid = _report_grid(solution)
    depth = pantograph._depth(solution, grid)
    w = math.pi / 2 - BASE_GUARD
    bases = np.union1d(grid / 2.0 ** depth, [0.5 * w, w])
    jets, inside, continued = [], [], []
    r_taylor, integrate, continue_r = (
        pantograph._r_taylor, pantograph._integrate, pantograph.continue_R)

    def counted(series, u, reach):
        if not inside:
            jets.append(u.size)
        return r_taylor(series, u, reach)

    def quadrature(*args):
        inside.append(True)
        try:
            return integrate(*args)
        finally:
            inside.pop()

    def counted_continuation(solution, theta):
        continued.append(np.size(theta))
        return continue_r(solution, theta)

    monkeypatch.setattr(pantograph, "_r_taylor", counted)
    monkeypatch.setattr(pantograph, "_integrate", quadrature)
    monkeypatch.setattr(pantograph, "continue_R", counted_continuation)
    samples = reconstruct(solution_curve(solution), grid)
    assert jets == [bases.size] == [1165]
    assert continued == [3 * (bases.size - 1)]
    assert len(samples) == grid.size == 2060
    assert int(depth.max()) == 5


@pytest.mark.parametrize("n_max", [30, 60], ids=["30-1e-09", "60-1e-12"])  # ids kept stable
@pytest.mark.parametrize("k", [0, 1, 2])
def test_mirror_samples_match_generic_reconstruction(k, n_max, law_gap):
    # The doubling law against quadrature of the continued R split at the seams, on the
    # report's grid, on a grid whose first node (put at the origin by both) is above 0, and
    # on the depth seams (pi/2 - guard) 2^j and their neighbouring floats, where the base
    # angle jumps from the top of the series window to half of it.  R and R' are
    # continue_R's own, bit for bit.
    solution = PantographSolution(solve_series(k, n_max=n_max))
    seams = (math.pi / 2 - BASE_GUARD) * 2.0 ** np.arange(6)
    grids = (
        _report_grid(solution),
        np.linspace(0.3, 6 * math.pi, 700),
        np.union1d(
            [0.0, 0.5, 13 * math.pi],
            np.concatenate([seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)]),
        ),
    )
    curve = solution_curve(solution)
    for grid in grids:
        got = reconstruct(curve, grid)
        r, rp = continue_R(solution, grid)
        assert np.array_equal(got.theta, grid)
        assert np.array_equal(got.radius, r) and np.array_equal(got.radius_prime, rp)
        assert law_gap(solution, grid, (got.x, got.y, got.arclength)) <= 1.0


def _law_draw(rng):
    """A family k in -3..3, with a secondary coefficient in [-2, 2] for k = -3, an order 30, 60
    or 120, and a grid reaching doubling depth 0-11 from 0 or from above it, with every seam
    inside and its neighbouring floats.  Where k < 0, Q has its pole at 0, and a grid that
    would start below 2 POLE_GUARD starts there."""
    k, order, top = int(rng.integers(-3, 4)), int(rng.choice([30, 60, 120])), int(rng.integers(12))
    secondary = rng.uniform(-2.0, 2.0) if k == -3 else None
    hi = (math.pi / 2 - BASE_GUARD) * 2.0 ** (top - rng.uniform(0.0, 1.0))
    lo = 0.0 if rng.uniform() < 0.5 else hi * rng.uniform(0.0, 0.5)
    lo = max(lo, 2 * POLE_GUARD) if k < 0 else lo
    seams = (math.pi / 2 - BASE_GUARD) * 2.0 ** np.arange(top)
    seams = seams[(seams > lo) & (seams < hi)]
    grid = np.union1d(np.linspace(lo, hi, int(rng.integers(9, 258))),
                      np.concatenate([seams, np.nextafter(seams, 0.0), np.nextafter(seams, hi)]))
    return k, secondary, order, grid


@pytest.mark.parametrize("seed", range(4))
def test_doubling_law_meets_its_accuracy_gate_on_a_seeded_sweep(seed, law_gap):
    rng = np.random.default_rng(seed)
    depths = set()
    for _ in range(12):
        k, secondary, order, grid = _law_draw(rng)
        solution = PantographSolution(solve_series(k, n_max=order, secondary=secondary))
        got = reconstruct(solution_curve(solution), grid)
        r, rp = continue_R(solution, grid)
        assert np.array_equal(got.radius, r) and np.array_equal(got.radius_prime, rp)
        assert law_gap(solution, grid, (got.x, got.y, got.arclength)) <= 1.0, (k, order, grid)
        depths.add(int(pantograph._depth(solution, grid).max()))
    assert len(depths) >= 6


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 3])
def test_doubling_law_without_doublings_is_the_quadrature(k):
    # Every angle in the series window: the law is the quadrature of the grid, bit for bit.
    # Where k < 0 both clip the pole at 0 by POLE_GUARD.
    curve = solution_curve(PantographSolution(
        solve_series(k, n_max=60, secondary=0.5 if k == -3 else None)))
    reference = InclinationCurve(curve.jet, poles=curve.poles)
    for interval in (AngleInterval(0.0, 1.5, 33), AngleInterval(0.2, math.pi / 2 - BASE_GUARD, 9)):
        got, want = reconstruct(curve, interval), reconstruct(reference, interval)
        for name in ("x", "y", "radius", "radius_prime", "arclength"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_report_mapping_round_trip(cycloid_report, capsys):
    # The CLI prints each scalar field of the report, in declaration order.
    assert main(["pantograph", "--m", "1", "--order", "30"]) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    scalars = [f.name for f in dataclasses.fields(cycloid_report)
               if f.name != "label" and not isinstance(getattr(cycloid_report, f.name), np.ndarray)]
    assert list(lines) == ["m", "k", "a"] + scalars
    assert cycloid_report.is_vertical is True and lines["is_vertical"] == "true"
    assert lines["rho_spread"] == f"{cycloid_report.rho_spread:.12g}"


def test_report_rejects_singular_profiles():
    sol = PantographSolution(solve_series(-1, n_max=12))
    with pytest.raises(ValidationError):
        mirror_report(sol)


def test_report_needs_eight_sign_changes():
    # A profile that is not a solution: a huge scale factor shrinks each doubling by 1/(4a),
    # so R underflows to 0 past the window and changes sign nowhere on [0, 12pi].
    series = pantograph.PantographSeries(k=0, factor_a=1e200, n_max=1, coefficients=np.ones(2))
    with pytest.raises(NumericError, match="^only 0 sign changes below 37.7; the cusp chain"):
        mirror_report(PantographSolution(series))


def test_solution_curve_bounds(cycloid_solution):
    curve = solution_curve(cycloid_solution)
    reach = cycloid_solution.max_theta
    assert curve.domain == (0.0, reach)
    with pytest.raises(DomainError):
        reconstruct(curve, AngleInterval(0.0, 1.01 * reach, 9))
    sol = PantographSolution(solve_series(-1, n_max=12))
    curve = solution_curve(sol)
    assert curve.poles == (0.0,)


def test_parabola_identities():
    A = 1.0
    lo, hi = 0.2, math.pi - 0.2
    samples = reconstruct(parabola_mirror(A), AngleInterval(lo, hi, 257))
    # The closed form of the first point: (-A/(2 sin^2 t), -A cot t) at t = lo.
    pts = samples.points + (-A / (2.0 * math.sin(lo) ** 2), -A / math.tan(lo))
    implicit = pts[:, 1] ** 2 + 2 * A * pts[:, 0] + A * A
    assert np.max(np.abs(implicit)) < 1e-8
    # Every point is as far from the focus (-A, 0) as from the directrix x = 0.
    focal = np.hypot(pts[:, 0] + A, pts[:, 1]) - np.abs(pts[:, 0])
    assert np.max(np.abs(focal)) < 1e-8


def test_real_domains_still_bound_the_grid(cycloid_solution):
    # A series curve lives on [0, max_theta] and the parabola on (0, pi): a
    # series grid may end on either bound, and grids just past them raise.
    series = solution_curve(cycloid_solution)
    reach = cycloid_solution.max_theta
    assert find_cusps(series, [0.0, 1.0]) == []
    find_cusps(series, [reach - 1.0, reach])
    for grid in ([-1e-9, 1.0], [1.0, math.nextafter(reach, math.inf)]):
        with pytest.raises(DomainError, match="leaves the curve domain"):
            find_cusps(series, grid)
    parabola = parabola_mirror(1.0)
    for grid in ([-0.5, -1e-3], [math.pi + 1e-3, 4.0]):
        with pytest.raises(DomainError, match=r"leaves the curve domain \[0\.0, 3\.14159"):
            reconstruct(parabola, grid)


def test_parabola_validation():
    with pytest.raises(DegenerateCurveError):
        parabola_mirror(0.0)


def test_continuation_batch_matches_scalar_calls(m2_solution, rng):
    limit = math.pi / 2 - m2_solution.guard
    # One angle inside each depth 0..10, the origin, the window edge, a deep
    # angle and random fill, shuffled into one 2-D batch.
    one_per_depth = limit * 2.0 ** (np.arange(11) - 0.5)
    angles = np.concatenate(
        ([0.0, limit, 1000.0], one_per_depth, rng.uniform(0.0, 1100.0, 26))
    )
    batch = rng.permutation(angles).reshape(8, 5)
    r, rp = continue_R(m2_solution, batch)
    assert r.shape == rp.shape == batch.shape
    for idx, t in np.ndenumerate(batch):
        want_r, want_rp = continue_R(m2_solution, float(t))
        assert isinstance(want_r, float) and isinstance(want_rp, float)
        assert r[idx] == want_r and rp[idx] == want_rp, t


def test_continuation_empty_batch(m2_solution):
    r, rp = continue_R(m2_solution, np.empty((0, 3)))
    assert r.shape == rp.shape == (0, 3)


@pytest.mark.parametrize("theta", [math.nan, math.inf, np.array([1.0, math.nan])])
def test_continuation_rejects_non_finite_angles(cycloid_solution, theta):
    with pytest.raises(ValidationError):
        continue_R(cycloid_solution, theta)


@pytest.mark.parametrize(
    "k, secondary, theta, want_r, want_rp",
    [
        (1, None, 40.0, 12.982184746680492, -4.967188796770295),
        (1, None, 1000.0, 122.73294496644044, None),
        (2, None, 40.0, 228.59966867119493, None),
        (-3, 0.5, 40.0, -0.01877332524879078, None),
    ],
)
def test_continuation_frozen_deep_values(k, secondary, theta, want_r, want_rp):
    solution = PantographSolution(solve_series(k, n_max=30, secondary=secondary))
    r, rp = continue_R(solution, theta)
    assert r == pytest.approx(want_r, rel=1e-12, abs=0.0)
    if want_rp is not None:
        assert rp == pytest.approx(want_rp, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k, secondary", [(-1, None), (-3, 0.5)])
def test_pole_at_zero_is_an_error(k, secondary):
    solution = PantographSolution(solve_series(k, secondary=secondary))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError):
            continue_R(solution, 0.0)
        with pytest.raises(PoleError):
            continue_R(solution, np.array([0.5, 0.0, 2.0]))
        r, rp = continue_R(solution, np.array([0.5, 2.0]))
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(rp))


def test_pole_family_q_jet_finite_off_origin():
    pole = solve_series(-1, n_max=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = pantograph._q_taylor(pole, np.array([0.5]), [1] * 4)[:, 0]
    values = rows * [1.0, 1.0, 2.0, 6.0]  # row j times j!
    assert np.all(np.isfinite(values))


def _exact_q_rows(series, u, rows):
    """Rows j < rows of the Q jet at the rational u in exact arithmetic, and
    the sums of the magnitudes of their terms c_n C(n, j) u^(n-j)."""
    values = [Fraction(0)] * rows
    sizes = [Fraction(0)] * rows
    for n, c in zip(series.powers().tolist(), series.coefficients.tolist()):
        weight = Fraction(c)
        for j in range(rows):
            if weight:
                term = weight * u ** (n - j)
                values[j] += term
                sizes[j] += abs(term)
            weight *= Fraction(n - j, j + 1)
    return values, sizes


def _gamma(n):
    unit = Fraction(1, 2**53)
    return n * unit / (1 - n * unit)


@pytest.mark.parametrize("order", [30, 120])
@pytest.mark.parametrize("k, secondary", [(-3, 0.5), (-1, None), (0, None), (1, None), (2, None)])
def test_q_jet_is_within_the_horner_bound_of_exact_arithmetic(k, secondary, order):
    series = solve_series(k, n_max=order, secondary=secondary)
    points = [1 / 1024, 1 / 3, 3 / 2] + ([0.0] if k >= 0 else [])
    rows = 13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pantograph._q_taylor(series, np.array(points), [len(points)] * rows)
    for col, point in enumerate(points):
        values, sizes = _exact_q_rows(series, Fraction(point), rows)
        for j in range(rows):
            # Horner's bound gamma_2N sum |c_n u^e_n|, with N the order - k + 1
            # terms plus j + 2 for the weights C(n, j) and the power of u.
            bound = _gamma(2 * (order - k + j + 3)) * sizes[j]
            assert abs(Fraction(got[j, col]) - values[j]) <= bound, (point, j)


@pytest.mark.parametrize("k, secondary", [(-3, 0.5), (-2, None), (-1, None)])
def test_continuation_near_the_pole_is_accurate_to_its_condition(k, secondary):
    solution = PantographSolution(solve_series(k, n_max=30, secondary=secondary))
    theta = np.geomspace(1e-3, 1.5, 200)
    r, rp = continue_R(solution, theta)
    terms = list(zip(solution.series.powers().tolist(), solution.series.coefficients.tolist()))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for t, got_r, got_rp in zip(theta.tolist(), r.tolist(), rp.tolist()):
            x = mpmath.mpf(t)
            q = mpmath.fsum(c * x**n for n, c in terms)
            q_size = mpmath.fsum(abs(c * x**n) for n, c in terms)
            dq = mpmath.fsum(n * c * x ** (n - 1) for n, c in terms)
            sin, cos = mpmath.sin(x), mpmath.cos(x)
            # Each bound is scaled by the condition of its sum, not by the
            # largest value: Q's terms cancel where it changes sign, and
            # R' = Q' sin + Q cos cancels near the pole.
            assert abs(got_r - q * sin) <= 8 * eps * q_size * abs(sin), t
            assert abs(got_rp - (dq * sin + q * cos)) <= 8 * eps * (abs(dq * sin) + abs(q * cos)), t


FAMILIES = [(-3, 0.5), (-2, None), (-1, None), (0, None), (1, None), (2, None), (3, None)]


@pytest.mark.parametrize("order", [30, 120])
@pytest.mark.parametrize("k, secondary", FAMILIES)
def test_q_rows_of_a_sub_batch_are_those_of_the_full_batch(k, secondary, order):
    series = solve_series(k, n_max=order, secondary=secondary)
    rng = np.random.default_rng(100 * (k + 3) + order)
    limit = math.pi / 2 - BASE_GUARD
    # The series window, with angles within 1e-3 of the pole at 0 (or 0 itself for k >= 0).
    near = np.geomspace(1e-6, 1e-3, 64) if k <= -1 else np.zeros(4)
    u = rng.permutation(np.concatenate([near, rng.uniform(0.0, limit, 8192 - near.size)]))
    u[-1] = limit
    rows = JET_ORDER + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = pantograph._q_taylor(series, u, [u.size] * rows).view(np.int64)
        for width in (1, 7, 4095, 4097):
            for start in (0, 2000, u.size - width):
                part = slice(start, start + width)
                got = pantograph._q_taylor(series, u[part], [width] * rows).view(np.int64)
                assert np.array_equal(got, full[:, part]), (width, start)


@pytest.mark.parametrize("k, secondary", FAMILIES)
def test_every_depth_continues_to_finite_values(k, secondary):
    solution = PantographSolution(solve_series(k, secondary=secondary))
    theta = np.concatenate(
        [_edge_angles(solution), np.geomspace(1e-3, solution.max_theta, 1024)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            r, rp = continue_R(solution, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(rp))
    assert peak < 2 * 2**20


def test_jet_depth_error_names_max_theta(cycloid_solution):
    reach = PantographSolution.max_theta
    assert reach == 2.0 ** (JET_ORDER - 1) * (math.pi / 2 - BASE_GUARD)
    assert cycloid_solution.max_theta == reach
    continue_R(cycloid_solution, reach)
    with pytest.raises(JetDepthError, match=f"depth {JET_ORDER}; .*max_theta = {reach:g}"):
        continue_R(cycloid_solution, np.array([1.0, np.nextafter(reach, np.inf)]))


@pytest.mark.parametrize("k, secondary", FAMILIES)
def test_shorter_tables_are_leading_blocks_of_the_built_once_ones(k, secondary):
    # Jets of L rows slice the tables built once for JET_ORDER + 1 rows; a
    # table built for L rows must be exactly that slice.
    series = solve_series(k, secondary=secondary)
    table, lead, lowest, stride = series._q_table
    for rows in range(1, JET_ORDER + 2):
        assert np.array_equal(pantograph._trig_table(rows), pantograph._TRIG[:rows, : 2 * rows])
        doubling = pantograph._doubling_table(series, rows)
        assert np.array_equal(doubling, series._doubling[:rows, : 2 * rows - 2])
        short_table, short_lead, short_lowest, short_stride = pantograph._q_table(series, rows)
        assert np.array_equal(short_table, table[:, :rows])
        assert np.array_equal(short_lead, lead[:rows])
        assert np.array_equal(short_lowest, lowest[:rows])
        assert short_stride == stride


def test_overlay_of_no_angles_is_empty(cycloid_solution):
    pts = overlay_caustic_points(cycloid_solution, np.array([]))
    assert pts.shape == (0, 2)


def test_residuals_equal_separate_continuations(m2_solution):
    # The law under the reflection tilt phi = pi/2 - theta, formed from separate continuations
    # at theta and at its argument theta + pi/2 - phi, is a quarter of the mirror residual bit
    # for bit; and 4 times it is the pantograph defect, sin R' - 4a R(2 theta) + 3 cos R, to
    # rounding.
    interval = AngleInterval(0.01, 2 * math.pi, 257)
    t = interval.grid()
    phi = math.pi / 2 - t
    r, rp = continue_R(m2_solution, t)
    shifted, _ = continue_R(m2_solution, t + math.pi / 2 - phi)
    a = m2_solution.series.factor_a
    law = caustic_radius(r, rp, phi, -1.0, 0.0) - a * shifted
    assert mirror_equation_residual(m2_solution, interval) == 4.0 * np.max(np.abs(law))
    r2, _ = continue_R(m2_solution, 2.0 * t)
    defect = np.sin(t) * rp - 4.0 * a * r2 + 3.0 * np.cos(t) * r
    scale = np.max(np.abs(rp) + 4.0 * abs(a) * np.abs(r2) + 3.0 * np.abs(r))
    assert np.max(np.abs(4.0 * law - defect)) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("name", ["cycloid_solution", "m2_solution", "m3_solution"],
                         ids=["k0", "k1", "k2"])
def test_mirror_residual_is_four_times_the_reflection_law(request, name):
    solution = request.getfixturevalue(name)
    interval = AngleInterval(0.01, 2 * math.pi, 257)
    law = SimilaritySpec(solution.series.factor_a, 0.0)
    want = similarity_residual(solution_curve(solution), TiltField.reflection(), law, interval)
    assert mirror_equation_residual(solution, interval) == 4.0 * want


# The continuation as it was first batched: one pass per doubling depth,
# every angle of the pass at full reach, and frozen copies of the tables and
# the jet product it used, which adds each column of a table, zero entries
# included, into every angle's rows, one column at a time.  Only the Q jet
# comes from the library, so the climb's tables, products, schedule, sorting
# and blocks must reproduce it bit for bit.


def _column_trig_table(rows):
    inverse = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1.0, rows))))
    m = np.arange(rows)
    signed = inverse * np.array([1.0, 1.0, -1.0, -1.0])[m % 4]
    lag = m[:, None] - m[None, :]
    below = lag >= 0
    lag = np.where(below, lag, 0)
    table = np.empty((2 * rows, rows))
    table[0::2] = np.where(below & (lag % 2 == 0), signed[lag], 0.0)
    table[1::2] = np.where(below & (lag % 2 == 1), signed[lag], 0.0)
    return table


def _column_doubling_table(series, rows):
    length = rows - 1
    trig = _column_trig_table(rows)
    tc, ts = trig[0 : 2 * length : 2, :length], trig[1 : 2 * length : 2, :length]
    scale = np.arange(1.0, rows)
    out = np.zeros((2 * length, rows))
    out[0::2, :-1] = -3.0 * ts
    out[0::2, 1:] += tc * scale
    out[1::2, :-1] = 3.0 * tc
    out[1::2, 1:] += ts * scale
    weight = (1.0 / (4.0 * series.factor_a)) / 2.0 ** np.arange(length)
    return out * np.repeat(weight, 2)[:, None]


def _column_product(table, jet, u, reach, offset):
    acc = table[:, :1] * jet[0]
    for i in range(1, jet.shape[0]):
        top, n = 2 * (i - offset), reach[i]
        acc[top:, :n] += table[top:, i : i + 1] * jet[i, :n]
    out = np.sin(u) * acc[0::2]
    out += np.cos(u) * acc[1::2]
    return out


def _column_r_taylor(series, u, reach):
    rows = len(reach)
    q = pantograph._q_taylor(series, u, reach)
    return _column_product(_column_trig_table(rows), q, u, reach, 0)


def _column_double(series, head, u):
    rows = head.shape[0]
    return _column_product(_column_doubling_table(series, rows), head, u, [u.size] * rows, 1)


def _continue_by_depth(solution, theta):
    flat = np.asarray(theta, dtype=float).ravel()
    limit = math.pi / 2 - solution.guard
    depth = np.ceil(np.log2(np.maximum(flat / limit, 1.0))).astype(int)
    depth += flat / 2.0**depth > limit
    r = np.empty_like(flat)
    rp = np.empty_like(flat)
    for d in np.unique(depth):
        rows = depth == d
        u = flat[rows] / 2.0**d
        taylor = _column_r_taylor(solution.series, u, [u.size] * (d + 2))
        for _ in range(d):
            taylor = _column_double(solution.series, taylor, u)
            u = 2.0 * u
        r[rows], rp[rows] = taylor[0], taylor[1]
    return r, rp


def _edge_angles(solution):
    """0 (for k >= 0), both sides of every depth boundary, and max_theta."""
    limit = math.pi / 2 - solution.guard
    bounds = limit * 2.0 ** np.arange(JET_ORDER)
    near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf)])
    near = near[near <= solution.max_theta]
    head = [] if solution.series.k <= -1 else [0.0]
    return np.concatenate([head, [solution.max_theta], near])


@pytest.mark.parametrize("order", [30, 120])
@pytest.mark.parametrize("k, secondary", FAMILIES)
def test_block_pass_matches_per_depth_reference(k, secondary, order):
    solution = PantographSolution(solve_series(k, n_max=order, secondary=secondary))
    rng = np.random.default_rng(1000 * (k + 3) + order)
    # Log-uniform over every depth the solution serves, edges first.
    edges = _edge_angles(solution)
    fill = np.exp(rng.uniform(math.log(1e-3), math.log(solution.max_theta), 61440 - edges.size))
    angles = np.concatenate([edges, rng.permutation(fill)])
    limit = math.pi / 2 - solution.guard
    batches = [angles[:n] for n in (0, 1, 12, 4095, 4096, 4097, 61440)]
    batches.append(rng.uniform(0.5 * limit, limit, 300))  # depth 0 only
    batches.append(rng.uniform(4.0 * limit, 8.0 * limit, 300))  # depth 3 only
    batches.append(np.full(5000, limit))  # one angle, twice over a block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in batches:
            r, rp = continue_R(solution, batch)
            want_r, want_rp = _continue_by_depth(solution, batch)
            assert np.array_equal(r, want_r), batch.size
            assert np.array_equal(rp, want_rp), batch.size


def test_batches_keep_the_sign_of_exact_zeros():
    # With a negative leading coefficient R(0) is -0.0.  Every batch takes the
    # einsum, and the angles with a zero output are done again by the column
    # loop, which adds exactly the reference's terms, so the sign survives at
    # every width.
    for k in (0, 1):
        solution = PantographSolution(solve_series(k, leading=-2.5))
        for batch in (np.array([0.0]), np.concatenate([[0.0], np.linspace(0.1, 30.0, 4999)])):
            r, rp = continue_R(solution, batch)
            want_r, want_rp = _continue_by_depth(solution, batch)
            assert np.array_equal(r.view(np.int64), want_r.view(np.int64)), k
            assert np.array_equal(rp.view(np.int64), want_rp.view(np.int64)), k
