"""Acceptance suite: the headline numerical claims, one test per criterion.

Each test states its bound literally and prints the measured value, so a
verbose run reads as a checklist.  Criterion 10 holds the tangent series
to 1e-10 on |t| <= 1.2 at the smallest order whose a-priori tail bound
meets that target (order 46).  Order 30 cannot meet it: every tangent
coefficient is positive, so the error at t = 1.2 is the whole tail, at
least the first omitted term tau_31 * 1.2^63 ~ 5.5e-8.  The test therefore
brackets the order-30 error between that term and the growth-bound tail.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from caustics.caustic import SimilaritySpec, TiltField, caustic_curve, similarity_residual
from caustics.cli import main
from caustics.inclination import AngleInterval, circle, cycloid, reconstruct
from caustics.oracle import envelope_numeric, reflect_horizontal
from caustics.pantograph import (
    continue_R,
    mirror_equation_residual,
    parabola_mirror,
    similarity_factor,
    solve_series,
)
from caustics.skew import (
    SkewFamilySpec,
    build_family,
    delay_curve,
    delay_roots,
    implied_alpha,
    puiseux_diagnostics,
    skew_equation_residual,
)
from caustics.specfun import lambert_w, tan_coeffs, zeta_even


def test_criterion_01_nephroid_radius_law():
    interval = AngleInterval(1e-3, math.pi - 1e-3, 1000)
    samples = caustic_curve(circle(1.0), TiltField.reflection(), interval)
    assert all(s.error is None for s in samples)
    theta = np.array([s.source_theta for s in samples])
    theta1 = np.array([s.caustic_theta for s in samples])
    r1 = np.array([s.caustic_radius for s in samples])
    err_source = float(np.max(np.abs(r1 - 0.75 * np.cos(theta))))
    err_inclination = float(np.max(np.abs(r1 - 0.75 * np.cos(theta1 / 2.0))))
    print(f"R1 vs (3/4)cos(theta): {err_source:.3e}; "
          f"vs (3/4)cos(theta1/2): {err_inclination:.3e}")
    assert np.allclose(theta1, 2.0 * theta, rtol=0.0, atol=1e-12)
    assert err_source < 1e-12
    assert err_inclination < 1e-12


def _nephroid(u: np.ndarray) -> np.ndarray:
    # Envelope of rightward parallel rays reflected by the unit circle:
    # hit point (cos u, sin u), reflected direction -(cos 2u, sin 2u),
    # caustic at distance (cos u)/2 along it.
    cu = np.cos(u)
    return np.column_stack([cu - 0.5 * cu * np.cos(2 * u),
                            np.sin(u) - 0.5 * cu * np.sin(2 * u)])


def test_criterion_02_envelope_matches_closed_form():
    lo, hi = math.pi / 2 + 1e-3, 3 * math.pi / 2 - 1e-3

    def envelope_error(n_rays: int) -> float:
        u = np.linspace(lo, hi, n_rays)
        mirror = np.column_stack([np.cos(u), np.sin(u)])
        env = envelope_numeric(reflect_horizontal(mirror, source_thetas=u))
        assert env.gap_indices == ()
        # The two boundary intersections use the polyline's one-sided end
        # normals; compare each interior intersection with the closed form at
        # its own ray pair's parameter, the cusp at u = pi included.
        inner = env.points[1:-1]
        reference = _nephroid(env.parameters[1:-1])
        return float(np.max(np.linalg.norm(inner - reference, axis=1)))

    coarse = envelope_error(2000)
    fine = envelope_error(4000)
    print(f"node-by-node gap 2000 rays: {coarse:.3e}; 4000 rays: {fine:.3e}")
    assert coarse < 1e-3
    assert fine <= 0.5 * coarse


def test_criterion_03_cycloid_mirror_is_self_similar(cycloid_report):
    curve = cycloid(1.0)
    residual = similarity_residual(
        curve,
        TiltField.reflection(),
        SimilaritySpec(factor_a=0.5, shift_beta=0.0),
        AngleInterval(0.01, math.pi - 0.01, 1001),
    )
    report = cycloid_report
    dev = max(abs(d) for d in report.zero_deviations)
    print(f"similarity residual: {residual:.3e}; zero deviation: {dev:.3e}; "
          f"rho in [{report.rho_min:.15f}, {report.rho_max:.15f}]; "
          f"collinearity: {report.collinearity_residual:.3e}")
    assert residual < 1e-10
    # cusp angles are refined to 1e-12, so "deviation zero" means zero to
    # root-refinement precision
    assert dev < 1e-10
    assert report.rho_min >= 1.0 - 1e-10 and report.rho_max <= 1.0 + 1e-10
    assert report.collinearity_residual < 1e-10


def _mirror_invariants(solution, report):
    series = solution.series
    powers = series.powers()
    nonzero = series.coefficients[series.coefficients != 0.0]
    assert all(
        series.coefficients[int(n) - series.k] == 0.0
        for n in powers
        if (int(n) - series.k) % 2 == 1
    )
    assert np.all(nonzero > 0.0)
    bound = np.max(np.abs(series.coefficients) * (math.pi / 2.0) ** powers)
    assert bound <= 4.0
    residual = mirror_equation_residual(solution, AngleInterval(0.01, 2 * math.pi, 257))
    assert residual < 1e-8
    grid = np.linspace(0.01, 2 * math.pi, 257)
    r, _ = continue_R(solution, grid)
    r_pi, _ = continue_R(solution, math.pi)
    ratio = abs(r_pi) / float(np.max(np.abs(r)))
    assert ratio > 1e-3
    return residual, ratio, report.rho_spread


def test_criterion_04_pantograph_m2_family(m2_solution, m2_report):
    series = m2_solution.series
    assert similarity_factor(1) == Fraction(5, 16)
    assert series.factor_a == float(Fraction(5, 16))
    assert solve_series(1, n_max=4, exact=True).exact[2] == Fraction(1, 39)
    assert series.coefficients[1 - series.k] == 1.0
    assert abs(series.coefficients[3 - series.k] - 1.0 / 39.0) <= 1e-15
    residual, ratio, spread = _mirror_invariants(m2_solution, m2_report)
    print(f"equation residual: {residual:.3e}; |R(pi)|/max|R|: {ratio:.4f}; "
          f"rho spread: {spread:.4f}; vertical: {m2_report.is_vertical}")
    assert spread > 1e-3
    assert not m2_report.is_vertical


def test_criterion_05_pantograph_m3_family(m3_solution, m3_report, cycloid_report):
    assert similarity_factor(2) == Fraction(3, 16)
    assert m3_solution.series.factor_a == float(Fraction(3, 16))
    residual, ratio, spread = _mirror_invariants(m3_solution, m3_report)
    print(f"equation residual: {residual:.3e}; collinearity m3: "
          f"{m3_report.collinearity_residual:.4f} vs cycloid: "
          f"{cycloid_report.collinearity_residual:.3e}")
    assert spread > 1e-3
    assert not m3_report.is_vertical
    assert m3_report.collinearity_residual > cycloid_report.collinearity_residual


def test_criterion_06_parabola_caustic_collapses_to_focus():
    scale = 1.0
    interval = AngleInterval(0.2, math.pi - 0.2, 257)
    # The closed forms: the first point (-A/(2 sin^2 t), -A cot t) at
    # t = lo, and the focus (-A, 0).
    t = interval.lo
    offset = np.array([-scale / (2.0 * math.sin(t) ** 2), -scale / math.tan(t)])
    mirror = parabola_mirror(scale)
    x, y = (reconstruct(mirror, interval).points + offset).T
    assert np.max(np.abs(y * y + 2.0 * scale * x + scale * scale)) < 1e-8
    focus = (-scale, 0.0)
    caustic = caustic_curve(mirror, TiltField.reflection(), interval)
    pts = caustic.points + offset
    scatter = float(np.max(np.hypot(pts[:, 0] - focus[0], pts[:, 1] - focus[1])))
    print(f"caustic scatter about the focus: {scatter:.3e}")
    assert scatter < 1e-7


def test_criterion_07_skew_families(rng):
    window = AngleInterval(-math.pi, math.pi, 201)
    worst_point = worst_inverse = worst_ode = 0.0
    for _ in range(20):
        phi0 = rng.uniform(-0.9, 0.9)
        a = rng.uniform(-1.5, 1.5)
        curve = build_family(SkewFamilySpec("point_by_point", phi0, a))
        worst_point = max(
            worst_point,
            skew_equation_residual(curve, phi0, a, "point_by_point", window),
        )
    for _ in range(20):
        phi0 = rng.uniform(-0.9, 0.9)
        a = math.copysign(rng.uniform(abs(math.sin(phi0)) + 0.2, 2.0),
                          rng.uniform(-1.0, 1.0))
        amp = (rng.uniform(0.3, 1.0), rng.uniform(-1.0, 1.0))
        spec = SkewFamilySpec("inverse_position", phi0, a, coefficients=(amp,))
        curve = build_family(spec)
        alpha = implied_alpha(amp[0], amp[1], a, phi0)
        worst_inverse = max(
            worst_inverse,
            skew_equation_residual(curve, phi0, a, "inverse_position", window,
                                   alpha=alpha),
        )
        omega_sq = (a * a - math.sin(phi0) ** 2) / math.cos(phi0) ** 2
        t = window.grid()
        h = 1e-4
        rp = lambda u: curve.jet(u)[1]
        rpp = (rp(t - 2 * h) - 8 * rp(t - h) + 8 * rp(t + h) - rp(t + 2 * h)) / (12 * h)
        ode = float(np.max(np.abs(rpp + omega_sq * curve.jet(t)[0])))
        worst_ode = max(worst_ode, ode)
        phi0 = rng.uniform(-0.9, 0.9)
        grazing = math.copysign(math.sin(phi0), a)
        degenerate = SkewFamilySpec("inverse_position", phi0, grazing)
        built = build_family(degenerate)
        assert built.label.startswith("circle_involute")
        nudged = SkewFamilySpec("inverse_position", phi0, grazing + math.copysign(1e-6, grazing))
        built = build_family(nudged)
        assert not built.label.startswith("circle_involute")
    print(f"residuals: point-by-point {worst_point:.3e}, "
          f"inverse {worst_inverse:.3e}, second-order law {worst_ode:.3e}")
    assert worst_point < 1e-9
    assert worst_inverse < 1e-9
    assert worst_ode < 1e-9


def test_criterion_08_delay_roots_and_lambert(rng):
    worst_root = worst_curve = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.3, 1.2)
        phi0 = rng.uniform(-0.8, 0.8)
        a = math.copysign(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0))
        target = a / math.cos(phi0)
        for root in delay_roots(a, alpha, phi0, indices=(0, -1, 1, 2)):
            lam = root.value
            residual = abs((lam + math.tan(phi0)) * cmath.exp(alpha * lam) - target)
            worst_root = max(worst_root, residual)
        spec = SkewFamilySpec("delay", phi0, a, alpha=alpha,
                              root_indices=(0,), coefficients=((1.0, 0.0),))
        roots = delay_roots(spec.factor_a, spec.alpha, spec.phi0,
                            indices=spec.root_indices)
        curve = delay_curve(spec, roots)
        worst_curve = max(
            worst_curve,
            skew_equation_residual(curve, spec.phi0, spec.factor_a, "delay",
                                   AngleInterval(-1.0, 1.0, 201), alpha=spec.alpha),
        )
    worst_lambert = 0.0
    for _ in range(40):
        z = rng.uniform(0.5, 3.0) * cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))
        for k in (-2, -1, 0, 1, 2):
            w = lambert_w(k, z)
            worst_lambert = max(worst_lambert, abs(w * cmath.exp(w) - z))
    print(f"root residual: {worst_root:.3e}; curve residual: {worst_curve:.3e}; "
          f"Lambert round-trip: {worst_lambert:.3e}")
    assert worst_root < 1e-10
    assert worst_curve < 1e-9
    assert worst_lambert < 1e-12


def test_criterion_09_cuspidal_spiral_geometry():
    c, gamma = 0.2, 3.0
    report = puiseux_diagnostics(c, gamma, AngleInterval(-0.1, 2 * math.pi + 0.1, 513))
    placement = max(
        abs(z - round(z * gamma / math.pi) * math.pi / gamma)
        for z in report.cusp_thetas
    )
    print(f"cusp placement: {placement:.3e}; ratio deviation: "
          f"{report.max_ratio_deviation:.3e} (expected ratio "
          f"{report.expected_ratio:.6f})")
    assert len(report.cusp_thetas) >= 3
    assert placement < 1e-9
    assert abs(report.expected_ratio - math.exp(c * math.pi / gamma)) == 0.0
    assert report.max_ratio_deviation < 1e-6


def _tan_tail_bound(order: int, t: float) -> float:
    # Geometric tail of the growth bound tau_n <= (pi^2/3)(2/pi)^(2n):
    # sum_{n > order} of it times |t|^(2n+1), valid for |t| < pi/2.
    ratio = (2.0 * t / math.pi) ** 2
    return ((math.pi**2 / 3.0) * (2.0 / math.pi) ** (2 * order + 2)
            * abs(t) ** (2 * order + 3) / (1.0 - ratio))


def test_criterion_10_tangent_series_reconstruction():
    window, target = 1.2, 1e-10
    # The order is fixed a priori by the tail bound, not read off a run.
    order = 0
    while _tan_tail_bound(order, window) > target:
        order += 1
    series = tan_coeffs(order)
    coeffs = tan_coeffs(30)
    # Growth-rate bound: every coefficient obeys
    # 0 < tau_n <= (pi^2/3)(2/pi)^(2n).
    for n in range(order + 1):
        tau = series.values[n]
        assert 0.0 < tau <= (math.pi**2 / 3.0) * (2.0 / math.pi) ** (2 * n), (
            f"tau_{n} = {tau:.3e} breaks the growth bound (pi^2/3)(2/pi)^(2n)"
        )
    # The zeta closed form 2(2^(2n) - 1) zeta(2n) / pi^(2n) reproduces the
    # coefficient of t^(2n-1), i.e. it is shifted by one slot: at n = 1 it
    # gives 1 (the t coefficient) where the t^3 coefficient is 1/3.  That
    # expected mismatch is pinned here.
    def zeta_form(n: int) -> float:
        return 2.0 * (4.0**n - 1.0) * zeta_even(2 * n) / math.pi ** (2 * n)

    assert zeta_form(1) == pytest.approx(1.0, abs=1e-14)
    assert abs(zeta_form(1) - coeffs.values[1]) > 0.6
    for n in range(1, 15):
        assert zeta_form(n) == pytest.approx(coeffs.values[n - 1], rel=1e-13)

    t = np.linspace(-window, window, 481)
    err = float(np.max(np.abs(series.eval(t) - np.tan(t))))
    bound = _tan_tail_bound(order, window)
    print(f"sup reconstruction error on |t| <= {window} at order {order}: "
          f"{err:.3e} (tail bound {bound:.3e}, target {target:.0e})")
    assert err <= target, (
        f"order-{order} series misses tan by {err:.3e} on |t| <= {window}; "
        f"its growth-bound tail is {bound:.3e}, so the target {target:.0e} "
        "should hold"
    )

    # At order 30 the target is out of reach: all coefficients are positive,
    # so the error at t = +-1.2 is the whole tail, at least the first
    # omitted term tau_31 * 1.2^63 (~5.5e-8) and at most the growth-bound
    # tail (~5.3e-7).  A wrong coefficient or power leaves this bracket.
    lower = float(series.exact[31]) * window**63
    upper = _tan_tail_bound(30, window) + 4.0 * math.ulp(math.tan(window))
    for s in (-window, window):
        tail = math.copysign(1.0, s) * (math.tan(s) - float(coeffs.eval(s)))
        print(f"order-30 tail at t = {s:+}: {tail:.3e} in [{lower:.3e}, {upper:.3e}]")
        assert lower <= tail <= upper, (
            f"order-30 tail at t = {s:+} is {tail:.3e}, outside "
            f"[first omitted term {lower:.3e}, growth-bound tail {upper:.3e}]"
        )


def test_criterion_11_cli_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"caustic-{tag}.csv"
        svg = tmp_path / f"caustic-{tag}.svg"
        # One path per pantograph file, since stdout names the files written.
        coeff = tmp_path / "coeff.csv"
        mirror = tmp_path / "mirror.svg"
        # Every cell of these grids takes the node-jet rule ...
        assert main(["caustic", "--curve", "cycloid:amplitude=1",
                     "--tilt", "reflection", "--interval", "0.01:pi",
                     "--samples", "129", "--out-csv", str(csv),
                     "--out-svg", str(svg)]) == 0
        dense = tmp_path / f"dense-{tag}.csv"
        assert main(["caustic", "--curve", "cycloid:amplitude=1",
                     "--tilt", "reflection", "--interval=-2pi:2pi",
                     "--samples", "16385", "--out-csv", str(dense)]) == 0
        # ... and every cell of this coarse one the adaptive rules.
        coarse = tmp_path / f"coarse-{tag}.csv"
        assert main(["caustic", "--curve", "cycloid:amplitude=1",
                     "--tilt", "reflection", "--interval", "0.01:pi",
                     "--samples", "17", "--out-csv", str(coarse)]) == 0
        capsys.readouterr()
        # The coefficient table never continues the series; the report on
        # stdout and the mirror drawing both go through continue_R.
        assert main(["pantograph", "--m", "2", "--order", "24",
                     "--out-csv", str(coeff), "--out-svg", str(mirror)]) == 0
        report = capsys.readouterr().out
        outputs.append((csv.read_bytes(), svg.read_bytes(), dense.read_bytes(),
                        coarse.read_bytes(), coeff.read_bytes(), mirror.read_bytes(), report))
        # The shared paths are removed, so that each run must write its own.
        coeff.unlink()
        mirror.unlink()
    assert "collinearity_residual=" in outputs[0][-1]
    assert outputs[0] == outputs[1]
