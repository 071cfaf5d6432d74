"""Constant-tilt families: point-by-point, inverse-position, delay, spirals."""

import cmath
import math

import numpy as np
import pytest

from caustics.caustic import SimilaritySpec, TiltField, similarity_residual
from caustics.errors import (
    DegenerateCurveError,
    ValidationError,
)
from caustics.inclination import AngleInterval
from caustics.skew import (
    CharacteristicRoot,
    SkewFamilySpec,
    build_family,
    delay_curve,
    delay_roots,
    implied_alpha,
    inverse_position_curve,
    point_by_point_curve,
    puiseux_curve,
    puiseux_diagnostics,
    skew_equation_residual,
    to_delay_form,
)

WINDOW = AngleInterval(-math.pi, math.pi, 257)


def second_derivative(curve, t, h=1e-4):
    # differentiate the analytic first derivative: far better conditioned
    # than a direct second-difference of the radius
    f = lambda u: curve.jet(u)[1]
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def test_point_by_point_satisfies_equation():
    curve = point_by_point_curve(1.3, 0.8, 0.4)
    res = skew_equation_residual(curve, 0.4, 0.8, "point_by_point", WINDOW)
    assert res < 1e-9


@pytest.mark.parametrize("window", [AngleInterval(-1.0, 1.0, 201), AngleInterval(0.0, 2.0, 33)],
                         ids=["centred", "positive"])
@pytest.mark.parametrize(
    "spec, alpha, sign",
    [
        (SkewFamilySpec("point_by_point", 0.3, 1.2), 0.0, 1),
        (
            SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5),)),
            implied_alpha(1.0, 0.5, 1.2, 0.3),
            -1,
        ),
        (
            SkewFamilySpec(
                "delay", 0.3, 0.9, alpha=0.8, root_indices=(0, -1),
                coefficients=((1.0, 0.0), (0.5, 0.2)),
            ),
            0.8,
            1,
        ),
    ],
    ids=["point_by_point", "inverse_position", "delay"],
)
def test_skew_residual_is_the_similarity_law_under_the_constant_tilt(spec, alpha, sign, window):
    # The constant-tilt equation is the general law under TiltField.skew(phi0) with
    # beta = alpha + pi/2 - phi0: one kernel forms both, so they agree bit for bit.
    curve = build_family(spec)
    law = SimilaritySpec(spec.factor_a, alpha + math.pi / 2 - spec.phi0, sign)
    want = similarity_residual(curve, TiltField.skew(spec.phi0), law, window)
    got = skew_equation_residual(curve, spec.phi0, spec.factor_a, spec.case, window, alpha=alpha)
    assert got == want
    assert want <= 1e-10


def test_point_by_point_circle_degeneration_is_exact():
    phi0 = 0.37
    curve = point_by_point_curve(2.0, math.sin(phi0), phi0)
    t = np.linspace(-3.0, 3.0, 11)
    assert np.all(curve.jet(t)[0] == 2.0)
    off = point_by_point_curve(2.0, math.sin(phi0) + 1e-12, phi0)
    assert off.jet(3.0)[0] != off.jet(-3.0)[0]


def test_inverse_position_branches_and_ode(rng):
    for _ in range(12):
        phi0 = rng.uniform(-1.2, 1.2)
        a = rng.uniform(-2.0, 2.0)
        if abs(a * a - math.sin(phi0) ** 2) < 0.05:
            continue
        A, B = rng.uniform(0.3, 2.0, size=2)
        curve = inverse_position_curve(A, B, a, phi0)
        omega_sq = (a * a - math.sin(phi0) ** 2) / math.cos(phi0) ** 2
        t = np.linspace(-1.5, 1.5, 41)
        r = curve.jet(t)[0]
        resid = second_derivative(curve, t) + omega_sq * r
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(r)))


def test_inverse_position_involute_triggers_exactly():
    phi0 = 0.6
    a = math.sin(phi0)
    lin = inverse_position_curve(1.0, 0.5, a, phi0)
    assert lin.label.startswith("circle_involute")
    t = np.array([0.0, 1.0, 2.0])
    r = lin.jet(t)[0]
    assert r[2] - 2 * r[1] + r[0] == 0.0
    assert inverse_position_curve(1.0, 0.5, -a, phi0).label.startswith("circle_involute")
    near = inverse_position_curve(1.0, 0.5, a + 1e-9, phi0)
    assert not near.label.startswith("circle_involute")


def test_inverse_position_equation_with_implied_shift(rng):
    for _ in range(10):
        phi0 = rng.uniform(-1.0, 1.0)
        a = math.copysign(rng.uniform(abs(math.sin(phi0)) + 0.2, 2.5), rng.uniform(-1, 1))
        A, B = rng.uniform(0.3, 2.0, size=2)
        curve = inverse_position_curve(A, B, a, phi0)
        alpha = implied_alpha(A, B, a, phi0)
        res = skew_equation_residual(curve, phi0, a, "inverse_position", WINDOW, alpha=alpha)
        assert res < 1e-9


def test_implied_alpha_frozen_value():
    assert abs(implied_alpha(1.0, 0.5, 1.2, 0.3) - (-0.324190211899301)) < 1e-12


@pytest.mark.parametrize("A, B, a, phi0, want", [
    (1.0, 0.5, 0.1, 0.3, -9.775015),  # hyperbolic: a^2 < sin^2 phi0
    (1.0, 0.0, math.sin(0.3), 0.3, 0.0),  # a = sin phi0, B = 0: a circle, any shift
    (1.0, 0.5, -math.sin(0.3), 0.3, None),  # a = -sin phi0: one shift
], ids=["hyperbolic", "circle", "involute"])
def test_implied_alpha_off_the_oscillatory_family(A, B, a, phi0, want):
    alpha = implied_alpha(A, B, a, phi0)
    if want is not None:
        assert abs(alpha - want) < 1e-6
    curve = inverse_position_curve(A, B, a, phi0)
    window = AngleInterval(-2.0, 2.0, 257)
    assert skew_equation_residual(curve, phi0, a, "inverse_position", window, alpha=alpha) < 1e-12


def test_implied_alpha_is_free_of_the_amplitudes_scale():
    want = implied_alpha(1.0, 0.0, 1.2, 0.3)
    assert implied_alpha(1e200, 0.0, 1.2, 0.3) == want
    assert implied_alpha(1e-200, 0.0, 1.2, 0.3) == want


@pytest.mark.parametrize("a, phi0, label", [
    (1e200, 0.3, "skew_inverse("), (1e-160, 1e-200, "skew_inverse("),
    (1e-200, 1e-300, "skew_inverse("), (1e-200, 1e-160, "skew_inverse_hyp("),
])
def test_inverse_position_omega_where_omega_squared_leaves_the_normal_range(a, phi0, label):
    # omega^2 = (a^2 - sin^2 phi0) / cos^2 phi0 over- or underflows here, omega does not.  With
    # A = 0, B = 1, R'(0) = omega, which is max(a, sin phi0) / cos phi0 to rounding.
    curve = inverse_position_curve(0.0, 1.0, a, phi0)
    assert curve.label.startswith(label)
    omega = curve.jet(np.zeros(1))[1][0]
    assert math.isclose(omega, max(a, math.sin(phi0)) / math.cos(phi0), rel_tol=4e-16)


def test_implied_alpha_near_the_involutes_at_every_amplitude_scale(rng):
    # a within a factor 1 +- 1e-12 .. 2 of +-sin phi0: trigonometric and hyperbolic members
    # near the circle involutes.  (A, B) scaled by 2^k, |A|, |B| from about 1e-300 to 1e300,
    # gives the very same shift, and the shift satisfies the equation to rounding: it puts
    # cos(w alpha) and sin(w alpha) on the unit circle.
    window = AngleInterval(-1.0, 1.0, 33)
    shifts = 0
    for _ in range(300):
        phi0 = rng.uniform(-1.4, 1.4)
        sign, side = rng.choice([-1.0, 1.0], size=2)
        a = sign * math.sin(phi0) * (1.0 + side * 10.0 ** rng.uniform(-12, 0))
        A, B = rng.normal(size=2)
        k = int(rng.integers(-996, 997))
        try:
            alpha = implied_alpha(A, B, a, phi0)
        except ValidationError:
            with pytest.raises(ValidationError, match="no real shift"):
                implied_alpha(math.ldexp(A, k), math.ldexp(B, k), a, phi0)
            continue
        shifts += 1
        assert implied_alpha(math.ldexp(A, k), math.ldexp(B, k), a, phi0) == alpha
        curve = inverse_position_curve(A, B, a, phi0)
        r, rp = curve.jet(window.grid())
        scale = max(np.abs(r).max(), np.abs(rp).max(),
                    np.abs(a * curve.jet(alpha - window.grid())[0]).max())
        res = skew_equation_residual(curve, phi0, a, "inverse_position", window, alpha=alpha)
        assert res <= 1e-12 * scale
    assert shifts > 200


@pytest.mark.parametrize("a, phi0", [(1e-160, 1e-200), (3e-250, -1e-290)])
def test_implied_alpha_is_of_degree_minus_one_in_a_and_a_tiny_tilt(a, phi0):
    # sin phi0 = phi0 and cos phi0 = 1 at these tilts and at the same tilts scaled by 2^k.
    k = -math.frexp(a)[1]
    want = implied_alpha(1.0, 0.5, math.ldexp(a, k), math.ldexp(phi0, k))
    assert implied_alpha(1.0, 0.5, a, phi0) == math.ldexp(want, k)


@pytest.mark.parametrize("A, B, a, phi0", [
    (1.0, -0.3, -0.2, 0.5),  # hyperbolic with cosh(w alpha) = -1.43
    (1.0, 1.0, 0.1, 0.6),  # hyperbolic with A^2 = B^2: a pure exponential
    (1.0, 0.5, 0.0, 0.6),  # hyperbolic with a = 0
    (1.0, 0.5, math.sin(0.6), 0.6),  # a = sin phi0 with B != 0
    (1.0, 0.0, -math.sin(0.6), 0.6),  # a = -sin phi0 with B = 0
], ids=["negative_cosh", "equal_amplitudes", "zero_factor", "involute_plus", "circle_minus"])
def test_implied_alpha_rejects_members_without_a_real_shift(A, B, a, phi0):
    with pytest.raises(ValidationError, match="no real shift"):
        implied_alpha(A, B, a, phi0)


def test_delay_roots_frozen_values():
    roots = delay_roots(1.0, math.pi / 2, 0.0, indices=(0,))
    assert roots[0].value.imag == 0.0
    assert abs(roots[0].value.real - 0.47454099951265116) < 1e-12

    pair = delay_roots(1.0, math.pi / 2, 0.0, indices=(1, -1))
    lam = pair[0].value
    assert abs(lam.real - (-0.6845827467696126)) < 1e-12
    assert abs(abs(lam.imag) - 2.8499202881507237) < 1e-12
    assert abs(pair[1].value - lam.conjugate()) < 1e-12


def test_delay_roots_residual_bound(rng):
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        alpha = rng.uniform(0.1, 2.0)
        phi0 = rng.uniform(-1.2, 1.2)
        for root in delay_roots(a, alpha, phi0, indices=(0, 1, -1, 2)):
            lam = root.value
            lhs = (lam + math.tan(phi0)) * cmath.exp(alpha * lam)
            assert abs(lhs - a / math.cos(phi0)) < 1e-10


def test_delay_roots_residual_bound_is_relative_past_one():
    # |a / cos phi0| = 1e5: the correctly rounded root's residual, about 1e-10, is 1e-15 of it.
    (root,) = delay_roots(1e5, 1.0, 0.0, [0])
    lam = root.value
    assert abs(lam * cmath.exp(lam) - 1e5) <= 1e-10 * 1e5
    assert abs(lam.real - 9.284571428622108) < 1e-12 and lam.imag == 0.0


def test_delay_roots_branch_availability():
    with pytest.raises(ValidationError):
        delay_roots(1.0, -0.5, 0.0, (0, -1))


def test_advance_problems_normalise_to_delay():
    spec = SkewFamilySpec("delay", phi0=0.2, factor_a=0.9, alpha=-0.7)
    assert spec.alpha == 0.7
    assert spec.phi0 == -0.2
    assert spec.factor_a == -0.9
    assert to_delay_form(0.9, -0.7, 0.2) == (-0.9, 0.7, -0.2)


def test_delay_curve_single_real_root():
    spec = SkewFamilySpec("delay", phi0=0.0, factor_a=1.0, alpha=math.pi / 2)
    roots = delay_roots(1.0, math.pi / 2, 0.0, indices=(0,))
    curve = delay_curve(spec, roots)
    res = skew_equation_residual(curve, 0.0, 1.0, "delay", WINDOW, alpha=math.pi / 2)
    assert res < 1e-9


def test_delay_curve_oscillatory_branch():
    spec = SkewFamilySpec(
        "delay",
        phi0=0.0,
        factor_a=1.0,
        alpha=math.pi / 2,
        root_indices=(1,),
        coefficients=((0.7, -0.4),),
    )
    roots = delay_roots(1.0, math.pi / 2, 0.0, indices=(1,))
    curve = delay_curve(spec, roots)
    res = skew_equation_residual(curve, 0.0, 1.0, "delay", WINDOW, alpha=math.pi / 2)
    assert res < 1e-9


def _broadcast_delay_jet(spec, roots):
    """The delay jet with the roots on the last axis, summed by ``np.sum(axis=-1)``."""
    xi = np.array([rt.value.real for rt in roots])
    eta = np.array([rt.value.imag for rt in roots])
    amp_a, amp_b = np.array(spec.coefficients).T
    ca, cb = amp_a * xi + amp_b * eta, amp_b * xi - amp_a * eta

    def jet(t):
        t = np.asarray(t, dtype=float)[..., None]
        grow, c, s = np.exp(xi * t), np.cos(eta * t), np.sin(eta * t)
        return (np.sum(grow * (amp_a * c + amp_b * s), axis=-1),
                np.sum(grow * (ca * c + cb * s), axis=-1))

    return jet


@pytest.mark.parametrize("n_roots", [1, 2, 5, 8, 9, 12, 20])
def test_delay_jet_matches_the_broadcast_sum_bit_for_bit(n_roots):
    # Branches 0, 1, -1, 2, -2, ...; the window's ends overflow and underflow exp, so the sums
    # also meet inf, nan and signed zeros.
    indices = tuple((i + 1) // 2 * (-1) ** (i + 1) for i in range(n_roots))
    rng = np.random.default_rng(n_roots)
    spec = SkewFamilySpec("delay", phi0=0.3, factor_a=0.9, alpha=0.8, root_indices=indices,
                          coefficients=tuple(map(tuple, rng.uniform(-1, 1, (n_roots, 2)))))
    roots = delay_roots(0.9, 0.8, 0.3, indices)
    got, want = delay_curve(spec, roots).jet, _broadcast_delay_jet(spec, roots)
    t1 = np.concatenate([np.linspace(-30, 30, 3000), [-800.0, 800.0, 0.0, -0.0]])
    for t in (0.7, np.float64(-2.5), t1, t1.reshape(4, 751), t1[:768].reshape(2, 3, 128)):
        with np.errstate(all="ignore"):
            pairs = list(zip(got(t), want(t)))
        for g, w in pairs:
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_delay_curve_validation():
    spec = SkewFamilySpec("delay", phi0=0.0, factor_a=1.0, alpha=1.0)
    roots = delay_roots(1.0, 1.0, 0.0, indices=(0, -1))
    with pytest.raises(ValidationError):
        delay_curve(spec, roots)  # one coefficient pair, two roots
    zero = SkewFamilySpec(
        "delay", phi0=0.0, factor_a=1.0, alpha=1.0, coefficients=((0.0, 0.0),)
    )
    with pytest.raises(DegenerateCurveError):
        delay_curve(zero, roots[:1])


def test_family_spec_validation():
    with pytest.raises(ValidationError):
        SkewFamilySpec("sideways", phi0=0.0, factor_a=1.0)
    with pytest.raises(ValidationError):
        SkewFamilySpec("point_by_point", phi0=math.pi / 2, factor_a=1.0)
    with pytest.raises(ValidationError):
        SkewFamilySpec("delay", phi0=0.0, factor_a=1.0, alpha=0.0)


@pytest.mark.parametrize("coefficients", [((1.0,),), ((1.0, "x"),), ((1.0, 0.0, 2.0),), (1.0,)])
def test_family_spec_rejects_malformed_pairs(coefficients):
    with pytest.raises(ValidationError, match="pairs of numbers"):
        SkewFamilySpec("point_by_point", 0.1, 1.0, coefficients=coefficients)


@pytest.mark.parametrize("case", ["point_by_point", "inverse_position"])
def test_family_spec_rejects_empty_coefficients(case):
    with pytest.raises(ValidationError, match="at least one"):
        build_family(SkewFamilySpec(case, 0.1, 1.0, coefficients=()))


def test_build_family_dispatch():
    point = build_family(SkewFamilySpec("point_by_point", phi0=0.3, factor_a=0.9))
    assert point.label.startswith("skew_point")
    inverse = build_family(
        SkewFamilySpec("inverse_position", phi0=0.3, factor_a=1.4, coefficients=((1.0, 0.2),))
    )
    assert inverse.label.startswith("skew_inverse")
    delay = build_family(SkewFamilySpec("delay", phi0=0.0, factor_a=1.0, alpha=1.0))
    assert delay.label.startswith("skew_delay")


def test_puiseux_cusps_and_ratios():
    report = puiseux_diagnostics(0.2, 3.0, AngleInterval(-0.1, 4 * math.pi + 0.1, 1025))
    for i, z in enumerate(report.cusp_thetas):
        n = round(z * 3.0 / math.pi)
        assert abs(z - n * math.pi / 3.0) < 1e-9
    assert report.cusp_points.shape == (len(report.cusp_thetas), 2)
    assert report.center.shape == (2,)
    assert abs(report.expected_ratio - math.exp(0.2 * math.pi / 3.0)) < 1e-15
    assert report.max_ratio_deviation < 1e-6
    ratios = np.asarray(report.ratios)
    assert np.max(np.abs(ratios - report.expected_ratio)) < 1e-6


def test_puiseux_degenerate_cycloid_chords():
    report = puiseux_diagnostics(0.0, 1.0, AngleInterval(-0.1, 4 * math.pi + 0.1, 1025))
    assert report.center is None
    assert report.cusp_points.shape == (len(report.cusp_thetas), 2)
    assert abs(report.expected_ratio - 1.0) < 1e-15
    assert report.max_ratio_deviation < 1e-9


@pytest.mark.parametrize("c", [1e-170, -1e-170])
def test_puiseux_takes_the_chord_path_where_c_squared_underflows(c):
    window = AngleInterval(-0.1, 4 * math.pi + 0.1, 1025)
    report, chords = puiseux_diagnostics(c, 1.0, window), puiseux_diagnostics(0.0, 1.0, window)
    assert report.center is None
    assert report.distances == chords.distances


def test_puiseux_needs_three_cusps():
    with pytest.raises(ValidationError):
        puiseux_diagnostics(0.2, 3.0, AngleInterval(0.1, 1.0, 65))


def test_puiseux_curve_cusp_count():
    curve = puiseux_curve(0.2, 3.0)
    from caustics.inclination import find_cusps

    cusps = find_cusps(curve, AngleInterval(-0.1, 2 * math.pi + 0.1, 257))
    assert len(cusps) == 7  # n pi / 3 for n = 0..6
