"""Argument checks at the public boundary: bad input raises ``ValidationError``, not a raw
numpy or Python error; degenerate input raises its own class of the taxonomy; and numpy
scalars pass wherever Python numbers do."""

import math
import os
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from caustics.caustic import (
    SimilaritySpec, TiltField, caustic_radius, coframe, similarity_residual)
from caustics.csvio import write_coefficient_csv, write_table
from caustics.errors import (
    DegenerateCurveError, DegenerateSamplingError, DomainError, EvaluationError, FlatCausticError,
    NumericError, PoleError, ValidationError)
from caustics.inclination import (
    AngleInterval, InclinationCurve, circle, cycloid, frenet_residual, log_spiral,
    polynomial_curve, reconstruct)
from caustics.oracle import (
    RayFamily, envelope_gap, hausdorff_distance, occlusion_check, reflect_horizontal,
    verticality_check)
from caustics.pantograph import (
    PantographSeries, PantographSolution, continue_R, mirror_equation_residual, mirror_report,
    parabola_mirror, solution_curve, solve_series)
from caustics import skew, specfun
from caustics.quadrature import panel_integrals
from caustics.skew import (
    SkewFamilySpec, build_family, delay_curve, delay_roots, implied_alpha,
    inverse_position_curve, point_by_point_curve, puiseux_curve, puiseux_diagnostics,
    skew_equation_residual, to_delay_form)
from caustics.specfun import TanCoefficients, lambert_w, tan_coeffs, zeta_even
from caustics.svg import write_scene

RAGGED = [[0.0], [1.0, 2.0]]
RAGGED_POINTS = [[0, 0], [1]]
TEXT_POINTS = [["0", "0"], ["1", "0"]]


def _line(t):
    return np.asarray(t)[None]


UNIT_ENDS = (_line([0.0, 1.0]), np.ones((1, 2)))  # t and its derivative at the edges 0, 1


def _delay_spec(*pairs, branches=(0,)):
    return SkewFamilySpec("delay", 0.0, 1.0, 1.0, branches, pairs)


def _skew_residual(case="delay", factor_a=1.2, alpha=1.0, interval=AngleInterval(0, 1, 5)):
    return skew_equation_residual(log_spiral(1, 0.5), 0.3, factor_a, case, interval, alpha=alpha)


BAD_CALLS = {
    "tan_coeffs_bool": lambda: tan_coeffs(True),
    "lambert_w_bool_branch": lambda: lambert_w(True, 1.0),
    "spec_fractional_root_index": lambda: SkewFamilySpec(
        "delay", 0.3, 0.9, alpha=1.0, root_indices=(1.7,)),
    "delay_roots_fractional_branch": lambda: delay_roots(0.9, 1.0, 0.3, [1.5]),
    "panel_integrals_bool_tol": lambda: panel_integrals(_line, [0.0, 1.0], True, ends=UNIT_ENDS),
    "point_by_point_text_phi0": lambda: point_by_point_curve(1.0, 1.0, "x"),
    "interval_text_lo": lambda: AngleInterval("a", 1.0, 5),
    "reconstruct_ragged": lambda: reconstruct(circle(), RAGGED),
    "panel_integrals_ragged": lambda: panel_integrals(_line, RAGGED, 1e-10, ends=UNIT_ENDS),
    "panel_integrals_ragged_ends": lambda: panel_integrals(
        _line, [0.0, 1.0], 1e-10, ends=(RAGGED, [[1.0, 1.0]])),
    "spec_nan_alpha": lambda: SkewFamilySpec("delay", 0.3, 0.9, alpha=math.nan),
    "spec_inf_alpha": lambda: SkewFamilySpec("delay", 0.3, 0.9, alpha=math.inf),
    "spec_nan_factor": lambda: SkewFamilySpec("delay", 0.3, math.nan, alpha=1.0),
    "spec_point_alpha": lambda: SkewFamilySpec("point_by_point", 0.3, 1.2, alpha=2.0),
    "spec_point_branches": lambda: SkewFamilySpec(
        "point_by_point", 0.3, 1.2, root_indices=(3, 4), coefficients=((1.0, 0.0), (2.0, 0.0))),
    "spec_point_second_amplitude": lambda: SkewFamilySpec(
        "point_by_point", 0.3, 1.2, coefficients=((1.0, 5.0),)),
    "spec_inverse_alpha": lambda: SkewFamilySpec("inverse_position", 0.3, 1.2, alpha=5.0),
    "spec_inverse_branch": lambda: SkewFamilySpec(
        "inverse_position", 0.3, 1.2, root_indices=(1,)),
    "spec_inverse_two_pairs": lambda: SkewFamilySpec(
        "inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5), (1.0, 0.5))),
    "delay_roots_nan_factor": lambda: delay_roots(math.nan, 1.0, 0.3, [0]),
    "delay_roots_nan_alpha": lambda: delay_roots(0.9, math.nan, 0.3, [0]),
    "ray_family_ragged": lambda: RayFamily(RAGGED_POINTS, [[0.0, 1.0], [0.0, 1.0]], [0.0, 1.0]),
    "reflect_horizontal_ragged": lambda: reflect_horizontal(RAGGED_POINTS, [0.0, 1.0]),
    "verticality_check_ragged": lambda: verticality_check(RAGGED_POINTS),
    "occlusion_check_ragged": lambda: occlusion_check(RAGGED_POINTS),
    "parabola_mirror_nan_scale": lambda: parabola_mirror(math.nan),
    "parabola_mirror_inf_scale": lambda: parabola_mirror(math.inf),
    "parabola_mirror_bool_scale": lambda: parabola_mirror(True),
    "circle_nan_radius": lambda: circle(math.nan),
    "cycloid_inf_amplitude": lambda: cycloid(math.inf),
    "log_spiral_nan_growth": lambda: log_spiral(1.0, math.nan),
    "lambert_w_inf": lambda: lambert_w(0, math.inf),
    "lambert_w_nan": lambda: lambert_w(0, math.nan),
    "delay_roots_overflowing_argument": lambda: delay_roots(0.9, 1e308, 0.3, (0,)),
    "continue_R_ragged": lambda: continue_R(PantographSolution(solve_series(0, 12)), [[1, 2], [3]]),
    "skew_residual_delay_inf_alpha": lambda: _skew_residual(alpha=math.inf),
    "skew_residual_inverse_inf_alpha": lambda: _skew_residual("inverse_position", alpha=math.inf),
    "skew_residual_nan_factor": lambda: _skew_residual(factor_a=math.nan),
    "skew_residual_list_interval": lambda: _skew_residual(interval=[0.0, 1.0]),
    "mirror_residual_list_interval": lambda: mirror_equation_residual(
        PantographSolution(solve_series(0, 12)), [0.0, 1.0]),
    "mirror_residual_negative_lo": lambda: mirror_equation_residual(
        PantographSolution(solve_series(0, 12)), AngleInterval(-0.5, 1.0, 5)),
    "pantograph_series_order_at_k": lambda: PantographSeries(1, 0.3125, 1, np.ones(1)),
    "pantograph_series_coefficient_count": lambda: PantographSeries(1, 0.3125, 3, np.ones(2)),
    "pantograph_series_zero_factor": lambda: PantographSeries(1, 0.0, 3, np.ones(3)),
    "pantograph_series_inf_factor": lambda: PantographSeries(1, math.inf, 3, np.ones(3)),
    "pantograph_series_k_at_the_parabola": lambda: PantographSeries(-4, 0.0, 1, np.ones(6)),
    "pantograph_series_k_below_the_parabola": lambda: PantographSeries(-5, 0.5, -3, np.ones(3)),
    "solve_series_zero_leading": lambda: solve_series(1, leading=0.0),
    "polynomial_curve_nan": lambda: polynomial_curve([1.0, math.nan]),
    "polynomial_curve_ragged": lambda: polynomial_curve(RAGGED),
    "polynomial_curve_text": lambda: polynomial_curve("12"),
    "polynomial_curve_float": lambda: polynomial_curve(1.0),
    "polynomial_curve_none": lambda: polynomial_curve(None),
    "similarity_residual_list_interval": lambda: similarity_residual(
        circle(1.0), TiltField.evolute(), SimilaritySpec(1.0, 0.0), [0, 1]),
    "puiseux_curve_nan_c": lambda: puiseux_curve(math.nan, 3),
    "puiseux_curve_nan_gamma": lambda: puiseux_curve(0.2, math.nan),
    "puiseux_curve_inf_gamma": lambda: puiseux_curve(0.2, math.inf),
    "coframe_inf_theta": lambda: coframe([math.inf], [1], [0], [0]),
    "caustic_radius_inf_r_prime": lambda: caustic_radius(1.0, math.inf, 0.3, 0.0, 0.0),
    "inverse_position_none_amplitude": lambda: inverse_position_curve(None, 0, 1.2, 0.3),
    "implied_alpha_none_amplitude": lambda: implied_alpha(None, 0, 1.2, 0.3),
    "inverse_position_text_amplitude": lambda: inverse_position_curve("1", 0, 1.2, 0.3),
    "inverse_position_bool_amplitude": lambda: inverse_position_curve(True, 0, 1.2, 0.3),
    "inverse_position_nan_factor": lambda: inverse_position_curve(1, 0, math.nan, 0.3),
    "point_by_point_text_factor": lambda: point_by_point_curve(1, "1.2", 0.3),
    "to_delay_form_text_phi0": lambda: to_delay_form(1.2, 1.0, "x"),
    "to_delay_form_nan_phi0": lambda: to_delay_form(1.2, 1.0, math.nan),
    "solve_series_text_leading": lambda: solve_series(1, 12, leading="3/4"),
    "solve_series_bool_leading": lambda: solve_series(1, 12, leading=True),
    "delay_family_inf_amplitude": lambda: build_family(_delay_spec((math.inf, 0.0))),
    "delay_family_nan_amplitude": lambda: build_family(_delay_spec((math.nan, 0.0))),
    "spec_int_root_indices": lambda: _delay_spec((1.0, 0.0), branches=5),
    "delay_roots_int_indices": lambda: delay_roots(1.2, 1.0, 0.3, 5),
    "write_table_int_rows": lambda: write_table(os.devnull, ("x",), 5),
    "write_table_none_rows": lambda: write_table(os.devnull, ("x",), None),
    "write_coefficient_text_value": lambda: write_coefficient_csv(os.devnull, [(1, "a")]),
    "write_coefficient_huge_index": lambda: write_coefficient_csv(os.devnull, [(10**400, 1.0)]),
    "write_scene_int_group": lambda: write_scene(os.devnull, mirror=5),
    "envelope_gap_list_window": lambda: envelope_gap(
        circle(1.0), TiltField.reflection(), [0.0, 0.5, 1.0]),
    "frenet_residual_list": lambda: frenet_residual([1, 2, 3]),
    "similarity_spec_bool_sign": lambda: SimilaritySpec(1.0, 0.0, sign=True),
    "similarity_spec_nan_factor": lambda: SimilaritySpec(math.nan, 0.0),
    "polynomial_curve_text_list": lambda: polynomial_curve(["1", "2"]),
    "reconstruct_text_grid": lambda: reconstruct(circle(), ["0", "0.5", "1"]),
    "continue_R_text_theta": lambda: continue_R(PantographSolution(solve_series(0, 12)), "1.0"),
    "continue_R_bytes_theta": lambda: continue_R(PantographSolution(solve_series(0, 12)), b"1.0"),
    "write_table_text_rows": lambda: write_table(os.devnull, ("a",), [["1"], ["2"]]),
    "panel_integrals_text_ends": lambda: panel_integrals(
        _line, [0.0, 1.0], 1e-10, ends=([["0", "1"]], [["1", "1"]])),
    "ray_family_text_bases": lambda: RayFamily(TEXT_POINTS, [[0.0, 1.0], [0.0, 1.0]], [0.0, 1.0]),
    "hausdorff_text_points": lambda: hausdorff_distance(TEXT_POINTS, [[0, 0], [1, 1]]),
    "hausdorff_text_array": lambda: hausdorff_distance(np.array(TEXT_POINTS), [[0, 0], [1, 1]]),
    "hausdorff_object_array_text": lambda: hausdorff_distance(
        np.array([[0, "0"], [1, 0]], dtype=object), [[0, 0], [1, 1]]),
    "skew_tilt_text_phi0": lambda: TiltField.skew("x"),
    "solve_series_huge_leading": lambda: solve_series(1, 12, leading=10**400),
    "lambert_w_huge_z": lambda: lambert_w(0, 10**400),
    "polynomial_curve_complex_array": lambda: polynomial_curve(np.array([1 + 1j, 2])),
    "inclination_curve_huge_domain_end": lambda: InclinationCurve(_line, domain=(0, 10**400)),
    "write_table_empty_header": lambda: write_table(os.devnull, (), [[1.0]]),
    "circle_zero_radius": lambda: circle(0),
    "envelope_gap_no_finite_pair": lambda: envelope_gap(  # phi' = 1: every node flat
        cycloid(1), TiltField(lambda t: (t, 1.0, 0.0)), AngleInterval(0.5, 1, 9)),
    "delay_curve_point_spec": lambda: delay_curve(SkewFamilySpec("point_by_point", 0.3, 1.2), []),
    "skew_residual_unknown_case": lambda: _skew_residual(case="delayed"),
    "puiseux_curve_zero_gamma": lambda: puiseux_curve(0.2, 0),
    "write_scene_no_finite_point": lambda: write_scene(os.devnull, mirror=[np.full((3, 2), np.nan)]),
    # 1 + 4.5e-16 rounds to 1 + 2 ulp: 9 angles on it cannot all differ.
    "reconstruct_grid_too_narrow": lambda: reconstruct(circle(), AngleInterval(1, 1 + 4.5e-16, 9)),
    # The width 2e308 overflows: the linspace's nodes are not finite.
    "reconstruct_grid_past_the_float_limit": lambda: reconstruct(
        circle(), AngleInterval(-1e308, 1e308, 5)),
}

# The message of each row that is the only test of its `raise`.
MESSAGES = {
    "write_table_empty_header": "header must name at least one column",
    "pantograph_series_zero_factor": "factor_a must be nonzero: the doubling divides by 4a",
    "circle_zero_radius": "circle needs a nonzero radius",
    "envelope_gap_no_finite_pair": "no pair of envelope and closed-form points is finite",
    "delay_curve_point_spec": "spec is a 'point_by_point' problem, not delay",
    "skew_residual_unknown_case": "case must be one of ('point_by_point', 'inverse_position', "
                                  "'delay'), got 'delayed'",
    "puiseux_curve_zero_gamma": "gamma must be positive",
    "write_scene_no_finite_point": "no finite points to draw",
    "reconstruct_grid_too_narrow": "9 angles on [1.0, 1.0000000000000004] do not increase",
    "reconstruct_grid_past_the_float_limit": "5 angles on [-1e+308, 1e+308] do not increase",
}


@pytest.mark.parametrize("call, message", [(call, MESSAGES.get(name))
                                           for name, call in BAD_CALLS.items()],
                         ids=BAD_CALLS.keys())
def test_bad_argument_is_validation_error(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message and f"^{re.escape(message)}$"):
            call()


def _step(t):
    return np.asarray(t >= 0.0, dtype=float)[None]


def _huge_mirror():
    return solution_curve(PantographSolution(solve_series(2, 30, leading=1e308)))


def _perturbed_delay_roots():
    with mock.patch.object(skew, "lambert_w", lambda k, z: lambert_w(k, z) * (1.0 + 1e-9)):
        return delay_roots(1e5, 1.0, 0.0, [0])


def _lambert_w_in_one_step():
    with mock.patch.object(specfun, "_MAX_HALLEY_STEPS", 1):
        return lambert_w(0, 1e5)


# Degenerate input the library refuses: the call, the class it raises and its message (text
# to find in the message, or a pattern to search it for).
DEGENERATE_CALLS = {
    "caustic_radius_flat_tilt": (
        lambda: caustic_radius(1, 0, 0, 1, 0),
        FlatCausticError, "tilt derivative too close to 1; caustic flattens"),
    "reconstruct_interval_collapses_at_pole": (
        lambda: reconstruct(parabola_mirror(1), AngleInterval(0, 1e-6, 5)),
        DomainError, "collapsed after pole clipping"),
    "reconstruct_grid_clipped_below_two_nodes": (
        lambda: reconstruct(parabola_mirror(1), [0, 5e-7, 2e-6]),
        DomainError, "fewer than 2 samples remain after pole clipping"),
    "frenet_residual_coincident_arclengths": (  # R is odd, so s(-1) = s(1)
        lambda: frenet_residual(reconstruct(cycloid(1), [-1, 0, 1])),
        DegenerateSamplingError, "coincident arclengths; sampling is degenerate"),
    "frenet_residual_interior_cusp": (
        lambda: frenet_residual(reconstruct(cycloid(1), [-1, 0, 0.5])),
        DegenerateSamplingError, "R vanishes at an interior sample (cusp)"),
    # The step sits at a third of [-64, 128] and of every panel bisection makes around it, in
    # view of P15's nodes; after 47 halvings a panel is still wider than the 1e-12 that makes
    # it stuck, and its error, a share of its width, still exceeds tol.
    "quadrature_levels_exhausted": (
        lambda: panel_integrals(_step, [-64.0, 128.0], 1e-13,
                                ends=([[0.0, 1.0]], [[0.0, 0.0]])),
        NumericError, "quadrature did not converge after 48 refinement levels"),
    # R = 1e308 is finite, but its integral over the one cell [0, 4], the arclength 4e308, is
    # not: the quadrature says so.
    "reconstruct_quadrature_overflows": (
        lambda: reconstruct(polynomial_curve([1e308]), AngleInterval(0, 4, 2)),
        NumericError, "the integral overflows in the panel at theta = 0.0"),
    # The closed form's arclength, 1e308 theta, passes the float limit at theta = 1.875.
    "reconstruct_closed_form_overflows": (
        lambda: reconstruct(circle(1e308), AngleInterval(0, 3, 9)),
        EvaluationError, "x, y or the arclength is not finite at theta = 1.875"),
    # A mirror whose R overflows in the series window: the doubling law leaves its quadrature
    # to the check of R at the nodes, as the quadrature path does.
    "reconstruct_mirror_radius_overflows": (
        lambda: reconstruct(_huge_mirror(), AngleInterval(0, 1, 9)),
        EvaluationError, "R is not finite at theta = 0.0"),
    "reconstruct_mirror_radius_overflows_quadrature": (
        lambda: reconstruct(InclinationCurve(_huge_mirror().jet), AngleInterval(0, 1, 9)),
        EvaluationError, "R is not finite at theta = 0.0"),
    "point_by_point_zero_amplitude": (
        lambda: point_by_point_curve(0, 1.2, 0.3),
        DegenerateCurveError, "zero amplitude collapses the curve to a point"),
    # R grows as e^(1.16 theta): it overflows at theta = 800, the grid's last node.
    "skew_equation_residual_overflowing_jet": (
        lambda: skew_equation_residual(point_by_point_curve(1.0, 1.4, 0.3), 0.3, 1.4,
                                       "point_by_point", AngleInterval(-800, 800, 9)),
        EvaluationError, "R, R' or the shifted R is not finite at theta = 800.0"),
    # The inverse-position member A=1e300, B=1.7e308, a=1 at phi0 = 5e-324 is finite at
    # theta = -1.7e308, but cos(phi0) R' + sin(phi0) R - a R(alpha - theta) passes the float
    # limit there.
    "skew_equation_residual_past_the_float_limit": (
        lambda: skew_equation_residual(
            inverse_position_curve(1e300, 1.7e308, 1.0, 5e-324), 5e-324, 1.0,
            "inverse_position", AngleInterval(-1.7e308, -1, 3),
            alpha=implied_alpha(1e300, 1.7e308, 1.0, 5e-324)),
        EvaluationError, "the residual is not finite at theta = -1.7e+308"),
    "inverse_position_zero_amplitudes": (
        lambda: inverse_position_curve(0, 0, 1.2, 0.3),
        DegenerateCurveError, "both amplitudes vanish; the curve is a point"),
    "pantograph_series_all_zero": (
        lambda: PantographSeries(0, 0.5, 1, np.zeros(2)),
        DegenerateCurveError, "every coefficient vanishes; the profile is a point"),
    # R(0.3) = 5e-324 (0.3)^2 underflows to 0: the arc ratio would divide by it.
    "mirror_report_underflowing_profile": (
        lambda: mirror_report(PantographSolution(solve_series(1, 30, leading=5e-324))),
        NumericError, "R is zero or subnormal at theta = 0.3, an angle the arc ratios or the "
                      "pole probe divide by"),
    # The k = 1 mirror led by 1e308 passes the float limit in its doubling; the continuation
    # names the first angle of its batch [t, 2t] where R does.
    "mirror_equation_residual_overflows": (
        lambda: mirror_equation_residual(PantographSolution(solve_series(1, 30, leading=1e308)),
                                         AngleInterval(0.01, 6, 33)),
        EvaluationError, "R is not finite at theta = 1.6946875000000001"),
    "continue_R_overflows": (
        lambda: continue_R(PantographSolution(solve_series(1, 30, leading=1e308)), [1.0, 3000.0]),
        EvaluationError, "R is not finite at theta = 3000.0"),
    # R = e^(800 theta) passes the float limit at theta = 1, its shifted value at every angle.
    "similarity_residual_overflowing_jet": (
        lambda: similarity_residual(log_spiral(1.0, 800.0), TiltField.evolute(),
                                    SimilaritySpec(1.0, 0.0), AngleInterval(0, 1, 5)),
        EvaluationError, "R, R' or the shifted R is not finite at theta = 0.0"),
    # R near 1e300 and its shifted value near 1e303 are finite; 1e10 times the latter is not.
    "similarity_residual_past_the_float_limit": (
        lambda: similarity_residual(log_spiral(1e300, 1.0), TiltField.skew(0.3),
                                    SimilaritySpec(1e10, -5.0), AngleInterval(0, 1, 5)),
        EvaluationError, "the residual is not finite at theta = 0.0"),
    # lambert_w's root moved by 1e-9 of itself leaves a residual near 1e-3, a hundred times the
    # bound 1e-10 |a / cos phi0| = 1e-5; the residual's digits are rounding's, the bound's are not.
    "delay_roots_residual_above_1e-10": (
        _perturbed_delay_roots, NumericError, re.compile(
            r"characteristic residual \S+ on branch 0 exceeds "
            r"1e-10 max\(1, \|a / cos phi0\|\) = 1\.000e-05$")),
    # e^(alpha lambda) passes the float limit: the Lambert argument underflowed to 0, so
    # lambda = -tan(phi0) and alpha lambda = 1.6e16.
    "delay_roots_residual_overflows": (
        lambda: delay_roots(1e-300, 1e16, -1.0, [0]),
        NumericError, "characteristic residual inf on branch 0 exceeds "
                      "1e-10 max(1, |a / cos phi0|) = 1.000e-10"),
    # omega = a / cos(phi0) = 5e-324, so alpha, an angle over omega, is past the float limit.
    "implied_alpha_past_the_float_limit": (
        lambda: implied_alpha(1e5, 1e300, 5e-324, 0.0),
        ValidationError, "the shift alpha of the inverse-position member A=100000, B=1e+300, "
                         "a=4.94066e-324, sin(phi0)=0 exceeds the float range"),
    # The circle involute a = -sin(phi0): alpha = -(c B + 2 s A) / (s B) over s = 5e-324.
    "implied_alpha_involute_past_the_float_limit": (
        lambda: implied_alpha(1, 1.5, -5e-324, 5e-324),
        ValidationError, "the shift alpha of the inverse-position member A=1, B=1.5, "
                         "a=-4.94066e-324, sin(phi0)=4.94066e-324 exceeds the float range"),
    # omega = sqrt(a^2 - sin(phi0)^2) / cos(phi0) = 1.94e308.
    "inverse_position_omega_past_the_float_limit": (
        lambda: inverse_position_curve(1e-300, 0.5, 1.7e308, 0.5),
        ValidationError, "omega of the inverse-position member A=1e-300, B=0.5, a=1.7e+308, "
                         "sin(phi0)=0.479426 exceeds the float range"),
    # B xi of the delay member's R' coefficients is 1.7e308 times -31.4.
    "delay_coefficient_past_the_float_limit": (
        lambda: build_family(SkewFamilySpec("delay", 0.5, 1e-20, math.pi / 2, (-1,),
                                            ((5e-324, 1.7e308),))),
        ValidationError, "a coefficient of R' of skew_delay(branches=-1, a=1e-20, "
                         "alpha=1.5708) exceeds the float range"),
    "lambert_w_pole_off_the_principal_branch": (
        lambda: lambert_w(1, 0),
        PoleError, "z=0 is a logarithmic pole of branch 1"),
    # One Halley step from the asymptotic guess, plain or scaled by e^(-w), leaves W_0(1e5) a
    # residual of about 2e4.
    "lambert_w_no_convergence": (
        _lambert_w_in_one_step,
        NumericError, "lambert_w did not converge: branch 0, z=(100000+0j), residual "),
    "tan_coefficients_first_not_one": (
        lambda: TanCoefficients(0, (Fraction(2),), np.array([2.0])),
        NumericError, "tangent coefficients must be positive, starting with 1"),
    "tan_coefficients_not_positive": (
        lambda: TanCoefficients(1, (Fraction(1), Fraction(0)), np.array([1.0, 0.0])),
        NumericError, "tangent coefficients must be positive, starting with 1"),
}


@pytest.mark.parametrize("call, error, message", DEGENERATE_CALLS.values(),
                         ids=DEGENERATE_CALLS.keys())
def test_degenerate_input_raises_its_class_and_says_why(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message if isinstance(message, re.Pattern)
                           else re.escape(message)) as caught:
            call()
    assert type(caught.value) is error


PATH_WRITERS = {
    "write_table": lambda path: write_table(path, ("x",), [[1.0]]),
    "write_scene": lambda path: write_scene(path, mirror=[[[0.0, 0.0], [1.0, 1.0]]]),
}


@pytest.mark.parametrize("path", [True, 1, None], ids=["bool", "int", "none"])
@pytest.mark.parametrize("write", PATH_WRITERS.values(), ids=PATH_WRITERS.keys())
def test_writer_path_must_be_str_or_pathlike(write, path):
    # open() takes an int or bool as a file descriptor, writes to it and closes it:
    # keep a duplicate of stdout to put back whatever the writer does.
    saved = os.dup(1)
    try:
        with pytest.raises(ValidationError, match="path"):
            write(path)
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _same_roots(got, want):
    return [(r.branch, type(r.branch), r.value) for r in got] == [
        (r.branch, type(r.branch), r.value) for r in want]


ANGLES = np.linspace(-1, 1, 5)
INVERSE_MEMBERS = [  # (A, B, a, phi0): trigonometric, then hyperbolic
    (1.0, 0.5, 1.25, 0.25), (1.0, 0.5, 0.125, 0.25)]


def _same_series(leading, value):
    got, want = (solve_series(1, 12, leading=x, exact=True) for x in (leading, value))
    return got.exact == want.exact and np.array_equal(got.coefficients, want.coefficients)


def _same_puiseux(c, gamma):
    window = AngleInterval(0.1, 4.0, 33)
    got, want = puiseux_diagnostics(c, gamma, window), puiseux_diagnostics(0.25, 3.0, window)
    return (got.ratios, got.expected_ratio, got.max_ratio_deviation) == (
        want.ratios, want.expected_ratio, want.max_ratio_deviation)


NUMPY_SCALARS = {
    "interval_samples": lambda: np.array_equal(
        AngleInterval(np.float64(0.0), np.float64(1.0), np.int64(9)).grid(),
        AngleInterval(0.0, 1.0, 9).grid()),
    "tan_coeffs_order": lambda: np.array_equal(tan_coeffs(np.int64(5)).values,
                                               tan_coeffs(5).values),
    "zeta_even_order": lambda: zeta_even(np.int64(6)) == zeta_even(6),
    "lambert_w_branch": lambda: lambert_w(np.int64(-1), -0.2) == lambert_w(-1, -0.2),
    "delay_roots_branches": lambda: _same_roots(
        delay_roots(0.9, 1.0, np.float64(0.3), [np.int64(0), np.int64(-1)]),
        delay_roots(0.9, 1.0, 0.3, [0, -1])),
    "spec_root_indices": lambda: SkewFamilySpec(
        "delay", np.float64(0.3), 0.9, alpha=1.0, root_indices=(np.int64(1),),
    ).root_indices == (1,),
    "solve_series_orders": lambda: np.array_equal(
        solve_series(np.int64(1), np.int64(12)).coefficients, solve_series(1, 12).coefficients),
    "point_by_point_phi0": lambda: np.array_equal(
        point_by_point_curve(1.0, 1.0, np.float64(0.3)).jet(np.linspace(-1, 1, 5)),
        point_by_point_curve(1.0, 1.0, 0.3).jet(np.linspace(-1, 1, 5))),
    "panel_integrals_tol": lambda: np.array_equal(
        panel_integrals(_line, [0.0, 1.0], np.float64(1e-10), ends=UNIT_ENDS),
        panel_integrals(_line, [0.0, 1.0], 1e-10, ends=UNIT_ENDS)),
    "interval_float32_ends": lambda: np.array_equal(
        AngleInterval(np.float32(0.25), np.float32(1.0), 10).grid(),
        AngleInterval(0.25, 1.0, 10).grid()),
    "solve_series_float64_leading": lambda: _same_series(np.float64(0.5), 0.5),
    "solve_series_float32_leading": lambda: _same_series(np.float32(0.5), 0.5),
    # Every value below is exact in float32, so each pair of calls gets equal numbers.
    "point_by_point_float32": lambda: np.array_equal(
        point_by_point_curve(np.float32(1.5), np.float32(1.25), np.float32(0.25)).jet(ANGLES),
        point_by_point_curve(1.5, 1.25, 0.25).jet(ANGLES)),
    "inverse_position_float32": lambda: all(np.array_equal(
        inverse_position_curve(*map(np.float32, args)).jet(ANGLES),
        inverse_position_curve(*args).jet(ANGLES)) for args in INVERSE_MEMBERS),
    "implied_alpha_float32": lambda: all(
        implied_alpha(*map(np.float32, args)) == implied_alpha(*args) for args in INVERSE_MEMBERS),
    "puiseux_diagnostics_float32": lambda: _same_puiseux(np.float32(0.25), np.float32(3.0)),
}


@pytest.mark.parametrize("call", NUMPY_SCALARS.values(), ids=NUMPY_SCALARS.keys())
def test_numpy_scalars_compute_what_python_numbers_do(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call()
