"""Plane curves by turning radius, tilted caustics, and self-similar mirrors.

The package models curves through the signed turning radius R(theta) as a
function of the tangent angle, computes the caustics generated by tilted
ray fields (evolutes, constant-skew fields, reflection of horizontal
light), constructs the curve families whose caustics reproduce the curve
itself, and solves the functional equation of self-reproducing mirrors.
A brute-force ray oracle cross-checks every closed form, and a command
line front end emits CSV tables and SVG figures.
"""
from .caustic import (
    Caustic,
    CausticSample,
    SimilaritySpec,
    TiltField,
    caustic_curve,
    caustic_radius,
    coframe,
    similarity_residual,
)
from .errors import (
    CausticAtInfinityError,
    CausticsError,
    CuspError,
    DegenerateCurveError,
    DegenerateSamplingError,
    DomainError,
    EvaluationError,
    FlatCausticError,
    JetDepthError,
    NumericError,
    PoleError,
    ResonanceError,
    ValidationError,
)
from .inclination import (
    AngleInterval,
    CurveSamples,
    InclinationCurve,
    circle,
    cycloid,
    find_cusps,
    frenet_residual,
    log_spiral,
    polynomial_curve,
    reconstruct,
)
from .oracle import (
    EnvelopeGap,
    EnvelopePolyline,
    Occlusion,
    RayFamily,
    Verticality,
    envelope_gap,
    envelope_numeric,
    hausdorff_distance,
    occlusion_check,
    rays_from_tilt,
    reflect_horizontal,
    verticality_check,
)
from .pantograph import (
    MirrorReport,
    PantographSeries,
    PantographSolution,
    continue_R,
    mirror_report,
    parabola_mirror,
    similarity_factor,
    solution_curve,
    solve_series,
)
from .skew import (
    CharacteristicRoot,
    PuiseuxReport,
    SkewFamilySpec,
    build_family,
    delay_curve,
    delay_roots,
    implied_alpha,
    inverse_position_curve,
    point_by_point_curve,
    puiseux_curve,
    puiseux_diagnostics,
    to_delay_form,
)
from .specfun import TanCoefficients, lambert_w, tan_coeffs, zeta_even

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curves
    "AngleInterval",
    "CurveSamples",
    "InclinationCurve",
    "circle",
    "cycloid",
    "find_cusps",
    "frenet_residual",
    "log_spiral",
    "polynomial_curve",
    "reconstruct",
    # caustics
    "Caustic",
    "CausticSample",
    "SimilaritySpec",
    "TiltField",
    "caustic_curve",
    "caustic_radius",
    "coframe",
    "similarity_residual",
    # self-similar families
    "CharacteristicRoot",
    "PuiseuxReport",
    "SkewFamilySpec",
    "build_family",
    "delay_curve",
    "delay_roots",
    "implied_alpha",
    "inverse_position_curve",
    "point_by_point_curve",
    "puiseux_curve",
    "puiseux_diagnostics",
    "to_delay_form",
    # special functions
    "TanCoefficients",
    "lambert_w",
    "tan_coeffs",
    "zeta_even",
    # mirrors
    "MirrorReport",
    "PantographSeries",
    "PantographSolution",
    "continue_R",
    "mirror_report",
    "parabola_mirror",
    "similarity_factor",
    "solution_curve",
    "solve_series",
    # oracle
    "EnvelopeGap",
    "EnvelopePolyline",
    "Occlusion",
    "RayFamily",
    "Verticality",
    "envelope_gap",
    "envelope_numeric",
    "hausdorff_distance",
    "occlusion_check",
    "rays_from_tilt",
    "reflect_horizontal",
    "verticality_check",
    # errors
    "CausticAtInfinityError",
    "CausticsError",
    "CuspError",
    "DegenerateCurveError",
    "DegenerateSamplingError",
    "DomainError",
    "EvaluationError",
    "FlatCausticError",
    "JetDepthError",
    "NumericError",
    "PoleError",
    "ResonanceError",
    "ValidationError",
]
