"""Public names: every exported name resolves, and the package re-exports the
defining modules' own objects."""

import importlib
import pkgutil
import sys

import pytest

import caustics

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(caustics.__path__) if not name.startswith("_")
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"caustics.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_submodules_objects():
    for attr in caustics.__all__:
        assert hasattr(caustics, attr), attr
        if attr == "__version__":
            continue
        obj = getattr(caustics, attr)
        owner = sys.modules[obj.__module__]
        assert owner.__name__.startswith("caustics."), attr
        assert getattr(owner, attr) is obj, attr
        assert attr in getattr(owner, "__all__", (attr,)), f"{owner.__name__}.__all__: {attr}"


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate edit of this list,
    # recorded in CHANGES.md and reflected in the README's "Public API" paragraph.
    assert sorted(caustics.__all__) == [
        "AngleInterval",
        "Caustic",
        "CausticAtInfinityError",
        "CausticSample",
        "CausticsError",
        "CharacteristicRoot",
        "CurveSamples",
        "CuspError",
        "DegenerateCurveError",
        "DegenerateSamplingError",
        "DomainError",
        "EnvelopeGap",
        "EnvelopePolyline",
        "EvaluationError",
        "FlatCausticError",
        "InclinationCurve",
        "JetDepthError",
        "MirrorReport",
        "NumericError",
        "Occlusion",
        "PantographSeries",
        "PantographSolution",
        "PoleError",
        "PuiseuxReport",
        "RayFamily",
        "ResonanceError",
        "SimilaritySpec",
        "SkewFamilySpec",
        "TanCoefficients",
        "TiltField",
        "ValidationError",
        "Verticality",
        "__version__",
        "build_family",
        "caustic_curve",
        "caustic_radius",
        "circle",
        "coframe",
        "continue_R",
        "cycloid",
        "delay_curve",
        "delay_roots",
        "envelope_gap",
        "envelope_numeric",
        "find_cusps",
        "frenet_residual",
        "hausdorff_distance",
        "implied_alpha",
        "inverse_position_curve",
        "lambert_w",
        "log_spiral",
        "mirror_report",
        "occlusion_check",
        "parabola_mirror",
        "point_by_point_curve",
        "polynomial_curve",
        "puiseux_curve",
        "puiseux_diagnostics",
        "rays_from_tilt",
        "reconstruct",
        "reflect_horizontal",
        "similarity_factor",
        "similarity_residual",
        "solution_curve",
        "solve_series",
        "tan_coeffs",
        "to_delay_form",
        "verticality_check",
        "zeta_even",
    ]


# Each submodule's __all__, sorted.
SUBMODULE_EXPORTS = {
    "caustic": [
        "AT_INFINITY",
        "CUSP",
        "Caustic",
        "CausticSample",
        "FLAT_TILT",
        "OK",
        "SimilaritySpec",
        "TiltField",
        "caustic_curve",
        "caustic_radius",
        "coframe",
        "similarity_residual",
    ],
    "cli": ["main", "parse_angle", "parse_interval"],
    "csvio": [
        "CAUSTIC_HEADER",
        "CURVE_HEADER",
        "write_caustic_csv",
        "write_coefficient_csv",
        "write_curve_csv",
        "write_table",
    ],
    "errors": [
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
    ],
    "inclination": [
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
    ],
    "oracle": [
        "CUSP_EXCLUSION_RADIUS",
        "EnvelopeGap",
        "EnvelopePolyline",
        "Occlusion",
        "PARALLEL_THRESHOLD",
        "RayFamily",
        "Verticality",
        "envelope_gap",
        "envelope_numeric",
        "hausdorff_distance",
        "occlusion_check",
        "rays_from_tilt",
        "reflect_horizontal",
        "verticality_check",
    ],
    "pantograph": [
        "BASE_GUARD",
        "JET_ORDER",
        "MirrorReport",
        "PantographSeries",
        "PantographSolution",
        "continue_R",
        "mirror_equation_residual",
        "mirror_report",
        "overlay_caustic_points",
        "parabola_mirror",
        "similarity_factor",
        "solution_curve",
        "solve_series",
    ],
    "quadrature": ["panel_integrals"],
    "skew": [
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
        "skew_equation_residual",
        "to_delay_form",
    ],
    "specfun": ["TanCoefficients", "lambert_w", "tan_coeffs", "zeta_even"],
    "svg": ["GROUP_ORDER", "write_scene"],
    "verify": ["SUITES", "TABLE", "run"],
}


def test_submodule_public_names_are_pinned():
    # Like the package list: a submodule name is added or removed on purpose.
    found = {}
    for name in SUBMODULES:
        names = getattr(importlib.import_module(f"caustics.{name}"), "__all__", None)
        found[name] = None if names is None else sorted(names)
    assert found == SUBMODULE_EXPORTS


# The modules whose ``__all__`` the package star-imports.
MODEL_MODULES = ["caustic", "errors", "inclination", "oracle", "pantograph", "skew", "specfun"]


def test_model_modules_export_disjoint_names():
    # A name in two lists would let the later star import hide the earlier object.
    owners = {}
    for name in MODEL_MODULES:
        for attr in importlib.import_module(f"caustics.{name}").__all__:
            owners.setdefault(attr, []).append(name)
    assert {attr: found for attr, found in owners.items() if len(found) > 1} == {}


def test_package_binds_only_its_exports_and_submodules():
    public = {name for name in vars(caustics) if not name.startswith("_")}
    submodules = {
        name for name in public
        if getattr(caustics, name) is sys.modules.get(f"caustics.{name}")
    }
    assert public - submodules == set(caustics.__all__) - {"__version__"}
    assert submodules <= set(SUBMODULES)


def test_errors_exports_every_exception_class():
    errors = importlib.import_module("caustics.errors")
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert sorted(defined) == SUBMODULE_EXPORTS["errors"]
    assert all(issubclass(getattr(errors, name), errors.CausticsError) for name in defined)
