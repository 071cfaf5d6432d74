"""Plane curves by turning radius, tilted caustics, and self-similar mirrors.

The package models curves through the signed turning radius R(theta) as a
function of the tangent angle, computes the caustics generated by tilted
ray fields (evolutes, constant-skew fields, reflection of horizontal
light), constructs the curve families whose caustics reproduce the curve
itself, and solves the functional equation of self-reproducing mirrors.
A brute-force ray oracle cross-checks every closed form, and a command
line front end emits CSV tables and SVG figures.

The package exports each model module's ``__all__`` but the names in
``_SUBMODULE_ONLY``; ``cli``, ``csvio``, ``svg`` and ``quadrature`` add none.
"""
from . import caustic, errors, inclination, oracle, pantograph, skew, specfun
from .caustic import *
from .errors import *
from .inclination import *
from .oracle import *
from .pantograph import *
from .skew import *
from .specfun import *

# Status codes, tuning constants and residual checks stay in their modules.
_SUBMODULE_ONLY = (
    "OK", "CUSP", "FLAT_TILT", "AT_INFINITY", "BASE_GUARD", "JET_ORDER", "PARALLEL_THRESHOLD",
    "CUSP_EXCLUSION_RADIUS", "mirror_equation_residual", "overlay_caustic_points",
    "skew_equation_residual",
)
for _name in _SUBMODULE_ONLY:
    del globals()[_name]

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (inclination, caustic, skew, specfun, pantograph, oracle, errors)
    for name in module.__all__
    if name not in _SUBMODULE_ONLY
]
