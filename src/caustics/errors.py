"""Exception taxonomy shared by all caustics modules.

Geometry code fails in a handful of recognisable ways (a pole inside an
integration interval, a flattening caustic, a non-finite radius, ...)
and callers are expected to catch these precisely, so each failure mode
gets its own class.  Everything derives from :class:`CausticsError`.  A
failed node of ``caustic_curve`` raises nothing: its ``flag`` says why.
"""

__all__ = [
    "CausticsError",
    "ValidationError",
    "DomainError",
    "EvaluationError",
    "NumericError",
    "DegenerateSamplingError",
    "DegenerateCurveError",
    "FlatCausticError",
    "PoleError",
    "ResonanceError",
    "JetDepthError",
]


class CausticsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CausticsError, ValueError):
    """Malformed arguments: bad shapes, out-of-range parameters, bad CLI text."""


class DomainError(CausticsError, ValueError):
    """A requested angle or interval leaves the region where the curve is defined."""


class EvaluationError(CausticsError, ArithmeticError):
    """A radius or tilt callable produced a non-finite value."""


class NumericError(CausticsError, ArithmeticError):
    """An iteration or quadrature failed to reach its stated tolerance."""


class DegenerateSamplingError(CausticsError, ValueError):
    """Too few samples, or samples that coincide in arclength."""


class DegenerateCurveError(CausticsError, ValueError):
    """All defining coefficients vanish; the curve collapses to a point."""


class FlatCausticError(CausticsError, ArithmeticError):
    """The tilt derivative is too close to 1: the focusing map degenerates.  Raised by
    ``caustic_radius`` and ``similarity_residual``; ``caustic_curve`` flags the node instead."""


class PoleError(CausticsError, ValueError):
    """Evaluation exactly at a pole (for example Lambert W branches k != 0 at 0)."""


class ResonanceError(CausticsError, ArithmeticError):
    """A series recursion divided by zero; the family needs a second parameter."""


class JetDepthError(CausticsError, ValueError):
    """A doubling continuation needs more derivative orders than were prepared."""
