"""The checks of ``caustics verify``: one table of ``(suite, name, check, bound)`` rows.

``check(n, seed)`` measures a row at ``n`` samples and a random ``seed``.  ``bound`` is a number,
or ``bound(n)`` where it grows with ``n``.  A sweep row (``_sweep``) draws its parameters from
the seed, and its check returns ``(value, draw)`` with the draw that set the value; an order
row (``_order``) is the ratio of a measure at two step sizes.
``semicircle_reflection_hausdorff``, the node-by-node ``envelope_gap`` of a reflecting
semicircle, keeps its name and is held to a fixed 1e-3; ``reconstruct_exact_gap``, a ratio to
the error ``reconstruct``'s quadrature states, is held to 1; every other bound is at most 100x the
row's worst value over seeds 0-9 at 2 000 samples, and a row that reads exactly 0 is held to
4 ulps of its reference.  The library is called through its modules (``oracle.envelope_gap``),
so that whatever wraps a module's functions sees these calls.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import inclination, oracle, pantograph, skew, specfun
from .caustic import TiltField
from .inclination import AngleInterval
from .pantograph import PantographSolution
from .skew import SkewFamilySpec

__all__ = ["SUITES", "TABLE", "run"]

SUITES = ("oracle", "residuals", "specfun", "all")
_REFLECTION_LEAST = 4001  # reflection_matches_tilt_field runs at max(n, 4001) samples


def _rounding(size):
    """10 roundings a sample at ``size(n)`` samples: the oracle rows grow as about 0.3 eps n."""
    return lambda n: 10 * np.finfo(float).eps * size(n)


def _sweep(draw, measure, count):
    """A row whose value is the worst ``measure(params, n)`` over ``count(n)`` draws.

    ``draw(rng)`` sees only the seeded generator and returns the parameters of one draw, or
    ``None`` where an input rule rejects them, so a rejection never reads a measurement.  The
    check returns ``(value, (index, params))``: the worst value and the draw that set it, the
    first such draw on a tie and the first NaN if one is measured.
    """
    def check(n, seed):
        rng = np.random.default_rng(seed)
        drawn = [(index, params) for index in range(count(n))
                 if (params := draw(rng)) is not None]
        values = [measure(params, n) for _, params in drawn]
        worst = int(np.argmax(values))
        return values[worst], drawn[worst]
    return check


def _order(measure, size):
    """A row whose value is ``measure(m) / measure(m // 2)`` at ``m = size(n)``: about
    ``2^-p`` for an error of order ``p`` in the step."""
    return lambda n, seed: measure(size(n)) / measure(size(n) // 2)


def _circle_focus(n, seed):
    window = AngleInterval(0.05, math.pi - 0.05, n)
    family = oracle.rays_from_tilt(inclination.circle(1.0), TiltField.evolute(), window)
    envelope = oracle.envelope_numeric(family)
    # Normal rays of a circle meet one radius away from any of their bases.
    center = family.bases[0] + family.directions[0]
    return float(np.nanmax(np.linalg.norm(envelope.points - center, axis=1)))


def _reflection_gap(lo, hi, n):
    window = AngleInterval(lo, hi, n)
    return oracle.envelope_gap(inclination.circle(1.0), TiltField.reflection(), window).distance


def _reflection_directions(n, seed):
    window = AngleInterval(0.01, math.pi - 0.01, max(n, _REFLECTION_LEAST))
    samples = inclination.reconstruct(inclination.circle(1.0), window)
    thetas = samples.theta
    family = oracle.reflect_horizontal(samples.points, source_thetas=thetas)
    want = np.stack([np.cos(2 * thetas), np.sin(2 * thetas)], axis=1)
    return float(np.max(np.linalg.norm(family.directions[1:-1] - want[1:-1], axis=1)))


def _mirror(k):
    window = AngleInterval(0.01, 2 * math.pi, 257)
    return lambda n, seed: pantograph.mirror_equation_residual(
        PantographSolution(pantograph.solve_series(k)), window)


def _skew(spec):
    return lambda n, seed: skew.skew_equation_residual(
        skew.build_family(spec), spec.phi0, spec.factor_a, spec.case, AngleInterval(-2, 2, 201),
        alpha=spec.equation_alpha())


def _frenet(n, seed):
    window = AngleInterval(0.3, math.pi - 0.3, 257)
    return inclination.frenet_residual(inclination.reconstruct(inclination.circle(1.0), window))


_EXACT_CURVES = (  # stock curves that reconstruct takes in closed form, |R| < 600 on the draws
    (inclination.circle, 1.5), (inclination.cycloid, -0.8), (inclination.log_spiral, 1.0, 0.3),
    (skew.puiseux_curve, 0.2, 2.5), (skew.build_family, SkewFamilySpec("point_by_point", 0.3, 0.5)),
    (skew.build_family, SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5),))),
    (skew.inverse_position_curve, 1.0, 0.5, 0.1, 0.3),
    (skew.build_family, SkewFamilySpec("delay", 0.3, 0.9, 1.6, (-1, 1), ((1.0, 0.2), (0.8, -0.3)))),
)


def _exact_draw(rng):
    """An index into ``_EXACT_CURVES`` and a window ``(lo, width, size)`` in [-2 pi, 6 pi]."""
    return (int(rng.integers(len(_EXACT_CURVES))), rng.uniform(-2 * math.pi, 2 * math.pi),
            rng.uniform(0.5, 4 * math.pi), int(rng.choice([9, 33, 129, 257])))


def _exact_gap(params, n):
    """The largest gap between ``reconstruct``'s closed form and its quadrature path
    (``inclination._integrate``) in x, y or arclength, over ``RECONSTRUCT_TOL + 50 eps int |R|``
    with ``int |R|`` taken as the quadrature's ``sum |delta s|``, which is at most that."""
    (make, *args), (lo, width, size) = _EXACT_CURVES[params[0]], params[1:]
    curve, thetas = make(*args), np.linspace(lo, lo + width, size)
    closed = inclination.reconstruct(curve, thetas)
    numeric = inclination._integrate(curve.jet, thetas, closed.radius, closed.radius_prime)
    gap = np.max(np.abs(numeric - np.stack([closed.x, closed.y, closed.arclength])))
    floor = 50 * np.finfo(float).eps * np.abs(np.diff(numeric[2])).sum()
    return float(gap / (inclination.RECONSTRUCT_TOL + floor))


def _lambert_draw(rng):
    radius = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
    angle = rng.uniform(-math.pi, math.pi)
    return int(rng.integers(-3, 4)), radius * complex(math.cos(angle), math.sin(angle))


def _lambert_residual(params, n):
    branch, z = params
    w = complex(specfun.lambert_w(branch, z))
    return abs(w * np.exp(w) - z) / max(abs(z), 1.0)


def _zeta(order, reference):
    return ("specfun", f"zeta_{order}",
            lambda n, seed: abs(specfun.zeta_even(order) - reference), 4 * math.ulp(reference))


TABLE = (
    ("oracle", "circle_normals_focus_scatter", _circle_focus, _rounding(lambda n: n)),
    ("oracle", "semicircle_reflection_hausdorff",
     lambda n, seed: _reflection_gap(0.01, math.pi - 0.01, n), 1e-3),
    ("oracle", "reflection_matches_tilt_field", _reflection_directions,
     _rounding(lambda n: max(n, _REFLECTION_LEAST))),
    ("oracle", "step_halving_ratio",
     _order(functools.partial(_reflection_gap, 0.2, 1.2), lambda n: max(n // 2, 500)), 0.5),
    ("residuals", "pantograph_residual_cycloid", _mirror(0), 2e-14),
    ("residuals", "pantograph_residual_m2", _mirror(1), 1e-8),
    ("residuals", "skew_point_residual",
     _skew(SkewFamilySpec("point_by_point", phi0=0.3, factor_a=1.2)), 1e-13),
    ("residuals", "skew_inverse_residual",
     _skew(SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5),))), 2e-14),
    ("residuals", "skew_delay_residual",
     _skew(SkewFamilySpec("delay", 0.0, 1.0, math.pi / 2, (1,), ((1.0, 0.5),))), 1e-12),
    ("residuals", "frenet_circle_residual", _frenet, 1e-3),
    ("residuals", "reconstruct_exact_gap",
     _sweep(_exact_draw, _exact_gap, lambda n: max(5, n // 100)), 1.0),
    ("specfun", "lambert_residual_sweep",
     _sweep(_lambert_draw, _lambert_residual, lambda n: max(50, n // 10)), 1e-13),
    ("specfun", "tan_series_at_1",
     lambda n, seed: abs(float(specfun.tan_coeffs(30).eval(1.0)) - math.tan(1.0)), 5e-11),
    _zeta(2, math.pi**2 / 6.0),
    _zeta(10, math.pi**10 / 93555.0),
)


def run(suite: str, n: int, seed: int) -> list[tuple[str, float, float, tuple | None]]:
    """``(name, value, bound, draw)`` of each row of ``suite`` (every row for ``"all"``), in
    table order; a row passes where ``value <= bound``.  ``draw`` is a sweep row's worst draw,
    ``(index, params)``, and ``None`` for any other row."""
    rows = []
    for row_suite, name, check, bound in TABLE:
        if suite in (row_suite, "all"):
            result = check(n, seed)
            value, draw = result if isinstance(result, tuple) else (result, None)
            rows.append((name, value, bound(n) if callable(bound) else bound, draw))
    return rows
