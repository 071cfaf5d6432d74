"""The checks of ``caustics verify``: one table of ``(suite, name, check, bound)`` rows.

``check(n, seed)`` measures a row at ``n`` samples and a random ``seed``.  ``bound`` is a number,
or ``bound(n)`` where it grows with ``n``.  ``semicircle_reflection_hausdorff``, the node-by-node
``envelope_gap`` of a reflecting semicircle, keeps its name and is held to a fixed 1e-3; every other
bound is at most 100x the row's worst value over seeds 0-9 at 2 000 samples, and a row that
reads exactly 0 is held to 4 ulps of its reference.  The library is called through its
modules (``oracle.envelope_gap``), so that whatever wraps a module's functions sees these calls.
"""
from __future__ import annotations

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


def _step_halving(n, seed):
    n = max(n // 2, 500)
    return _reflection_gap(0.2, 1.2, n) / _reflection_gap(0.2, 1.2, n // 2)


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


def _lambert_sweep(n, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(50, n // 10)):
        radius = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        angle = rng.uniform(-math.pi, math.pi)
        z = radius * complex(math.cos(angle), math.sin(angle))
        w = complex(specfun.lambert_w(int(rng.integers(-3, 4)), z))
        worst = max(worst, abs(w * np.exp(w) - z) / max(abs(z), 1.0))
    return worst


def _zeta(order, reference):
    return ("specfun", f"zeta_{order}",
            lambda n, seed: abs(specfun.zeta_even(order) - reference), 4 * math.ulp(reference))


TABLE = (
    ("oracle", "circle_normals_focus_scatter", _circle_focus, _rounding(lambda n: n)),
    ("oracle", "semicircle_reflection_hausdorff",
     lambda n, seed: _reflection_gap(0.01, math.pi - 0.01, n), 1e-3),
    ("oracle", "reflection_matches_tilt_field", _reflection_directions,
     _rounding(lambda n: max(n, _REFLECTION_LEAST))),
    ("oracle", "step_halving_ratio", _step_halving, 0.5),
    ("residuals", "pantograph_residual_cycloid", _mirror(0), 2e-14),
    ("residuals", "pantograph_residual_m2", _mirror(1), 1e-8),
    ("residuals", "skew_point_residual",
     _skew(SkewFamilySpec("point_by_point", phi0=0.3, factor_a=1.2)), 1e-13),
    ("residuals", "skew_inverse_residual",
     _skew(SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5),))), 2e-14),
    ("residuals", "skew_delay_residual",
     _skew(SkewFamilySpec("delay", 0.0, 1.0, math.pi / 2, (1,), ((1.0, 0.5),))), 1e-12),
    ("residuals", "frenet_circle_residual", _frenet, 1e-3),
    ("specfun", "lambert_residual_sweep", _lambert_sweep, 1e-13),
    ("specfun", "tan_series_at_1",
     lambda n, seed: abs(float(specfun.tan_coeffs(30).eval(1.0)) - math.tan(1.0)), 5e-11),
    _zeta(2, math.pi**2 / 6.0),
    _zeta(10, math.pi**10 / 93555.0),
)


def run(suite: str, n: int, seed: int) -> list[tuple[str, float, float]]:
    """``(name, value, bound)`` of each row of ``suite`` (every row for ``"all"``), in table
    order; a row passes where ``value <= bound``."""
    return [(name, check(n, seed), bound(n) if callable(bound) else bound)
            for row_suite, name, check, bound in TABLE if suite in (row_suite, "all")]
