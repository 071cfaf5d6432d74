"""Curves whose constant-tilt caustic is a similar copy of themselves.

With a constant tilt phi0 the self-similarity law collapses to a scalar
functional equation for the turning radius,

    cos(phi0) R'(theta) + sin(phi0) R(theta) = a R(argument),

and the three possible arguments give three solution families:

* ``point_by_point`` (argument theta): exponentials, i.e. equiangular
  spirals, degenerating to the circle exactly at a = sin(phi0);
* ``inverse_position`` (argument alpha - theta): solutions of a constant
  coefficient second order equation - trigonometric, linear (circle
  involutes) or hyperbolic depending on the sign of a^2 - sin(phi0)^2;
* ``delay`` (argument theta - alpha): exponential sums whose rates are
  Lambert W values, one per branch.

The module also carries the cuspidal spirals R = exp(c theta) sin(gamma
theta) and their geometric-progression diagnostics.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _checks
from .caustic import SimilaritySpec, TiltField, similarity_residual
from .errors import (
    DegenerateCurveError,
    NumericError,
    ValidationError,
)
from .inclination import (
    AngleInterval,
    InclinationCurve,
    _exp_sum_curve,
    _exp_sum_integrals,
    _exp_sum_primitive,
    find_cusps,
    log_spiral,
)
from .specfun import lambert_w

__all__ = [
    "SkewFamilySpec",
    "CharacteristicRoot",
    "point_by_point_curve",
    "inverse_position_curve",
    "implied_alpha",
    "to_delay_form",
    "delay_roots",
    "delay_curve",
    "build_family",
    "skew_equation_residual",
    "puiseux_curve",
    "PuiseuxReport",
    "puiseux_diagnostics",
]

_CASES = ("point_by_point", "inverse_position", "delay")


def _check_phi0(phi0: float) -> float:
    phi0 = _checks.real("phi0", phi0)
    if not abs(phi0) < math.pi / 2:
        raise ValidationError(f"tilt phi0 must satisfy |phi0| < pi/2, got {phi0}")
    return phi0


@dataclass(frozen=True)
class SkewFamilySpec:
    """A constant-tilt similarity problem.

    ``coefficients`` holds one ``(A, B)`` pair per root (delay case).  The
    other cases take ``alpha = 0``, ``root_indices = (0,)`` and a single
    pair, with ``B = 0`` for ``point_by_point``, whose one amplitude is A.
    Advance problems (``alpha < 0``) are normalised on construction by
    reversing the angle, which flips the signs of alpha, phi0 and the factor.
    """

    case: str
    phi0: float
    factor_a: float
    alpha: float = 0.0
    root_indices: tuple[int, ...] = (0,)
    coefficients: tuple[tuple[float, float], ...] = ((1.0, 0.0),)

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValidationError(f"case must be one of {_CASES}, got {self.case!r}")
        numbers = (_checks.real("factor_a", self.factor_a), _checks.real("alpha", self.alpha),
                   _check_phi0(self.phi0))
        if self.case == "delay":
            numbers = to_delay_form(*numbers)
        for name, value in zip(("factor_a", "alpha", "phi0"), numbers):
            object.__setattr__(self, name, value)
        pairs = _checks.array("coefficients", self.coefficients, 2)
        if not (len(pairs) and np.isfinite(pairs).all()):
            raise ValidationError("coefficients must hold at least one (A, B) pair, all finite")
        object.__setattr__(self, "coefficients", tuple(map(tuple, pairs.tolist())))
        indices = _checks.items("root_indices", self.root_indices)
        object.__setattr__(self, "root_indices",
                           tuple(_checks.integer("root_indices", i) for i in indices))
        if self.case != "delay" and (
            self.alpha != 0.0 or self.root_indices != (0,) or len(self.coefficients) != 1
            or self.case == "point_by_point" and self.coefficients[0][1] != 0.0
        ):
            raise ValidationError(
                f"the {self.case} case takes alpha = 0, root_indices (0,) and one (A, B) pair"
                + (" with B = 0" if self.case == "point_by_point" else "")
            )

    def equation_alpha(self) -> float:
        """The shift alpha of this family's functional equation: implied by the amplitudes for
        ``inverse_position``, the delay itself for ``delay``, 0 for ``point_by_point``."""
        if self.case == "inverse_position":
            return implied_alpha(*self.coefficients[0], self.factor_a, self.phi0)
        return self.alpha if self.case == "delay" else 0.0


def point_by_point_curve(amplitude: float, factor_a: float, phi0: float) -> InclinationCurve:
    """The family whose caustic reproduces the curve at equal angles.

    R = A exp(b theta) with b = (a - sin phi0)/cos phi0.  The circle is
    the degenerate member at a = sin(phi0) exactly.
    """
    amplitude, factor_a = _checks.real("amplitude", amplitude), _checks.real("factor_a", factor_a)
    phi0 = _check_phi0(phi0)
    if amplitude == 0.0:
        raise DegenerateCurveError("zero amplitude collapses the curve to a point")
    b = (factor_a - math.sin(phi0)) / math.cos(phi0)
    return replace(
        log_spiral(amplitude, b),
        label=f"skew_point(A={amplitude:g}, a={factor_a:g}, phi0={phi0:g})",
    )


def _inverse_member(amplitude_a, amplitude_b, factor_a, phi0) -> tuple:
    """Checked A, B, a, sin phi0 and cos phi0 of an inverse-position member, then a and
    sin phi0 scaled by 2^-f to put the larger in [1/2, 1), f, and omega^2 scaled by 4^-f: so
    omega^2 neither over- nor underflows, and ordinary inputs keep every bit of omega."""
    A, B = _checks.real("amplitude_a", amplitude_a), _checks.real("amplitude_b", amplitude_b)
    factor_a, phi0 = _checks.real("factor_a", factor_a), _check_phi0(phi0)
    if A == 0.0 and B == 0.0:
        raise DegenerateCurveError("both amplitudes vanish; the curve is a point")
    s, c = math.sin(phi0), math.cos(phi0)
    f = math.frexp(max(abs(factor_a), abs(s)))[1]
    u, v = math.ldexp(factor_a, -f), math.ldexp(s, -f)
    return A, B, factor_a, s, c, u, v, f, (u - v) * (u + v) / (c * c)


def inverse_position_curve(
    amplitude_a: float,
    amplitude_b: float,
    factor_a: float,
    phi0: float,
) -> InclinationCurve:
    """The family whose caustic runs through the curve angle-reversed.

    Solves R'' + omega^2 R = 0 with
    omega^2 = (a^2 - sin(phi0)^2)/cos(phi0)^2; the sign of omega^2 selects
    trigonometric, linear (circle involute, exactly at a = +-sin phi0) or
    hyperbolic amplitudes.
    """
    A, B, factor_a, s, *_, f, omega_sq = _inverse_member(amplitude_a, amplitude_b, factor_a, phi0)
    try:
        w = math.ldexp(math.sqrt(abs(omega_sq)), f)
    except OverflowError:
        raise ValidationError(f"omega of the inverse-position member A={A:g}, B={B:g}, "
                              f"a={factor_a:g}, sin(phi0)={s:g} exceeds the float range") from None
    if omega_sq > 0.0:
        def jet(t):
            wt = w * np.asarray(t, dtype=float)
            c, s = np.cos(wt), np.sin(wt)
            return A * c + B * s, -A * w * s + B * w * c

        return _exp_sum_curve(jet, f"skew_inverse(A={A:g}, B={B:g}, omega={w:g})",
                              [1j * w], [complex(A, -B)])
    if omega_sq == 0.0:
        def jet(t):
            t = np.asarray(t, dtype=float)
            return A + B * t, np.full_like(t, B)

        return InclinationCurve(jet, label=f"circle_involute(A={A:g}, B={B:g})")

    def jet(t):
        wt = w * np.asarray(t, dtype=float)
        c, s = np.cosh(wt), np.sinh(wt)
        return A * c + B * s, A * w * s + B * w * c

    return _exp_sum_curve(jet, f"skew_inverse_hyp(A={A:g}, B={B:g}, omega={w:g})",
                          [w, -w], [0.5 * A + 0.5 * B, 0.5 * A - 0.5 * B])


def implied_alpha(amplitude_a: float, amplitude_b: float, factor_a: float, phi0: float) -> float:
    """The angle-reversal shift consistent with given inverse-position amplitudes.

    The shift alpha is not free: matching coefficients determines it from A,
    B, a and phi0.  Trigonometric members (a^2 > sin(phi0)^2) have one;
    hyperbolic members have one where the matched cosh(w alpha) is
    positive; on the circle involutes (a = +-sin(phi0)), a = sin(phi0) with
    B = 0 takes any (0 is returned), and a = -sin(phi0) with B != 0 one.
    Any other member raises ``ValidationError``.
    """
    A, B, factor_a, s, c, u, v, f, omega_sq = _inverse_member(
        amplitude_a, amplitude_b, factor_a, phi0)
    # (A, B) scaled like (a, sin phi0): alpha has degree 0 in (A, B) and -1 in (a, sin phi0),
    # so no product over- or underflows, and ordinary inputs keep every bit.
    e = math.frexp(max(abs(A), abs(B)))[1]
    x, y, w = math.ldexp(A, -e), math.ldexp(B, -e), math.sqrt(abs(omega_sq))
    member = f"the inverse-position member A={A:g}, B={B:g}, a={factor_a:g}, sin(phi0)={s:g}"
    try:  # the unscaled alpha overflows where a and sin(phi0) are far below 1
        if omega_sq > 0.0:
            p = (y * w * c + x * v) / u
            m = (-x * w * c + y * v) / u
            denom = x * x + y * y
            cos_wa = (x * p - y * m) / denom
            sin_wa = (y * p + x * m) / denom
            return math.ldexp(math.atan2(sin_wa, cos_wa) / w, -f)
        if omega_sq < 0.0 and u != 0.0 and x * x != y * y:
            # cosh(w alpha) and sinh(w alpha) solve A C + B S = p, B C + A S = m.
            p = (y * w * c + x * v) / u
            m = -(x * w * c + y * v) / u
            denom = x * x - y * y
            if (x * p - y * m) / denom > 0.0:
                return math.ldexp(math.asinh((x * m - y * p) / denom) / w, -f)
    except OverflowError:
        raise ValidationError(f"the shift alpha of {member} exceeds the float range") from None
    if omega_sq == 0.0 and factor_a == s and B == 0.0:
        return 0.0
    if omega_sq == 0.0 and factor_a == -s and s * y != 0.0:
        alpha = -(c * y + 2 * s * x) / (s * y)  # a float division past the limit gives inf
        if math.isfinite(alpha):
            return alpha
        raise ValidationError(f"the shift alpha of {member} exceeds the float range")
    raise ValidationError(f"no real shift alpha for {member}")


def to_delay_form(factor_a: float, alpha: float, phi0: float) -> tuple[float, float, float]:
    """Normalise an advance problem (alpha < 0) to delay form.

    Reversing the angle maps solutions of the advance equation to
    solutions of the delay equation with flipped signs of a, alpha, phi0.
    """
    factor_a, alpha = _checks.real("factor_a", factor_a), _checks.real("alpha", alpha)
    phi0 = _check_phi0(phi0)
    if alpha > 0:
        return factor_a, alpha, phi0
    if alpha == 0.0:
        raise ValidationError("alpha = 0 is not a delay problem but the point_by_point case")
    return -factor_a, -alpha, -phi0


@dataclass(frozen=True)
class CharacteristicRoot:
    """One exponential rate of the delay family, tagged by Lambert branch."""

    branch: int
    value: complex


def delay_roots(
    factor_a: float,
    alpha: float,
    phi0: float,
    indices: Sequence[int],
) -> list[CharacteristicRoot]:
    """Exponential rates lambda with (lambda + tan phi0) e^(alpha lambda) = a / cos phi0.

    One root per requested Lambert branch:
    ``lambda_k = W_k(rhs)/alpha - tan(phi0)`` with
    ``rhs = alpha a e^(alpha tan phi0)/cos(phi0)``.  Each returned root is
    verified against the characteristic equation to ``1e-10 max(1, |a / cos phi0|)``:
    absolute while |a / cos phi0| <= 1, relative beyond.
    """
    phi0 = _check_phi0(phi0)
    factor_a, alpha = _checks.real("factor_a", factor_a), _checks.real("alpha", alpha)
    if alpha <= 0.0:
        raise ValidationError(
            "delay_roots needs alpha > 0; use to_delay_form to normalise an advance problem"
        )
    tphi = math.tan(phi0)
    try:
        rhs = alpha * factor_a * math.exp(alpha * tphi) / math.cos(phi0)
    except OverflowError:
        rhs = math.inf
    rhs = _checks.real("the Lambert argument alpha a e^(alpha tan phi0) / cos phi0", rhs)
    bound = 1e-10 * max(1.0, abs(factor_a / math.cos(phi0)))
    roots: list[CharacteristicRoot] = []
    for k in _checks.items("indices", indices):
        k = _checks.integer("indices", k)
        w = lambert_w(k, rhs)
        lam = complex(w) / alpha - tphi
        try:
            resid = abs((lam + tphi) * cmath.exp(alpha * lam) - factor_a / math.cos(phi0))
        except OverflowError:  # e^(alpha lambda) passes the float limit
            resid = math.inf
        if not resid <= bound:
            raise NumericError(f"characteristic residual {resid:.3e} on branch {k} exceeds "
                               f"1e-10 max(1, |a / cos phi0|) = {bound:.3e}")
        roots.append(CharacteristicRoot(branch=k, value=lam))
    return roots


def delay_curve(spec: SkewFamilySpec, roots: Sequence[CharacteristicRoot]) -> InclinationCurve:
    """Real exponential-sum solution of the delay similarity problem.

    Each root contributes ``exp(xi theta) (A cos(eta theta) + B sin(eta
    theta))`` with its ``(A, B)`` pair from the spec.  Real roots use only
    A.  The coefficient list must match the root list position by
    position, and at least one coefficient must be nonzero; a coefficient
    of R' past the float range raises ``ValidationError``.  The jet puts
    the roots on axis 0, so each ufunc runs along the angles, and adds their
    terms in the grouping ``np.sum`` gives a last axis, bit for bit.
    """
    if spec.case != "delay":
        raise ValidationError(f"spec is a {spec.case!r} problem, not delay")
    if len(spec.coefficients) != len(roots):
        raise ValidationError(
            f"{len(roots)} roots but {len(spec.coefficients)} coefficient pairs"
        )
    if all(a == 0.0 and b == 0.0 for a, b in spec.coefficients):
        raise DegenerateCurveError("all coefficients vanish; the curve is a point")
    lam = np.array([rt.value for rt in roots], dtype=complex)[:, None]
    xi, eta = lam.real, lam.imag
    amp_a, amp_b = np.array(spec.coefficients).T[:, :, None]

    # R' = sum exp(xi t) (ca cos(eta t) + cb sin(eta t)).  Per root, the cos and the sin
    # coefficients of R and R' on axis 1: (A, ca) and (B, cb).
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range raises
        on_cos = np.stack([amp_a, amp_a * xi + amp_b * eta], axis=1)
        on_sin = np.stack([amp_b, amp_b * xi - amp_a * eta], axis=1)
    label = (f"skew_delay(branches={','.join(str(rt.branch) for rt in roots)}, "
             f"a={spec.factor_a:g}, alpha={spec.alpha:g})")
    if not (np.isfinite(on_cos).all() and np.isfinite(on_sin).all()):
        raise ValidationError(f"a coefficient of R' of {label} exceeds the float range")

    def jet(t):
        t = np.asarray(t, dtype=float)
        row = t.reshape(1, -1)
        phase = (eta * row)[:, None]
        terms = np.exp(xi * row)[:, None] * (on_cos * np.cos(phase) + on_sin * np.sin(phase))
        # np.sum adds a contiguous last axis in turn from +0.0 below 8 terms, pairwise from 8.
        total = (np.add.reduce(terms) if len(terms) < 8
                 else np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1))
        return tuple(total.reshape(2, *t.shape))

    return _exp_sum_curve(jet, label, lam[:, 0], amp_a[:, 0] - 1j * amp_b[:, 0])


def build_family(spec: SkewFamilySpec) -> InclinationCurve:
    """Construct the curve described by a family spec."""
    if spec.case == "point_by_point":
        return point_by_point_curve(spec.coefficients[0][0], spec.factor_a, spec.phi0)
    if spec.case == "inverse_position":
        a0, b0 = spec.coefficients[0]
        return inverse_position_curve(a0, b0, spec.factor_a, spec.phi0)
    roots = delay_roots(spec.factor_a, spec.alpha, spec.phi0, spec.root_indices)
    return delay_curve(spec, roots)


def skew_equation_residual(
    curve: InclinationCurve,
    phi0: float,
    factor_a: float,
    case: str,
    interval: AngleInterval,
    alpha: float = 0.0,
) -> float:
    """Sup-norm defect of ``cos(phi0) R' + sin(phi0) R = a R(arg)``, arg theta, alpha - theta or
    theta - alpha by ``case``: ``caustic.similarity_residual`` under ``TiltField.skew(phi0)``
    with beta = (0 or alpha) + pi/2 - phi0 and sign -1 for inverse_position."""
    phi0 = _check_phi0(phi0)
    alpha = _checks.real("alpha", alpha)  # SimilaritySpec checks factor_a
    if case not in _CASES:
        raise ValidationError(f"case must be one of {_CASES}, got {case!r}")
    beta = (0.0 if case == "point_by_point" else alpha) + math.pi / 2 - phi0
    law = SimilaritySpec(factor_a, beta, -1 if case == "inverse_position" else 1)
    return similarity_residual(curve, TiltField.skew(phi0), law, interval)


# ---------------------------------------------------------------------------
# cuspidal spirals


def puiseux_curve(c: float, gamma: float) -> InclinationCurve:
    """R = exp(c theta) sin(gamma theta): cusps every pi/gamma."""
    c, gamma = _checks.real("c", c), _checks.real("gamma", gamma)
    if gamma <= 0.0:
        raise ValidationError("gamma must be positive")

    def jet(t):
        t = np.asarray(t, dtype=float)
        grow, s = np.exp(c * t), np.sin(gamma * t)
        return grow * s, grow * (c * s + gamma * np.cos(gamma * t))

    return _exp_sum_curve(jet, f"puiseux(c={c:g}, gamma={gamma:g})", [complex(c, gamma)], [-1j])


@dataclass(frozen=True, eq=False)
class PuiseuxReport:
    """Cusp geometry of a cuspidal spiral; ``center`` is None for gamma = 1 and c^2 = 0."""

    c: float
    gamma: float
    cusp_thetas: tuple[float, ...]
    cusp_points: np.ndarray
    center: np.ndarray | None
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    expected_ratio: float
    max_ratio_deviation: float


def puiseux_diagnostics(c: float, gamma: float, interval: AngleInterval) -> PuiseuxReport:
    """Locate the cusps of R = exp(c theta) sin(gamma theta) and measure them.

    Cusp angles come from sign changes of R; their positions, with the curve
    starting at the interval's first angle, and the centre from its closed form.  For a
    genuine spiral the distances of successive cusps from the centre form
    a geometric progression with ratio exp(c pi / gamma); the report
    carries the measured ratios and their worst deviation from that value.
    The doubly degenerate c = 0, gamma = 1 case has no centre; there the
    ratios compare successive cusp-to-cusp chords instead.
    """
    c, gamma = _checks.real("c", c), _checks.real("gamma", gamma)
    curve = puiseux_curve(c, gamma)
    cusps = find_cusps(curve, interval)
    if len(cusps) < 3:
        raise ValidationError(
            f"interval holds only {len(cusps)} cusps; need at least 3 for ratios"
        )
    pts = _exp_sum_integrals(curve, np.concatenate([[interval.lo], cusps]))[:2, 1:].T

    expected = math.exp(c * math.pi / gamma)
    # Exactly where the rate c + i (1 - gamma) of R e^(i theta) has c^2 + (gamma - 1)^2 = 0 in
    # floats: gamma = 1, c^2 rounds to 0.
    degenerate = gamma == 1.0 and c * c == 0.0
    if degenerate:
        center = None
        dists = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    else:
        # The primitive F of R e^(i theta) vanishes where the spiral winds in, so the
        # positions F - F(theta0) wind in to the centre -F(theta0).
        start = -_exp_sum_primitive(curve, interval.lo)
        center = np.array([start.real, start.imag])
        dists = np.linalg.norm(pts - center, axis=1)
    ratios = dists[1:] / dists[:-1]
    deviation = float(np.max(np.abs(ratios - expected))) if ratios.size else math.nan
    return PuiseuxReport(
        c=c,
        gamma=gamma,
        cusp_thetas=tuple(float(t) for t in cusps),
        cusp_points=pts,
        center=center,
        distances=tuple(float(d) for d in dists),
        ratios=tuple(float(r) for r in ratios),
        expected_ratio=expected,
        max_ratio_deviation=deviation,
    )
