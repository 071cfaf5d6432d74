"""Mirrors whose reflection caustic is a scaled copy of themselves.

A vertical mirror re-imaging horizontal light onto itself satisfies the
pantograph equation

    sin(theta) R'(theta) = 4 a R(2 theta) - 3 cos(theta) R(theta),

whose analytic solutions come in one family per integer k: the auxiliary
profile Q = R / sin(theta) is a power series starting at theta^k, the
scale factor is forced to a = (k+4) / 2^(k+3), and the remaining
coefficients follow from a tangent-weighted recursion.  The series
converges on |theta| < pi (Q has a pole at pi) but serves [0, pi/2 - guard]
only, where its order-n tail is about 2^-n; values beyond are produced by the
doubling identity R(2u) = (3 cos(u) R(u) + sin(u) R'(u)) / (4a), applied
to Taylor jets in h of R(u + h) so that each doubling can pay for the
derivative it consumes.  Every step on a jet is a constant table, built
once for jets of ``JET_ORDER + 1`` rows.  The jet of Q is one table of the
powers of u^2 summed against a per-series table of the weighted
coefficients a_n C(n, j), within Horner's a-priori error bound.  Since
sin(u + h) = sin u cos h + cos u sin h, a product with a trig jet is
sin u (T_c X) + cos u (T_s X), with T_c and T_s the fixed Toeplitz
matrices of the Taylor coefficients of cos h and sin h; one doubling is
sin u (B H) + cos u (A H), with A and B fixed per family.

Positions past the window need no quadrature of the continued R either.  On the band
(2^(j-1) w, 2^j w], w = pi/2 - guard, R(t) is D[R](t/2), D[R](v) = (3 cos v R + sin v R') / (4a),
and (r(v) + sin v R(v) e^(2iv) / 2) / a and (x(v) + sin v R(v) / 2) / a have the derivatives
2 D[R](v) e^(2iv) and 2 D[R](v); so r(2v) and s(2v) are these plus one constant per band, which
keeps x, y and s continuous at the seam 2^(j-1) w, where the truncated series leaves R a jump.
From one quadrature of the series window, this doubling law gives ``reconstruct`` the
integral of the continued R within that quadrature's error, grown by 1/a a doubling, and
about 32 (d + 1) eps max|x, y, s| of rounding at depth d.

The cycloid is the member k = 0 (Q constant); k = -4 degenerates to the
parabola, which gets its own closed form here because its caustic is a
single point rather than a scaled mirror.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _checks
from .errors import (
    DegenerateCurveError,
    JetDepthError,
    NumericError,
    PoleError,
    ResonanceError,
    ValidationError,
)
from .inclination import (
    AngleInterval,
    InclinationCurve,
    _check_finite,
    _integrate,
    find_cusps,
    reconstruct,
)
from .oracle import occlusion_check, verticality_check
from .specfun import tan_coeffs

__all__ = [
    "BASE_GUARD",
    "JET_ORDER",
    "PantographSeries",
    "PantographSolution",
    "similarity_factor",
    "solve_series",
    "continue_R",
    "solution_curve",
    "overlay_caustic_points",
    "mirror_equation_residual",
    "MirrorReport",
    "mirror_report",
    "parabola_mirror",
]

BASE_GUARD = 1e-3
"""Stay this far inside pi/2, half the series' radius pi, where its order-n tail is about 2^-n."""

JET_ORDER = 12
"""Doubling depths up to JET_ORDER - 1: one Taylor order per doubling plus
one for the derivative, so jets of at most JET_ORDER + 1 rows."""


def similarity_factor(k: int) -> Fraction:
    """Scale factor a = (k+4)/2^(k+3) forced on the family with lowest power k.

    In terms of the mirror exponent m = k + 1 this is (m+3)/2^(m+2).
    """
    k = _check_k(k)
    return Fraction(k + 4) / Fraction(2) ** (k + 3)


def _check_k(k) -> int:
    k = _checks.integer("k", k)
    if k == -4:
        raise ValidationError(
            "k = -4 collapses the scale factor to 0; that member is the "
            "parabola, served in closed form by parabola_mirror"
        )
    if k < -4:
        raise ValidationError(f"no self-reproducing mirror exists for k = {k} < -4")
    return k


@dataclass(frozen=True)
class PantographSeries:
    """Truncated auxiliary profile Q(theta) = sum_n a_n theta^n, n = k..n_max.

    ``coefficients[j]`` is a_{k+j}.  Coefficients of parity opposite to k
    vanish, except that the resonant family k = -3 carries a free a_{-2}
    seeding the opposite parity; at least one is nonzero, or construction raises
    ``DegenerateCurveError``.  ``k`` is a family's (k >= -3) and ``factor_a`` finite and
    nonzero, or it raises ``ValidationError``.  ``exact`` optionally retains the rational
    coefficients the floats were rounded from.  The continuation's Q-row
    and doubling tables are built on first use and kept on the instance.
    """

    k: int
    factor_a: float
    n_max: int
    coefficients: np.ndarray
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        _check_k(self.k)
        if _checks.real("factor_a", self.factor_a) == 0.0:
            raise ValidationError("factor_a must be nonzero: the doubling divides by 4a")
        if self.n_max <= self.k:
            raise ValidationError("truncation order must exceed the lowest power k")
        if len(self.coefficients) != self.n_max - self.k + 1:
            raise ValidationError(
                f"expected {self.n_max - self.k + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if not np.any(self.coefficients):
            raise DegenerateCurveError("every coefficient vanishes; the profile is a point")

    def powers(self) -> np.ndarray:
        return self.k + np.arange(len(self.coefficients))

    @cached_property
    def _q_table(self):
        return _q_table(self, JET_ORDER + 1)

    @cached_property
    def _doubling(self) -> np.ndarray:
        return _doubling_table(self, JET_ORDER + 1)


_UNIT_SERIES: dict[int, list[Fraction]] = {}
"""Per k, the exact unit basis u_k, u_{k+1}, ... of the coefficient recursion
(see ``solve_series``): one row per order, up to the highest order requested."""
_UNIT_SERIES_LOCK = threading.Lock()


def _unit_series(k: int, n_max: int) -> list[Fraction]:
    """u_k..u_{n_max}: the recursion seeded by a_k = 1 and, for k = -3, also
    by a_{-2} = 1.  The cached rows are extended from the last order held, each
    order's terms summed as integers over their denominators' lcm: one ``Fraction``."""
    with _UNIT_SERIES_LOCK:
        u = _UNIT_SERIES.setdefault(k, [Fraction(1)])
        if len(u) <= n_max - k:
            tau = tan_coeffs(max(1, (n_max - k) // 2 + 1)).exact
            for m in range(len(u), n_max - k + 1):
                # 2^(n+3) a - n - 4 = (k+4)(2^m - 1) - m with m = n - k >= 1: positive for
                # every k >= -3 except at k = -3, m = 1, where a_{-2} is free.
                den = (k + 4) * (2**m - 1) - m
                if den == 0:
                    u.append(Fraction(1))
                    continue
                # tau_i (n - 2i) u_{n-2i} as (numerator, denominator), i = 1..m/2.
                terms = [(tau[i].numerator * (k + m - 2 * i) * u[m - 2 * i].numerator,
                          tau[i].denominator * u[m - 2 * i].denominator)
                         for i in range(1, m // 2 + 1)]
                lcm = math.lcm(*(q for _, q in terms))
                u.append(Fraction(sum(p * (lcm // q) for p, q in terms), lcm * den))
        return u[: n_max - k + 1]


def solve_series(
    k: int,
    n_max: int = 30,
    leading: float = 1.0,
    secondary: float | None = None,
    exact: bool = False,
) -> PantographSeries:
    """Coefficients a_k..a_{n_max} of the family with lowest power k.

    They solve a_n = [sum_{i>=1} tau_i (n-2i) a_{n-2i}] / (2^(n+3) a - n - 4),
    with tau the odd tangent coefficients.  The denominators are strictly
    positive for n > k, with the single exception n = k+1 of the k = -3
    family, where the equation degenerates to 0 = 0 and a_{-2} becomes a
    free second parameter (``secondary``, required there and accepted only
    there).  The recursion links a_n only to orders of its own parity and
    is linear in its seeds a_k = ``leading`` and a_{-2} = ``secondary``, so
    each a_n is its seed times one exact rational u_n that depends on k
    alone.  That unit basis is computed once per k and extended on demand, an
    order's terms summed over their lcm denominator into one ``Fraction``; the
    process keeps one row per order per k requested, up to the highest
    ``n_max`` asked for.  A call within the rows already held costs
    O(n_max) rational multiplications.  Each seed is read as a float, and all
    after it is exact rational; pass ``exact=True`` to keep those on the result.

    Raises ``ValidationError`` for a bad k, an n_max that is not an integer
    above k, a seed that is zero or not a finite real number, or a ``secondary``
    outside k = -3, and ``ResonanceError`` for k = -3 without one.
    """
    k = _check_k(k)
    n_max = _checks.integer("n_max", n_max, least=k + 1)
    lead = Fraction(_checks.real("the leading coefficient a_k", leading))
    if lead == 0:
        raise ValidationError("the leading coefficient a_k must be nonzero")
    if secondary is not None and k != -3:
        raise ValidationError("a secondary coefficient exists only for k = -3")
    if k == -3 and secondary is None:
        raise ResonanceError(
            "k = -3 resonates at n = -2 (denominator 0): supply the "
            "free secondary coefficient a_{-2}"
        )
    # Orders of the parity of k scale with a_k; the others are 0, except
    # for k = -3, where they scale with a_{-2}.
    seeds = (lead, lead if secondary is None else
             Fraction(_checks.real("the secondary coefficient a_{-2}", secondary)))
    ordered = [seeds[j % 2] * u for j, u in enumerate(_unit_series(k, n_max))]
    return PantographSeries(
        k=k,
        factor_a=float(similarity_factor(k)),
        n_max=n_max,
        coefficients=np.array([float(c) for c in ordered]),
        exact=tuple(ordered) if exact else None,
    )


def _q_table(series: PantographSeries, rows: int):
    """Power-basis data of the Taylor rows Q^(j)(u)/j! = sum_n a_n C(n, j) u^(n-j), j < rows.

    Row j is u^p[j] (d_0 + d_1 v + d_2 v^2 + ...) in v = u^stride.  Column j
    of ``table`` holds d_1, d_2, ... (0 past the row's top term) and then d_0
    where p[j] = 0; where p[j] != 0, ``lead[j]`` holds d_0 instead.  p[j] is
    the row's lowest live exponent, negative for k <= -1, and stride is 2
    when all live coefficients share one parity (every k except the resonant
    k = -3).  The weights a_n C(n, j) are products taken left to right,
    a_n (n/1) ((n-1)/2) ... ((n-j+1)/j).
    """
    c = np.asarray(series.coefficients, dtype=float)
    e = series.powers().astype(float)
    odd = series.powers()[c != 0.0] % 2
    stride = 2 if odd.min() == odd.max() else 1
    j = np.arange(rows)
    weights = np.cumprod(np.vstack([c, (e - j[:-1, None]) / j[1:, None]]), axis=0)
    live = weights != 0.0
    has = live.any(axis=1)
    first = live.argmax(axis=1)
    span = np.where(has, c.size - 1 - live[:, ::-1].argmax(axis=1) - first, 0)
    at = first[:, None] + stride * np.arange(span.max() // stride + 1)
    coeffs = np.where(at < c.size, weights[j[:, None], at.clip(max=c.size - 1)], 0.0).T
    lowest = np.where(has, series.k + first - j, 0).astype(float)
    lead = np.where(lowest != 0.0, coeffs[0], 0.0)
    # C order: summing over t, the einsum then never meets t contiguous in both operands,
    # where numpy would sum in SIMD lanes, in an order that depends on the batch width.
    table = np.ascontiguousarray(np.vstack([coeffs[1:], coeffs[0] - lead]))
    return table, lead, lowest, stride


def _q_taylor(series: PantographSeries, u: np.ndarray, reach) -> np.ndarray:
    """Taylor coefficients Q^(j)(u) / j! of Q(u + h): row j, one column per u.

    Every row is its column of ``_q_table`` summed against one table of the
    powers v^1, v^2, ..., v^0 of v = u^stride, in one unoptimised ``einsum``
    (no BLAS: an angle's sums do not depend on its batch), then scaled by
    u^p[j], and then its lead term d_0 u^p is added, which keeps near the pole
    the accuracy of a term-by-term sum.  v^(m+1..2m) = v^(1..m) v^m, so v^t
    carries at most 2t - 1 roundings and each row keeps Horner's a-priori
    bound (Higham, ch. 5).  Row j is formed for the leading ``reach[j]``
    angles and left a partial sum past them; ``reach`` does not increase.
    """
    table, lead, lowest, stride = series._q_table
    powers = np.empty((len(table), u.size))
    powers[-1] = 1.0
    head = powers[:-1]
    head[:1] = u if stride == 1 else u * u
    m = 1
    while m < len(head):
        np.multiply(head[: len(head[m : 2 * m])], head[m - 1], out=head[m : 2 * m])
        m *= 2
    rows = np.einsum("tj,tn->jn", table[:, : len(reach)], powers, optimize=False)
    # u^p on each row's reach only, so that no row overflows where no angle
    # needs it.  A power of a contiguous slice by a scalar rounds the same
    # for every batch; numpy's broadcast or masked powers need not.
    for row, d0, p, n in zip(rows, lead, lowest, reach):
        if p:
            scale = u[:n] ** p
            row[:n] *= scale
            row[:n] += d0 * scale
    return rows


def _trig_table(rows: int) -> np.ndarray:
    """Row i: column i of the lower-triangular Toeplitz matrices T_c and T_s of
    the Taylor coefficients of cos h and sin h, for jets of ``rows`` rows, with
    T_c[j, i] at 2j and T_s[j, i] at 2j + 1.  The product of a jet X with the
    jet of sin(u + h) = sin u cos h + cos u sin h is sin u (T_c X) + cos u (T_s X)."""
    inverse = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1.0, rows))))
    m = np.arange(rows)
    signed = inverse * np.array([1.0, 1.0, -1.0, -1.0])[m % 4]
    lag = m[None, :] - m[:, None]
    below = lag >= 0
    lag = np.where(below, lag, 0)
    table = np.empty((rows, 2 * rows))
    table[:, 0::2] = np.where(below & (lag % 2 == 0), signed[lag], 0.0)
    table[:, 1::2] = np.where(below & (lag % 2 == 1), signed[lag], 0.0)
    return table


_TRIG = _trig_table(JET_ORDER + 1)
"""The trig table of every series; jets of L rows read its leading L x 2L block."""


def _doubling_table(series: PantographSeries, rows: int) -> np.ndarray:
    """Row i: column i of the (L-1) x L matrices B, A (B[j, i] at 2j, A[j, i] at 2j + 1)
    that double a jet H of R(u + h) of L = ``rows`` rows: the jet of R(2u + 2h) / 2^j
    is sin u (B H) + cos u (A H), with A = W (3 T_c + T_s D), B = W (T_c D - 3 T_s),
    D the derivative of a jet and W = diag(2^-j / (4a))."""
    length = rows - 1
    tc, ts = _TRIG[:length, 0 : 2 * length : 2], _TRIG[:length, 1 : 2 * length : 2]
    scale = np.arange(1.0, rows)[:, None]
    out = np.zeros((rows, 2 * length))
    out[:-1, 0::2] = -3.0 * ts
    out[1:, 0::2] += tc * scale
    out[:-1, 1::2] = 3.0 * tc
    out[1:, 1::2] += ts * scale
    weight = (1.0 / (4.0 * series.factor_a)) / 2.0 ** np.arange(length)
    return out * np.repeat(weight, 2)


def _jet_product(table: np.ndarray, jet: np.ndarray, u: np.ndarray, offset: int, reach=None):
    """sin u (B jet) + cos u (A jet); row i of ``table`` holds column i of B and A interleaved,
    enters the rows >= i - offset and serves the leading ``reach[i]`` angles (all by default).
    Each output adds its terms in column order, in one unoptimised ``einsum`` from +0 over
    every column and angle; in the outputs served, the terms it adds beyond the column
    order's are exact zeros, which can change only the sign of a zero.  So the angles with a
    zero output are done again column by column."""
    sin, cos = np.sin(u), np.cos(u)
    acc = np.einsum("iq,in->qn", table, jet, optimize=False)
    out = sin * acc[0::2] + cos * acc[1::2]
    if out.all():
        return out
    redo = np.flatnonzero(~out.all(axis=0))
    jet = jet[:, redo]
    reach = [redo.size] * len(jet) if reach is None else np.searchsorted(redo, reach).tolist()
    acc = table[0, :, None] * jet[0]
    for i in range(1, len(jet)):
        top, n = 2 * (i - offset), reach[i]
        acc[top:, :n] += table[i, top:, None] * jet[i, :n]
    out[:, redo] = sin[redo] * acc[0::2] + cos[redo] * acc[1::2]
    return out


def _r_taylor(series: PantographSeries, u: np.ndarray, reach) -> np.ndarray:
    """Taylor coefficients of R(u + h) = Q(u + h) sin(u + h), row j for the
    leading ``reach[j]`` angles."""
    rows = len(reach)
    return _jet_product(_TRIG[:rows, : 2 * rows], _q_taylor(series, u, reach), u, 0, reach)


@dataclass(frozen=True)
class PantographSolution:
    """A mirror profile extended beyond the series window by doubling.

    It serves angles up to the class constant ``max_theta`` = 2^(JET_ORDER - 1)
    (pi/2 - guard), with ``guard`` the class constant ``BASE_GUARD``.
    """

    series: PantographSeries
    guard = BASE_GUARD
    max_theta = 2.0 ** (JET_ORDER - 1) * (math.pi / 2 - BASE_GUARD)


_BLOCK_ANGLES = 4096
"""Angles per climb: bounds its (jet rows, angles) tables."""


def _depth(solution: PantographSolution, theta: np.ndarray) -> np.ndarray:
    """Halvings that bring each angle into the series window [0, pi/2 - guard]: the least
    d >= 0 with theta 2^-d <= pi/2 - guard, read exactly off the two binary exponents."""
    mantissa, exponent = math.frexp(math.pi / 2 - solution.guard)
    m, e = np.frexp(theta)
    return np.maximum(e - exponent + (m > mantissa), 0, dtype=np.int16)


def _union(*parts) -> np.ndarray:
    """``np.union1d`` of the finite ``parts``, without its first call's import of numpy.ma."""
    nodes = np.sort(np.concatenate(parts, axis=None))
    return nodes[np.append(True, nodes[1:] > nodes[:-1])]


def _climb_chains(series: PantographSeries, u: np.ndarray, depth: np.ndarray, levels: int):
    """(R, R') up each doubling chain u, 2u, ..., 2^depth u of the base angles ``u``, as
    (2, levels, u.size) ``states``: states[:, s] holds every angle once doubled at each level
    above s, so angle i is at chain level j in states[:, depth[i] - j, i] if ``levels`` allow,
    and at its depth in states[:, 0].  The angles climb deepest first, in blocks of
    ``_BLOCK_ANGLES``: a block forms R's order j for its leading angles of depth >= j - 1, then
    doubles from its deepest level down to 1, each level on its leading angles of depth >= that
    level, so all end together."""
    # Depths stay below JET_ORDER, and int16 keys take numpy's radix sort.
    order = np.argsort(-depth, kind="stable")
    states = np.empty((2, levels, u.size))
    for start in range(0, u.size, _BLOCK_ANGLES):
        block = order[start : start + _BLOCK_ANGLES]
        d, v = depth[block], u[block]
        top = int(d[0])
        # reach[j]: the leading angles of depth >= j - 1, which use Taylor order j.
        reach = np.searchsorted(-d, 1 - np.arange(top + 2), side="right").tolist()
        taylor = _r_taylor(series, v, reach)
        states[:, top:, block] = taylor[:2, None]
        for level in range(top, 0, -1):
            n, table = reach[level + 1], series._doubling[: level + 2, : 2 * level + 2]
            taylor[: level + 1, :n] = _jet_product(table, taylor[: level + 2, :n], v[:n], 1)
            v[:n] *= 2.0
            if level <= levels:
                states[:, level - 1, block] = taylor[:2]
    return states


def continue_R(solution: PantographSolution, theta):
    """R and R' anywhere on [0, max_theta], by jet doubling past pi/2.

    Accepts scalars or arrays; returns a pair (R, R') of matching shape.
    Raises ``PoleError`` at theta = 0 for the families k <= -1,
    ``JetDepthError`` past ``max_theta``, and ``EvaluationError`` at the first
    angle where R or R' is not finite.  An angle of depth d is halved d
    times into the series window, where R gets a Taylor jet of d + 2
    coefficients in h; each doubling of u + h consumes one.  The angles are
    climbed deepest first by ``_climb_chains``, whose doubling at level L takes
    those of depth >= L, so all end together.  A batch returns exactly what
    separate calls return.
    """
    arr = _checks.floats("theta", theta)
    flat = arr.ravel()
    lo, hi = flat.min(initial=math.inf), flat.max(initial=0.0)  # NaN if any angle is
    if not (lo >= 0.0 and hi < math.inf):
        bad = flat[~np.isfinite(flat) | (flat < 0.0)]
        raise ValidationError(f"continuation is defined for finite theta >= 0, got {bad[0]:g}")
    k = solution.series.k
    if k <= -1 and lo == 0.0:
        raise PoleError(f"the k = {k} family has a pole of Q = R / sin(theta) at theta = 0")
    depth = _depth(solution, flat)
    if hi > solution.max_theta:
        worst = int(np.argmax(depth))
        raise JetDepthError(
            f"theta = {flat[worst]:g} needs doubling depth {depth[worst]}; the "
            f"continuation ends at max_theta = {solution.max_theta:g}"
        )
    # A climb that overflows is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        r, rp = states = _climb_chains(solution.series, np.ldexp(flat, -depth), depth, 1)[:, 0]
    if not np.isfinite(states).all():
        _check_finite("R", r, flat)
        _check_finite("R'", rp, flat)
    if arr.ndim == 0:
        return float(r[0]), float(rp[0])
    return r.reshape(arr.shape), rp.reshape(arr.shape)


def solution_curve(solution: PantographSolution) -> InclinationCurve:
    """Wrap a continued solution as a turning-radius curve.

    The curve's jet is ``continue_R`` itself, so one continuation gives R and
    R' at the same angles, and its domain is all of ``[0, max_theta]``.
    Families with k <= -1 have a pole of Q at theta = 0, declared so that
    reconstruction keeps its guard band away from it.  ``reconstruct`` takes the
    doubling law; ``InclinationCurve(curve.jet)`` takes the quadrature.
    """
    k = solution.series.k
    jet = lambda t: continue_R(solution, t)  # noqa: E731 (the law holds this very jet)
    return InclinationCurve(
        jet=jet,
        domain=(0.0, solution.max_theta),
        label=f"pantograph(k={k}, a={solution.series.factor_a:g})",
        poles=(0.0,) if k <= -1 else (),
        _exact=(jet, _doubling_law, solution),
    )


def _doubling_law(curve: InclinationCurve, theta: np.ndarray):
    """R, R' and the rows x, y and arclength of a ``solution_curve`` at ``theta``
    in [0, max_theta], the positions from 0 at the first, by the doubling law (module docstring).
    Each angle is halved d times into the series window [0, w]; the distinct base angles get
    one quadrature and climb their chains u, ..., 2^d u, with R and R' from one
    ``_climb_chains``.  Level j's constants put the chain of w / 2 at level j onto that of w
    at level j - 1: the seam 2^(j-1) w from the right and from the left.  With no doubling
    this is the quadrature of the grid itself.
    """
    solution, n = curve._exact[2], theta.size
    w = math.pi / 2 - solution.guard
    depth = _depth(solution, theta)
    top = int(depth.max())
    base = np.concatenate([np.ldexp(theta, -depth), [0.5 * w, w] if top else []])
    depth = np.concatenate([depth, np.array([top, top - 1] if top else [], depth.dtype)])
    nodes = _union(base)
    at = np.searchsorted(nodes, base)
    # Row j holds the chain angles nodes 2^j, live up to each base's deepest angle.
    reach = np.zeros(nodes.size, dtype=depth.dtype)  # one dtype keeps ufunc.at on its fast path
    np.maximum.at(reach, at, depth)
    states = _climb_chains(solution.series, nodes, reach, top + 1)
    slot = reach - np.arange(top + 1)[:, None]
    r, rp = np.where(slot >= 0, np.take_along_axis(states, np.maximum(slot, 0)[None], 1), 0.0)
    xys = np.zeros((3, top + 1, nodes.size))
    if nodes.size > 1:  # the quadrature needs finite ends; otherwise every position is NaN
        finite = np.isfinite(r[0]).all() and np.isfinite(rp[0]).all()
        xys[:, 0] = _integrate(curve.jet, nodes, r[0], rp[0]) if finite else np.nan
    x, y, s = xys
    a = solution.series.factor_a
    # Level j + 1 from level j, then matched at its seam: the chain of w at j, w / 2's at j + 1.
    for j, t in enumerate(nodes * 2.0 ** np.arange(top)[:, None]):
        half = 0.5 * np.sin(t) * r[j]
        s[j + 1] = (x[j] + half) / a
        x[j + 1] = (x[j] + half * np.cos(2.0 * t)) / a
        y[j + 1] = (y[j] + half * np.sin(2.0 * t)) / a
        xys[:, j + 1] += (xys[:, j, at[n + 1]] - xys[:, j + 1, at[n]])[:, None]
    depth, at = depth[:n], at[:n]
    xys = xys[:, depth, at]
    return r[depth, at], rp[depth, at], xys - xys[:, :1]


def overlay_caustic_points(solution: PantographSolution, thetas: np.ndarray) -> np.ndarray:
    """Caustic points of the mirror for horizontal light, via the overlay map.

    The pantograph equation makes the caustic the homothety
    c(theta) = a r(2 theta) + (1 - a) r(0) of the mirror itself; this
    evaluates it from a reconstruction over the doubled angles.  It is the
    independent reference for the reflection caustic that
    ``caustic_curve(curve, TiltField.reflection(), ...)`` computes from the
    mirror's own R and R' (and that ``caustics pantograph`` draws).
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        return np.empty((0, 2))
    a = solution.series.factor_a
    curve = replace(solution_curve(solution), _exact=None)  # the quadrature, not the law
    grid = _union([0.0], 2.0 * thetas)
    samples = reconstruct(curve, grid)
    pts = samples.points[np.searchsorted(samples.theta, 2.0 * thetas)]
    origin = samples.points[np.searchsorted(samples.theta, 0.0)]
    return a * pts + (1.0 - a) * origin


def mirror_equation_residual(solution: PantographSolution, interval: AngleInterval) -> float:
    """Sup-norm defect of sin(theta) R' - 4a R(2 theta) + 3 cos(theta) R on ``interval``; raises
    ``EvaluationError`` at the first angle where the continuation or the defect is not finite."""
    if not isinstance(interval, AngleInterval):
        raise ValidationError(f"interval must be an AngleInterval, got {interval!r}")
    t = interval.grid()  # continue_R rejects a negative angle
    a = solution.series.factor_a
    r, rp = continue_R(solution, np.concatenate([t, 2.0 * t]))
    r, r2, rp = r[: t.size], r[t.size :], rp[: t.size]
    # A defect that overflows is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.sin(t) * rp - 4.0 * a * r2 + 3.0 * np.cos(t) * r
    _check_finite("the residual", residual, t)
    return float(np.max(np.abs(residual)))


_CUSP_CHAIN_SPAN = 8 * math.pi
"""The report's cusp chain, the mirror's 1st, 2nd, 4th and 8th cusps (the
caustic's at pi/2, pi, 2pi, 4pi), ends at 8pi on a vertical profile; the
search for sign changes runs 4pi further, which keeps the 8th cusp of a
profile drifting off the multiples of pi inside it."""

_REPORT_WINDOW = AngleInterval(0.0, 4 * math.pi, 2049)
"""The window of the report's zeros and profile samples.  A zero counts
within 1e-12 of it, ``inclination._CUSP_TOL``, the accuracy of the refined
cusps, so that the cycloid's cusp at 4pi counts."""


def _collinearity_residual(points: np.ndarray) -> float:
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    return float(np.max(np.abs(centered @ normal)))


@dataclass(frozen=True, eq=False)
class MirrorReport:
    """Diagnostics bundle for one continued mirror profile; point sets are ``(n, 2)`` arrays."""

    label: str
    zeros: tuple[float, ...]
    zero_deviations: tuple[float, ...]
    mirror_cusp_points: np.ndarray
    caustic_cusp_points: np.ndarray
    collinearity_points: np.ndarray
    collinearity_residual: float
    rho_min: float
    rho_max: float
    rho_spread: float
    q_growth: float
    q_has_pole: bool
    is_vertical: bool
    has_occlusion: bool


def mirror_report(solution: PantographSolution) -> MirrorReport:
    """Measure one mirror: cusps, cusp line, arc ratios, pole, feasibility.

    The bundle collects (a) zeros of R on ``[0, 4pi]`` and their
    deviations from multiples of pi, (b) mirror and caustic cusp positions
    plus the residual of the cusp chain nearest theta = 0, pi/2, pi, 2pi,
    4pi from its best-fit line (zero exactly for the cycloid, whose cusps
    share the y-axis), (c) the arc ratio rho(theta) = |R(theta + pi) /
    R(theta)| on a window avoiding the singular angles, (d) the growth of
    |Q| = |R / sin| toward pi as a pole indicator, and (e) verticality /
    occlusion flags for the profile at 2049 angles of ``[0, 4pi]``.  The
    positions come from one ``reconstruct``, by the doubling law.  Raises
    ``NumericError`` where R is zero or subnormal at an angle of (c) or (d).
    """
    series = solution.series
    if series.k < 0:
        raise ValidationError(
            "the report assumes a mirror with horizontal tangent at theta = 0 (k >= 0)"
        )
    far = _CUSP_CHAIN_SPAN + 4 * math.pi
    curve = solution_curve(solution)

    all_zeros = find_cusps(curve, AngleInterval(0.0, far, 513))
    zeros = [z for z in all_zeros if z <= _REPORT_WINDOW.hi + 1e-12]
    deviations = [z - math.pi * round(z / math.pi) for z in zeros]

    # The cusp chain of interest doubles the arc count at each step: the
    # 1st, 2nd, 4th and 8th cusps, which sit exactly at pi, 2pi, 4pi, 8pi
    # when the profile is vertical.  Non-vertical profiles drift off the
    # multiples of pi, so the chain is indexed ordinally, not by angle.
    if len(all_zeros) < 8:
        raise NumericError(
            f"only {len(all_zeros)} sign changes below {far:.3g}; "
            "the cusp chain needs eight"
        )
    chain = [all_zeros[i] for i in (0, 1, 3, 7)]

    base_grid = _REPORT_WINDOW.grid()
    grid = _union(base_grid, [0.0, *all_zeros])
    samples = reconstruct(curve, grid)
    thetas, pts = samples.theta, samples.points

    # Every angle below is a node of the union grid, which k >= 0 never clips.
    a = series.factor_a
    origin = pts[np.searchsorted(thetas, 0.0)]
    mirror_cusps = pts[np.searchsorted(thetas, zeros)]
    caustic_cusps = a * mirror_cusps + (1.0 - a) * origin
    line_pts = np.vstack([origin, a * pts[np.searchsorted(thetas, chain)] + (1.0 - a) * origin])
    residual = _collinearity_residual(line_pts)

    rho_lo, rho_hi = 0.3, math.pi - 0.3
    rt = np.linspace(rho_lo, rho_hi, 101)
    qt = np.linspace(math.pi - 0.5, math.pi - 0.02, 25)
    probes = np.concatenate([rt + math.pi, rt, qt])
    r, _ = continue_R(solution, probes)
    small = np.abs(r) < np.finfo(float).tiny  # zero or subnormal
    if small.any():
        raise NumericError(f"R is zero or subnormal at theta = {float(probes[small].min())!r}, "
                           "an angle the arc ratios or the pole probe divide by")
    r_num, r_den, rq = np.split(r, [rt.size, 2 * rt.size])
    rho = np.abs(r_num / r_den)
    rho_min, rho_max = float(np.min(rho)), float(np.max(rho))

    q_abs = np.abs(rq / np.sin(qt))
    growth = float(q_abs[-1] / q_abs[0])

    # Feasibility flags are judged on the evenly spaced profile samples.
    # The union grid is unsuitable here: a refined zero can land within
    # ~1e-12 of a plain node, and the y-step between such twins underflows
    # to exactly zero, which a strict monotonicity test must reject.
    body_idx = np.searchsorted(thetas, base_grid)
    body = pts[body_idx]
    vertical = verticality_check(body).is_vertical
    occluded = occlusion_check(body).has_occlusion

    return MirrorReport(
        label=curve.label,
        zeros=tuple(float(z) for z in zeros),
        zero_deviations=tuple(float(d) for d in deviations),
        mirror_cusp_points=mirror_cusps,
        caustic_cusp_points=caustic_cusps,
        collinearity_points=line_pts,
        collinearity_residual=residual,
        rho_min=rho_min,
        rho_max=rho_max,
        rho_spread=rho_max - rho_min,
        q_growth=growth,
        q_has_pole=growth > 10.0,
        is_vertical=vertical,
        has_occlusion=occluded,
    )


# ---------------------------------------------------------------------------
# the degenerate member: parabola


def parabola_mirror(focal_scale: float) -> InclinationCurve:
    """The mirror whose caustic for horizontal light is a single point.

    R(theta) = A / sin^3(theta) on (0, pi).  The reconstruction from a
    first angle theta0 starts at the origin; translated by
    (-A/(2 sin^2 theta0), -A cot theta0) it traces the parabola
    y^2 + 2 A x = -A^2, whose focus (-A, 0) is its caustic.
    """
    A = _checks.real("focal_scale", focal_scale)
    if A == 0.0:
        raise DegenerateCurveError("A = 0 collapses the parabola to a point")

    def jet(t):
        t = np.asarray(t, dtype=float)
        s = np.sin(t)
        return A / s**3, -3.0 * A * np.cos(t) / s**4

    return InclinationCurve(
        jet=jet,
        domain=(0.0, math.pi),
        label=f"parabola(A={A:g})",
        poles=(0.0, math.pi),
    )
