"""Plane curves described by their inclination: a turning radius R(theta).

A curve here is a signed radius of curvature given as a function of the
tangent angle theta on its domain, the angles where R is defined: every
angle unless the curve stops somewhere.  The tangent is always
``(cos theta, sin theta)``; the point is recovered by integrating
``R * (cos theta, sin theta)``.  R may change sign (the curve passes
through a cusp) and the arclength, defined by ``ds = R dtheta``, may
decrease.

The module provides the curve type, reconstruction to a column record of
vertex samples, cusp location, and a discrete check of the frame equations.
Reconstruction takes the stock exponential sums in closed form.  For other
curves it hands the integrand and its derivative at the nodes to the
quadrature under a global error budget, whose node-jet rule adds three inner
nodes per cell; cells where that rule's estimate misses go on to adaptive
Patterson-15 quadrature judged against Kronrod-7, which reuses the three.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import _checks
from .errors import (
    DegenerateSamplingError,
    DomainError,
    EvaluationError,
    ValidationError,
)
from .quadrature import cell_integrals, panel_integrals

__all__ = [
    "AngleInterval",
    "InclinationCurve",
    "CurveSamples",
    "reconstruct",
    "find_cusps",
    "frenet_residual",
    "circle",
    "cycloid",
    "log_spiral",
    "polynomial_curve",
]

POLE_GUARD = 1e-6
RECONSTRUCT_TOL = 1e-10
"""Absolute quadrature error budget of ``reconstruct`` over a whole grid."""
_CUSP_TOL = 1e-12
"""Width to which ``find_cusps`` refines each sign-change bracket."""


@dataclass(frozen=True)
class AngleInterval:
    """A tangent-angle window ``[lo, hi]`` sampled at ``n_samples`` equispaced angles."""

    lo: float
    hi: float
    n_samples: int

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _checks.real(name, getattr(self, name)))
        object.__setattr__(self, "n_samples", _checks.integer("n_samples", self.n_samples, least=2))
        if not self.lo < self.hi:
            raise ValidationError(
                f"need lo < hi, got [{self.lo}, {self.hi}]; the tangent angle "
                "increases strictly along every curve"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_samples)


@dataclass(frozen=True)
class InclinationCurve:
    """A plane curve given by its signed turning radius.

    Parameters
    ----------
    jet : callable
        Vectorised map ``theta -> (R, R')``: the turning radius and its
        derivative at the same angles.  Positive R turns the tangent
        counterclockwise ahead of the point, negative R behind it.  Callers
        that need R alone read row 0.
    domain : (float, float)
        The closed range ``(lo, hi)`` of angles where R is defined; the
        whole line unless the curve stops somewhere.  Stored as two floats
        with ``lo < hi``; the ends may be infinite, not NaN.
    label : str
        Display name used by reports and the command line.
    poles : tuple of float
        Angles where R blows up; reconstruction refuses to cross them and
        clips intervals that lean on them by ``POLE_GUARD``.
    """

    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[float, float] = (-math.inf, math.inf)
    label: str = ""
    poles: tuple[float, ...] = ()
    # (jet, rows, *data): while the jet is this jet, rows(curve, thetas) gives R, R' and the rows
    # x, y and arclength, from 0 at the first angle, for reconstruct (see _closed_form).
    _exact: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ends = _checks.floats("domain", self.domain, "two numbers lo < hi")
        if not (ends.shape == (2,) and ends[0] < ends[1]):
            raise ValidationError(f"domain must be two numbers lo < hi, got {self.domain!r}")
        object.__setattr__(self, "domain", tuple(ends.tolist()))


class ColumnRecord:
    """Equal-length columns, one entry per node.

    A slice, mask or index array returns a record of the same type holding
    those nodes; a single node is read from the columns (``rec.x[i]``), and
    an int index raises ``TypeError``.  Subclasses name their indexable
    fields in ``_columns``.
    """

    _columns: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError(
                f"{type(self).__name__} is a record of columns; read the node "
                f"from a column, e.g. rec.x[{key}]"
            )
        return replace(self, **{name: getattr(self, name)[key] for name in self._columns})

    @property
    def points(self) -> np.ndarray:
        """Positions as an ``(n, 2)`` array."""
        return np.column_stack([self.x, self.y])


@dataclass(frozen=True, eq=False)
class CurveSamples(ColumnRecord):
    """Reconstructed vertices as columns.

    ``theta`` holds the tangent angles, ``x, y`` the positions, ``radius``
    and ``radius_prime`` the turning radius R and its derivative R', and
    ``arclength`` the signed arclength from the first node.  The tangent at
    a node points along ``theta``; the normal is the tangent turned by +90
    degrees.
    """

    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray
    radius_prime: np.ndarray
    arclength: np.ndarray

    _columns = ("theta", "x", "y", "radius", "radius_prime", "arclength")

    @property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit tangents and normals, each an ``(n, 2)`` array."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        return np.column_stack([c, s]), np.column_stack([-s, c])


def _clip_interval(curve: InclinationCurve, lo: float, hi: float) -> tuple[float, float]:
    """Apply the pole guard band; reject poles strictly inside."""
    for p in curve.poles:
        if lo + POLE_GUARD < p < hi - POLE_GUARD:
            raise DomainError(
                f"R has a pole at theta = {p} inside [{lo}, {hi}]; split the interval"
            )
        if p <= lo + POLE_GUARD and p >= lo - POLE_GUARD:
            lo = p + POLE_GUARD
        if p >= hi - POLE_GUARD and p <= hi + POLE_GUARD:
            hi = p - POLE_GUARD
    if not lo < hi:
        raise DomainError(f"interval [{lo}, {hi}] collapsed after pole clipping")
    return lo, hi


def _resolve_grid(curve: InclinationCurve, interval) -> np.ndarray:
    if isinstance(interval, AngleInterval):
        lo, hi = _clip_interval(curve, interval.lo, interval.hi)
        with np.errstate(over="ignore", invalid="ignore"):  # a width past the float limit
            thetas = np.linspace(lo, hi, interval.n_samples)  # gives NaN nodes, refused here
        if not (thetas[1:] > thetas[:-1]).all():
            raise ValidationError(f"{interval.n_samples} angles on [{lo}, {hi}] do not increase")
    else:
        thetas = np.array(_checks.increasing("interval", interval))
        lo, hi = _clip_interval(curve, float(thetas[0]), float(thetas[-1]))
        if lo > thetas[0] or hi < thetas[-1]:
            thetas = thetas[(thetas >= lo) & (thetas <= hi)]
            if thetas.size < 2:
                raise DomainError("fewer than 2 samples remain after pole clipping")
    _check_domain(curve, thetas[[0, -1]], "angle")
    return thetas


def _check_domain(curve: InclinationCurve, theta: np.ndarray, what: str) -> None:
    """Raise ``DomainError`` naming the first of ``theta`` outside the curve's domain."""
    lo, hi = curve.domain
    inside = (theta >= lo) & (theta <= hi)
    if not inside.all():
        raise DomainError(f"{what} {theta[~inside][0]} leaves the curve domain [{lo}, {hi}]")


def reconstruct(
    curve: InclinationCurve,
    interval: AngleInterval | Sequence[float],
) -> CurveSamples:
    """Integrate the inclination data into vertex samples.

    The position increment over each grid cell is ``integral of R * (cos, sin)``
    and the arclength increment is ``integral of R``; the jet ``(R, R')`` is
    evaluated once at the nodes, for the ``radius`` and ``radius_prime`` columns.
    The stock exponential sums (``circle``, ``cycloid``, ``log_spiral``, and
    ``point_by_point_curve``, ``puiseux_curve``, ``delay_curve`` and the
    trigonometric and hyperbolic ``inverse_position_curve`` of ``caustics.skew``) take x, y and
    arclength in closed form, each term within a few roundings of its size.  A
    ``pantograph.solution_curve`` takes the doubling law: one quadrature of the series
    window [0, w], then one step and one seam constant per doubling,
    within that quadrature's error grown by 1/a a step and about 32 (d + 1) eps
    max|x, y, s| of rounding at depth d.  Other curves, and these given another jet
    (``InclinationCurve(curve.jet)`` forces it), take ``quadrature``'s node-jet
    rule, three jet evaluations per cell, then its adaptive P15-against-K7 rule where
    that misses: each cell is held to its width share of ``RECONSTRUCT_TOL``, an
    absolute budget per column over the whole grid, or to its rounding floor
    ``50 eps int |R|``, plus the rounding of the cumulative sum and of the
    abscissas, about ``h eps |theta| |f'|`` in a cell of width h for the integrand
    f.  R fixes the curve up to translation: the first sample sits at the origin.

    Parameters
    ----------
    curve : InclinationCurve
    interval : AngleInterval or increasing angle array

    Returns
    -------
    CurveSamples

    Raises
    ------
    ValidationError
        If the angles are not finite and strictly increasing.
    EvaluationError
        If R or R' is not finite at a node, R inside a cell, or a position.
    NumericError
        If the quadrature overflows, or panels at rounding width miss the
        budget by more than ``RECONSTRUCT_TOL``.
    """
    thetas = _resolve_grid(curve, interval)
    # A jet or a position that overflows is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        exact = _closed_form(curve)
        r, rp, xys = curve._exact[1](curve, thetas) if exact else (*curve.jet(thetas), None)
        r, rp = np.asarray(r, dtype=float), np.asarray(rp, dtype=float)
        _check_finite("R", r, thetas)
        _check_finite("R'", rp, thetas)
        x, y, s = xys = xys if exact else _integrate(curve.jet, thetas, r, rp)
    _check_finite("x, y or the arclength", xys, thetas)
    return CurveSamples(theta=thetas, x=x, y=y, radius=r, radius_prime=rp, arclength=s)


def _check_finite(name: str, rows: np.ndarray, thetas: np.ndarray) -> None:
    """Raise ``EvaluationError`` naming the first of ``thetas`` where a row is not finite."""
    finite = np.isfinite(rows).reshape(-1, thetas.size).all(axis=0)
    if not finite.all():
        raise EvaluationError(f"{name} is not finite at theta = {thetas[~finite][0]}")


def _integrand(jet):
    """``theta -> R (cos, sin, 1)``, the integrand of x, y and arclength."""
    def fn(t):
        out = np.empty((3, t.size))
        out[2] = jet(t)[0]
        np.multiply(out[2], np.cos(t), out=out[0])
        np.multiply(out[2], np.sin(t), out=out[1])
        return out

    return fn


def _ends(theta, r, rp):
    """``R (cos, sin, 1)`` and its derivative at ``theta``, each ``(3, n)``."""
    c, s = np.cos(theta), np.sin(theta)
    f, df = jets = np.empty((2, 3, theta.size))
    f[0], f[1], f[2] = r * c, r * s, r
    df[0], df[1], df[2] = rp * c - r * s, rp * s + r * c, rp
    return jets


def _integrate(jet, thetas: np.ndarray, r: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """Rows x, y and arclength at the increasing ``thetas``, from 0 at the first.

    ``r`` and ``rp`` are ``jet`` at ``thetas``, as float arrays.
    """
    cells = panel_integrals(_integrand(jet), thetas, RECONSTRUCT_TOL,
                            ends=_ends(thetas, r, rp))
    out = np.zeros((3, thetas.size))
    np.cumsum(cells, axis=1, out=out[:, 1:])
    return out


def _exp_sum_curve(jet, label, rates, amplitudes) -> InclinationCurve:
    """The curve of ``jet``, ``R = Re sum_j c_j e^(lambda_j theta)`` for the complex ``rates``
    lambda_j and ``amplitudes`` c_j, with the rates and coefficients of terms ``k e^(mu theta)``:
    ``(lambda + i, c / 2)`` and ``(conj(lambda) + i, conj(c) / 2)`` sum to ``R e^(i theta)``,
    halved apart so none overflows where R is finite, and the real parts of ``(lambda, c)`` to R.
    ``_exp_sum_terms`` forms the three exponentials of a rate from its one row ``e^(lambda
    theta)`` and ``e^(i theta)``, each term within a few roundings of its size."""
    lam, c = np.asarray(rates, dtype=complex), np.asarray(amplitudes, dtype=complex)
    return InclinationCurve(jet, label=label, _exact=(
        jet, lambda curve, t: (*curve.jet(t), _exp_sum_integrals(curve, t)),
        np.concatenate([lam + 1j, lam.conj() + 1j, lam]),
        np.concatenate([0.5 * c, 0.5 * c.conj(), c])))


def _exp_sum_integrals(curve, thetas):
    """Rows x, y and arclength of an ``_exp_sum_curve`` in closed form, from 0 at the first of
    the increasing ``thetas``: the terms' rows summed in place, in ``np.sum``'s order."""
    *_, mu, coef = curve._exact
    terms, m = _exp_sum_terms(mu, coef, thetas), 2 * mu.size // 3
    for total, rest in ((terms[0], terms[1:m]), (terms[m], terms[m + 1:])):
        for row in rest:
            total += row
    out = np.empty((3, thetas.size))
    out[0], out[1], out[2] = terms[0].real, terms[0].imag, terms[m].real
    return out


def _exp_sum_terms(mu, coef, thetas):
    """Each term ``k e^(mu theta)`` integrated from the first of the increasing ``thetas``, as
    a row written in place.  A term integrates to ``k h`` at ``mu = 0``, with ``h = theta -
    theta_0``; to ``k e^(mu theta_0) expm1(mu h) / mu`` (numpy's complex expm1 splits into real
    parts) where ``|mu|`` spans at most 1; and to the difference of ``k e^(mu theta) / mu``
    beyond.  There ``e^(mu theta)`` is a product of rows taken once a grid, ``e^(i theta) = cos
    theta + i sin theta`` and one ``E = np.exp(lambda theta)`` per distinct rate lambda of R but
    0 and i (``e^(i theta)`` itself at i): ``E e^(i theta)`` at ``mu = lambda + i``, ``conj(E)
    e^(i theta)`` at ``conj(lambda) + i`` and E at lambda.  Each term so keeps within a few
    roundings of its size, near ``mu = 0`` too."""
    h, n, turn = thetas - thetas[0], mu.size // 3, np.empty(thetas.size, complex)
    np.cos(thetas, out=turn.real), np.sin(thetas, out=turn.imag)
    span, terms = np.abs(mu) * h[-1], np.empty((mu.size, h.size), complex)
    powers = {0j: 1.0, 1j: turn}  # e^(lambda theta) by rate
    for j, (m, k, row, lam) in enumerate(zip(mu, coef, terms, np.tile(mu[2 * n:], 3))):
        if span[j] > 1.0:
            if lam not in powers:
                powers[lam] = np.exp((lam.real if lam.imag == 0.0 else lam) * thetas)
            e = powers[lam]
            if j < 2 * n:
                e = np.multiply(np.conjugate(e, out=row) if j >= n else e, turn, out=row)
            np.multiply(e, k, out=row)
            row *= 1.0 / m
            row -= row[0]
        elif span[j] > 0.0:
            np.expm1(np.multiply(m, h, out=row), out=row)
            row *= k * np.exp(m * thetas[0])
            row /= m
        else:
            np.multiply(k, h, out=row)
    return terms


def _exp_sum_primitive(curve, theta: float) -> complex:
    """``sum k e^(mu theta) / mu`` over the terms of ``R e^(i theta)`` of an ``_exp_sum_curve``
    whose rates there are nonzero: a primitive of ``R e^(i theta)``, as ``x + iy``."""
    *_, mu, coef = curve._exact
    pos = slice(2 * mu.size // 3)
    return complex(np.sum(coef[pos] * np.exp(mu[pos] * theta) / mu[pos]))


def _closed_form(curve: InclinationCurve) -> bool:
    """Whether ``curve`` carries exact positions, a stock exponential sum or a continued
    pantograph solution, and still its own jet."""
    return curve._exact is not None and curve._exact[0] is curve.jet


def _points_at(curve: InclinationCurve, samples: CurveSamples, thetas) -> np.ndarray:
    """Positions ``(n, 2)`` at the increasing ``thetas`` inside ``samples``, a reconstruction
    of ``curve``, by ``reconstruct``'s own path: its exact rows, measured from the first node,
    or one quadrature cell from each angle's left node, the cells sharing ``RECONSTRUCT_TOL``
    by width as a grid's cells do."""
    thetas = np.asarray(thetas, dtype=float)
    if _closed_form(curve):
        return curve._exact[1](curve, np.concatenate([samples.theta[:1], thetas]))[2][:2, 1:].T
    left = np.searchsorted(samples.theta, thetas, side="right") - 1
    lo = samples.theta[left]
    h = thetas - lo
    budget = RECONSTRUCT_TOL * h / max(h.sum(), math.ulp(0.0))  # 0 where every h is 0
    cells = cell_integrals(_integrand(curve.jet), lo, thetas, budget, RECONSTRUCT_TOL,
                           (*_ends(lo, samples.radius[left], samples.radius_prime[left]),
                            *_ends(thetas, *curve.jet(thetas))))
    return samples.points[left] + cells[:2].T


def _first(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Whether ``|fx|`` sorts no later than ``|fy|``: smaller or equal, or ``fy`` NaN."""
    return (np.abs(fx) <= np.abs(fy)) | np.isnan(fy)


def _refine_zeros(
    fn, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray, tol: float
) -> np.ndarray:
    """Shrink every sign-change bracket ``[lo, hi]`` to width ``tol`` at once.

    ``flo`` and ``fhi`` hold ``fn`` at the bracket ends.  Each step makes one
    ``fn`` call on three points per live bracket.  A bracket on its bisection
    schedule takes the secant through its two iterates with the smallest
    ``|fn|`` (at first its ends), clamped inside the bracket, flanked by a
    squeeze pair ``t +- h`` with ``h = 0.45 tol``: once the secant lands
    within ``h`` of the root, the pair closes the bracket.  A bracket behind
    schedule, or with a non-finite secant, takes its quarter points, which
    cut it to a quarter and so catch up in one step.  The new bracket is the
    first sign change from ``lo``; a zero of ``fn`` collapses the bracket
    onto it.  A bracket of width ``w0`` stops within
    ``ceil(log2(w0 / tol)) + 2`` calls, at its midpoint, or sooner once its
    ends are adjacent floats.
    """
    out = 0.5 * lo + 0.5 * hi  # halves summed: lo + hi may pass the float range
    # Per live bracket: ends a < b, the sign of fn at a, secant iterates q and p (smaller |fn|
    # first, NaN last, the earlier on ties), fn at them, the budget and the index in out.
    lo_first = _first(flo, fhi)
    a, b, slo, idx = lo, hi, np.sign(flo), np.arange(lo.size)
    q, p = np.where(lo_first, lo, hi), np.where(lo_first, hi, lo)
    fq, fp = np.where(lo_first, flo, fhi), np.where(lo_first, fhi, flo)
    h = 0.45 * tol
    squeeze = np.array([-h, 0.0, h])
    budget = np.ceil(np.log2(hi - lo) - np.log2(tol)).astype(int) + 2
    for k in range(budget.max(initial=0)):
        # A bracket whose ends are adjacent floats cannot shrink further.
        live = (b - a > tol) & (np.nextafter(a, b) < b)
        if not live.all():
            out[idx] = 0.5 * a + 0.5 * b
            a, b, slo, q, p, fq, fp, budget, idx = (
                v[live] for v in (a, b, slo, q, p, fq, fp, budget, idx))
            if idx.size == 0:
                break
        w = b - a
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = q - fq * (q - p) / (fq - fp)
            # A bound past the float range keeps the bracket on schedule.
            secant = np.isfinite(t) & (w <= np.ldexp(tol, budget - (k + 1)))
        t = np.minimum(np.maximum(t, a + 1.01 * h), b - 1.01 * h)
        nodes = np.column_stack([a, a + 0.25 * w, 0.5 * a + 0.5 * b, b - 0.25 * w])
        pts = nodes[:, 1:]
        pts[secant] = t[secant, None] + squeeze
        f = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
        # The new bracket ends at the first point whose sign differs from a's (at b if none
        # does) and starts at the node before it, or at that point if fn is 0 there.
        s = np.sign(f)
        differs = s != slo[:, None]
        starts = np.where(s == 0.0, pts, nodes[:, :3])
        a = pts[:, 2]
        for i in (2, 1, 0):
            a = np.where(differs[:, i], starts[:, i], a)
            b = np.where(differs[:, i], pts[:, i], b)
        # The midpoint m joins the two iterates; the best two of the three go on.
        m, fm = pts[:, 1], f[:, 1]
        m_first, m_second = _first(fm, fq), _first(fm, fp)
        q, p = np.where(m_first, m, q), np.where(m_first, q, np.where(m_second, m, p))
        fq, fp = np.where(m_first, fm, fq), np.where(m_first, fq, np.where(m_second, fm, fp))
    out[idx] = 0.5 * a + 0.5 * b
    return out


def find_cusps(
    curve: InclinationCurve,
    interval: AngleInterval | Sequence[float],
) -> list[float]:
    """Angles strictly inside the interval where R changes sign.

    Each sign change between grid nodes is refined to a bracket no wider
    than ``_CUSP_TOL`` by secant steps with a squeeze pair under a
    bisection schedule.  An interior run of zero nodes whose nonzero
    neighbours differ in sign is one cusp, at the midpoint of the run's
    first and last nodes; a zero that R only touches, keeping its sign, is
    no cusp.

    Raises
    ------
    ValidationError
        If the angles are not finite and strictly increasing.
    EvaluationError
        If R is not finite at a grid node.
    """
    thetas = _resolve_grid(curve, interval)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(curve.jet(thetas)[0], dtype=float)
    _check_finite("R", r, thetas)

    sign = np.sign(r)
    left, right = sign[:-1], sign[1:]
    brackets = np.flatnonzero((left != 0) & (right != 0) & (left != right))
    refined = _refine_zeros(
        lambda t: curve.jet(t)[0],
        thetas[brackets],
        thetas[brackets + 1],
        r[brackets],
        r[brackets + 1],
        _CUSP_TOL,
    )
    # Runs of zero nodes [first, last], kept where both neighbours exist.
    edges = np.flatnonzero(np.diff(np.concatenate([[0], sign == 0, [0]])))
    first, last = edges[0::2], edges[1::2] - 1
    inner = (first > 0) & (last < sign.size - 1)
    first, last = first[inner], last[inner]
    crossing = sign[first - 1] != sign[last + 1]
    on_grid = 0.5 * (thetas[first[crossing]] + thetas[last[crossing]])
    return np.sort(np.concatenate([refined, on_grid])).tolist()


def frenet_residual(samples: CurveSamples) -> float:
    """Largest deviation of the sampled frame from its defining equations.

    Uses centred differences of the tangent against arclength and compares
    with ``normal / R`` at the interior samples.  Needs at least three
    samples with pairwise distinct arclengths.
    """
    if not isinstance(samples, CurveSamples):
        raise ValidationError(f"samples must be a CurveSamples record, got {samples!r}")
    if len(samples) < 3:
        raise DegenerateSamplingError("frenet_residual needs at least 3 samples")
    t, n = samples.frame
    r = samples.radius
    ds = samples.arclength[2:] - samples.arclength[:-2]
    if np.any(ds == 0.0):
        raise DegenerateSamplingError("coincident arclengths; sampling is degenerate")
    if np.any(r[1:-1] == 0.0):
        raise DegenerateSamplingError("R vanishes at an interior sample (cusp)")
    dt_ds = (t[2:] - t[:-2]) / ds[:, None]
    target = n[1:-1] / r[1:-1, None]
    return float(np.max(np.linalg.norm(dt_ds - target, axis=1)))


# ---------------------------------------------------------------------------
# stock curves


def circle(radius: float = 1.0) -> InclinationCurve:
    """Constant turning radius."""
    if _checks.real("radius", radius) == 0.0:
        raise ValidationError("circle needs a nonzero radius")

    def jet(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, radius), np.zeros_like(t)

    return _exp_sum_curve(jet, f"circle(R={radius:g})", [0.0], [radius])


def cycloid(amplitude: float = 1.0) -> InclinationCurve:
    """R = A sin(theta): the rolling-point curve, cusps at multiples of pi."""
    if _checks.real("amplitude", amplitude) == 0.0:
        raise ValidationError("cycloid needs a nonzero amplitude")
    return _exp_sum_curve(lambda t: (amplitude * np.sin(t), amplitude * np.cos(t)),
                          f"cycloid(A={amplitude:g})", [1j], [-1j * amplitude])


def log_spiral(amplitude: float = 1.0, growth: float = 1.0) -> InclinationCurve:
    """R = A * exp(b * theta): the equiangular spiral."""
    growth = _checks.real("growth", growth)
    if _checks.real("amplitude", amplitude) == 0.0:
        raise ValidationError("log_spiral needs a nonzero amplitude")

    def jet(t):
        grow = np.exp(growth * np.asarray(t, dtype=float))
        return amplitude * grow, amplitude * growth * grow

    return _exp_sum_curve(jet, f"log_spiral(A={amplitude:g}, b={growth:g})",
                          [growth], [amplitude])


def polynomial_curve(coefficients: Sequence[float]) -> InclinationCurve:
    """R given by a polynomial in theta (ascending coefficients)."""
    coeffs = _checks.finite("coefficients", coefficients)
    if coeffs.ndim != 1 or not np.any(coeffs):
        raise ValidationError("polynomial_curve needs a flat list with a nonzero coefficient")
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    return InclinationCurve(
        jet=lambda t: (poly(np.asarray(t, dtype=float)), dpoly(np.asarray(t, dtype=float))),
        label="poly(" + ",".join(f"{c:g}" for c in coeffs) + ")",
    )
