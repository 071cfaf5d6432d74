"""Caustics of inclination curves under a tilted conormal field.

A tilt field phi(theta) rotates the curve's frame into a coframe
``tau = cos(phi) T - sin(phi) N`` and ``nu = sin(phi) T + cos(phi) N``.
Rays leave the curve along ``nu``; their envelope is the caustic.  The
caustic point at parameter theta sits at ``r + (cos phi / chi) nu`` with
focusing density ``chi = (1 - phi') / R``, its tangent angle is
``theta + pi/2 - phi``, and its own turning radius follows from the
curve's jet (R, R') and the tilt's jet (phi, phi', phi'').  A
``TiltField`` is that one map ``theta -> (phi, phi', phi'')``;
``caustic_curve`` evaluates it once, and ``coframe`` and ``caustic_radius``
check their arguments before they share its formulas.

Three stock tilts cover the classical constructions: ``evolute`` (phi = 0,
normal rays), ``skew`` (constant phi), and ``reflection``
(phi = pi/2 - theta, horizontal light reflected by the curve).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

import numpy as np

from . import _checks
from .errors import EvaluationError, FlatCausticError, ValidationError
from .inclination import (
    AngleInterval,
    ColumnRecord,
    CurveSamples,
    InclinationCurve,
    _check_domain,
    _check_finite,
    reconstruct,
)

__all__ = [
    "TiltField",
    "CausticSample",
    "Caustic",
    "SimilaritySpec",
    "OK",
    "CUSP",
    "FLAT_TILT",
    "AT_INFINITY",
    "coframe",
    "caustic_radius",
    "caustic_curve",
    "similarity_residual",
]

FLAT_TILT_GUARD = 1e-8

OK, CUSP, FLAT_TILT, AT_INFINITY = 0, 1, 2, 3
"""Per-node ``Caustic.flag`` codes: a regular node, then the three failures."""

_FLAG_ERRORS = {
    CUSP: "R vanishes",
    FLAT_TILT: f"the tilt derivative is within {FLAT_TILT_GUARD:g} of 1",
    AT_INFINITY: "the caustic is not finite",
}
"""The error text of a flagged node's ``CausticSample``, before `` at theta = <t>``."""


@dataclass(frozen=True)
class TiltField:
    """A tilt angle phi(theta) as one jet: ``jet(theta) -> (phi, phi', phi'')``.

    ``jet`` is vectorised over a float array of angles; a part may be a plain
    number, broadcast to theta's shape (``caustic_curve`` reads three as scalars).
    """

    jet: Callable[[np.ndarray], tuple]

    @staticmethod
    def evolute() -> "TiltField":
        """Rays along the normal: phi identically 0."""
        return TiltField(lambda t: (0.0, 0.0, 0.0))

    @staticmethod
    def skew(phi0: float) -> "TiltField":
        """Rays at a constant angle phi0 to the normal; ``phi0`` must be a finite real number."""
        phi0 = _checks.real("phi0", phi0)
        return TiltField(lambda t: (phi0, 0.0, 0.0))

    @staticmethod
    def reflection() -> "TiltField":
        """Horizontal rays reflected by the curve: phi = pi/2 - theta."""
        return TiltField(lambda t: (math.pi / 2 - t, -1.0, 0.0))

    def __call__(self, theta):
        """phi, phi' and phi'' at ``theta``, each broadcast to theta's shape.

        Raises ``EvaluationError`` at the first angle where one is not finite.
        """
        return self._parts(np.asarray(theta, dtype=float), broadcast=True)

    def _parts(self, theta, broadcast=False):
        """``__call__`` at the float array ``theta``, but three numpy scalars where every part
        of the jet is a plain number and not ``broadcast``: a constant tilt read as scalars."""
        phi, p1, p2 = self.jet(theta)
        # A float skips np.ndim, which costs microseconds on a number.
        plain = not broadcast and all(isinstance(v, float) or not np.ndim(v) for v in (phi, p1, p2))
        jet = np.empty((3,) if plain else (3, *theta.shape))
        jet[0], jet[1], jet[2] = phi, p1, p2
        if not np.isfinite(jet).all():
            finite = np.broadcast_to(np.isfinite(jet).all(axis=0), theta.shape)
            raise EvaluationError(f"tilt is not finite at theta = {theta[~finite][0]}")
        return jet[0], jet[1], jet[2]


@dataclass(frozen=True)
class CausticSample:
    """One caustic vertex, or a flagged failure for its source angle."""

    source_theta: float
    caustic_theta: float
    caustic_radius: float
    position: np.ndarray
    ray_length: float
    error: str | None = None


@dataclass(frozen=True, eq=False)
class Caustic(ColumnRecord):
    """Caustic vertices as columns, one entry per source node.

    ``caustic_theta`` is the caustic's tangent angle, ``x, y`` its
    position, ``caustic_radius`` its turning radius and ``ray_length`` the
    distance from the source node along the ray.  ``flag`` holds ``OK``
    or the failure code of the node: ``CUSP`` (R = 0), ``FLAT_TILT`` (phi'
    within ``FLAT_TILT_GUARD`` of 1) or ``AT_INFINITY`` (a column is not
    finite, as where the focusing density underflows).  Flagged nodes are
    NaN in every float column; unflagged nodes are finite in every one.
    ``source`` is the reconstructed curve the rays leave from.
    """

    caustic_theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    caustic_radius: np.ndarray
    ray_length: np.ndarray
    flag: np.ndarray
    source: CurveSamples

    _columns = ("caustic_theta", "x", "y", "caustic_radius", "ray_length", "flag", "source")

    def __iter__(self):
        """One ``CausticSample`` view per node, built from the columns."""
        for t, t1, r1, position, length, flag in zip(
            self.source.theta.tolist(),
            self.caustic_theta.tolist(),
            self.caustic_radius.tolist(),
            self.points,
            self.ray_length.tolist(),
            self.flag.tolist(),
        ):
            error = None if flag == OK else f"{_FLAG_ERRORS[flag]} at theta = {t}"
            yield CausticSample(t, t1, r1, position, length, error)


@dataclass(frozen=True)
class SimilaritySpec:
    """Parameters of a self-similarity law ``caustic = a * source(shifted)``.

    ``sign=+1`` compares against ``R(theta + pi/2 - phi - beta)``; ``sign=-1``
    against the angle-reversed argument.
    """

    factor_a: float
    shift_beta: float
    sign: int = 1

    def __post_init__(self):
        for name in ("factor_a", "shift_beta"):
            object.__setattr__(self, name, _checks.real(name, getattr(self, name)))
        object.__setattr__(self, "sign", _checks.integer("sign", self.sign))
        if self.sign not in (-1, 1):
            raise ValidationError("similarity sign must be +1 or -1")


def _coframe(ct, st, sp, cp, radius, phi_prime):
    """``nu``'s two components and ``chi`` from cos and sin of theta and phi; no checks."""
    return sp * ct - cp * st, sp * st + cp * ct, (1.0 - phi_prime) / radius


def _radius(r, r_prime, sp, cp, p1, p2):
    """The caustic's turning radius from sin and cos of phi; no checks."""
    one = 1.0 - p1
    out = ((1.0 - 2.0 * p1) * sp + (p2 / one) * cp) * r
    return (out + cp * r_prime) / (one * one)


def coframe(theta, radius, phi, phi_prime):
    """Ray direction ``nu`` and focusing density ``chi`` of the tilted coframe.

    ``nu = sin(phi) T + cos(phi) N`` with ``T = (cos theta, sin theta)`` and
    ``N`` the tangent turned counterclockwise; ``chi = (1 - phi') / R``.
    All arguments are finite and broadcast; ``nu`` gains a trailing axis
    of length 2.  No node is rejected: chi is infinite (or NaN) where R
    vanishes and near zero where the tilt is flat.
    """
    theta, phi = _checks.finite("theta", theta), _checks.finite("phi", phi)
    phi_prime, radius = _checks.finite("phi_prime", phi_prime), _checks.finite("radius", radius)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_x, nu_y, chi = _coframe(
            np.cos(theta), np.sin(theta), np.sin(phi), np.cos(phi), radius, phi_prime)
    return np.stack([nu_x, nu_y], axis=-1), chi


def _check_flat(phi_prime) -> None:
    """Raise ``FlatCausticError`` where the tilt derivative is within the guard of 1."""
    if (np.abs(1.0 - phi_prime) < FLAT_TILT_GUARD).any():
        raise FlatCausticError("tilt derivative too close to 1; caustic flattens")


def caustic_radius(r, r_prime, phi, phi_prime, phi_second):
    """Turning radius of the caustic from local curve and tilt data.

    All arguments are finite and broadcast.  The tilt derivative must stay away from 1 (else
    the caustic flattens); a radius that leaves the floats raises ``EvaluationError``.
    """
    r, r_prime, phi, p1, p2 = (_checks.finite(name, value) for name, value in zip(
        ("r", "r_prime", "phi", "phi_prime", "phi_second"), (r, r_prime, phi, phi_prime, phi_second)))
    _check_flat(p1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _radius(r, r_prime, np.sin(phi), np.cos(phi), p1, p2)
    if not np.isfinite(out).all():
        raise EvaluationError("the caustic radius is not finite")
    return out if out.shape else float(out)


def _caustic_columns(source: CurveSamples, phi, p1, p2):
    """``Caustic``'s columns up to ``flag``, in one pass over checked arrays (a tilt part may be
    0-d, one ``sin`` and ``cos`` of a constant phi).

    A node's flag is the first of CUSP (R = 0), FLAT_TILT and AT_INFINITY (a column is not
    finite: the angle, point, radius or ray length left the floats) that holds; flagged nodes
    turn NaN at the end, so every unflagged node is finite in every column."""
    theta, r = source.theta, source.radius
    # One table, filled in place; cos and sin of theta wait in the rows of x and y.
    columns = np.empty((5, theta.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sp, cp = np.sin(phi), np.cos(phi)
        np.subtract(np.add(theta, math.pi / 2, out=columns[0]), phi, out=columns[0])
        columns[3] = _radius(r, source.radius_prime, sp, cp, p1, p2)
        nu_x, nu_y, chi = _coframe(np.cos(theta, out=columns[1]), np.sin(theta, out=columns[2]),
                                   sp, cp, r, p1)
        stretch = np.divide(cp, chi, out=columns[4])
        np.add(source.x, np.multiply(stretch, nu_x, out=columns[1]), out=columns[1])
        np.add(source.y, np.multiply(stretch, nu_y, out=columns[2]), out=columns[2])
        np.abs(stretch, out=stretch)
    cusp, flat = r == 0.0, np.abs(1.0 - p1) < FLAT_TILT_GUARD
    at_infinity = ~np.isfinite(columns).all(axis=0)
    bad = cusp | flat | at_infinity
    flag = np.zeros(theta.shape, dtype=int)
    if bad.any():
        flag[at_infinity], flag[flat], flag[cusp] = AT_INFINITY, FLAT_TILT, CUSP  # the last wins
        columns[:, bad] = math.nan
    return (*columns, flag)


def caustic_curve(
    curve: InclinationCurve,
    tilt: TiltField,
    interval: AngleInterval | Sequence[float],
) -> Caustic:
    """Caustic vertices over a whole interval.

    R and R' are the ``source`` columns, so the curve's jet runs once on
    the nodes.  Nodes whose coframe degenerates (cusp, flat tilt) or whose caustic
    leaves the floats are not dropped: they are flagged and carry NaN in every float column.
    """
    source = reconstruct(curve, interval)
    return Caustic(*_caustic_columns(source, *tilt._parts(source.theta)), source=source)


def similarity_residual(
    curve: InclinationCurve,
    tilt: TiltField,
    spec: SimilaritySpec,
    interval: AngleInterval,
) -> float:
    """Sup-norm defect of the self-similarity law on a grid; ``skew_equation_residual`` and
    ``mirror_equation_residual`` are this law under a constant and a reflection tilt.

    Compares the caustic radius at theta with ``a * R(sign * (theta + pi/2 - phi - beta))``
    and returns the largest absolute difference.  The jet runs once, on the grid and these
    arguments, before their domain is checked.  Raises ``FlatCausticError`` where the tilt is
    flat, ``DomainError`` if an argument leaves the curve's domain, and ``EvaluationError`` at
    the first angle where a value is not finite.
    """
    if not isinstance(interval, AngleInterval):
        raise ValidationError(f"interval must be an AngleInterval, got {interval!r}")
    thetas = interval.grid()
    # Overflow and division by zero are reported below or by the domain check, not warned about.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi, p1, p2 = tilt._parts(thetas)
        _check_flat(p1)
        arg = spec.sign * (thetas + math.pi / 2 - phi - spec.shift_beta)
        r, rp = (np.asarray(v, dtype=float) for v in curve.jet(np.concatenate([thetas, arg])))
        _check_domain(curve, arg, "similarity argument")
        r, rp, shifted = r[: thetas.size], rp[: thetas.size], r[thetas.size :]
        residual = _radius(r, rp, np.sin(phi), np.cos(phi), p1, p2) - spec.factor_a * shifted
    _check_finite("R, R' or the shifted R", np.stack([r, rp, shifted]), thetas)
    _check_finite("the residual", residual, thetas)
    return float(np.max(np.abs(residual)))
