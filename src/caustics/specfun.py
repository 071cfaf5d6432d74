"""Scalar special functions backing the curve solvers.

Three ingredients that the delay and mirror machinery needs repeatedly:

* a multi-branch complex Lambert W (``lambert_w``), solved by Halley
  iteration from branch-aware starting points,
* the odd Maclaurin coefficients of ``tan`` (``tan_coeffs``), obtained by
  dividing the sine series by the cosine series in exact rationals,
* even zeta values (``zeta_even``) through the Bernoulli-number closed
  form, used to cross-check the tangent coefficients.
"""
from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _checks
from .errors import NumericError, PoleError, ValidationError

__all__ = [
    "lambert_w",
    "TanCoefficients",
    "tan_coeffs",
    "zeta_even",
]

_BRANCH_POINT = -1.0 / math.e
_MAX_HALLEY_STEPS = 100


def _initial_guess(k: int, z: complex) -> complex:
    """Starting point for Halley iteration on branch ``k`` at ``z``."""
    p2 = 2.0 * (math.e * z + 1.0)
    if abs(p2) < 0.5:
        # Near -1/e two sheets meet.  Which pair depends on the side of the
        # real axis: {0, -1} on and above it, {0, +1} strictly below.
        p = cmath.sqrt(p2)
        if k == 0:
            return -1.0 + p - p2 / 3.0 + 11.0 / 72.0 * p * p2
        mirror = -1.0 - p - p2 / 3.0 - 11.0 / 72.0 * p * p2
        if k == -1 and (z.imag > 0.0 or (z.imag == 0.0 and z.real < 0.0)):
            return mirror
        if k == 1 and z.imag < 0.0:
            return mirror
    if k == 0:
        if z.imag == 0.0 and z.real < _BRANCH_POINT:
            # The cut along (-inf, -1/e) inherits its values from above.
            L1 = complex(math.log(-z.real), math.pi)
            return L1 - cmath.log(L1)
        if abs(z) <= 2.0:
            return cmath.log(1.0 + z)
        L1 = cmath.log(z)
        return L1 - cmath.log(L1)
    if k == -1 and z.imag == 0.0 and _BRANCH_POINT <= z.real < 0.0:
        L1 = math.log(-z.real)
        return complex(L1 - math.log(-L1))
    L1 = cmath.log(z) + 2j * math.pi * k
    return L1 - cmath.log(L1)


def _halley(k: int, z: complex, scaled: bool) -> tuple[complex, float]:
    """Halley's iteration for ``w e^w = z`` on branch ``k``: the best iterate and its residual
    ``|w e^w - z|``.  With ``scaled`` it steps on the terms times ``e^(-w)``, ``w - z e^(-w)``,
    finite where ``w e^w - z``, its size or Halley's denominator pass the float range, and takes
    the residual as ``|z| |w - z e^(-w)| / |z e^(-w)|``.  A step within rounding takes one more
    pass for its residual; a step that leaves the floats ends the iteration."""
    w = best_w = _initial_guess(k, z)
    best_res, last = math.inf, False
    for _ in range(_MAX_HALLEY_STEPS):
        if scaled:
            e = z * cmath.exp(-w)
            f = w - e
            res = abs(f) / abs(e) * abs(z)
            done = abs(f) <= 1e-15 * (abs(e) + abs(w))
        else:
            e = cmath.exp(w)
            f = w * e - z
            res = abs(f)
            done = res <= 1e-15 * (abs(z) + abs(w * e)) + 5e-324
        if res < best_res:
            best_w, best_res = w, res
        if last or done:
            break
        wp1 = w + 1.0
        denom = (wp1 if scaled else e * wp1) - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0:
            break
        dw = f / denom
        w = w - dw
        if not cmath.isfinite(w):
            break
        last = abs(dw) <= 2e-16 * (2.0 + abs(w))
    return best_w, best_res


def lambert_w(k: int, z: complex | float):
    """Branch ``k`` of the Lambert W function.

    Solves ``w * exp(w) = z`` by at most ``_MAX_HALLEY_STEPS`` Halley steps
    from a branch-aware initial guess.  Accepts any finite complex ``z``;
    real arguments that lie on the real range of the requested branch come
    back as plain floats.

    Parameters
    ----------
    k : int
        Branch index.  ``k=0`` is the principal branch; ``k=-1`` carries
        the second real solution for ``-1/e <= z < 0``.
    z : complex or float
        Argument.  ``z=0`` is only valid on the principal branch.

    Returns
    -------
    complex or float
        ``w`` with ``|w exp(w) - z| <= 1e-13 * max(|z|, tiny)``.

    Raises
    ------
    ValidationError
        For a ``k`` that is not an integer, or a ``z`` that is not finite.
    PoleError
        For ``z == 0`` on any branch other than the principal one.
    NumericError
        If the iteration cannot meet the residual tolerance.
    """
    k = _checks.integer("k", k)
    z_was_real = not isinstance(z, complex)
    zc = _checks.number("z", z)
    if zc == 0:
        if k == 0:
            return 0.0 if z_was_real else 0.0j
        raise PoleError(f"z=0 is a logarithmic pole of branch {k}")
    if zc.imag == 0.0 and abs(zc.real - _BRANCH_POINT) < 4e-17 and k in (0, -1):
        return -1.0 if z_was_real else complex(-1.0)

    w, res = _halley(k, zc, False)
    bound = 1e-13 * max(abs(zc), 1e-300)
    if res > bound:  # near the float limit, where w e^w - z or its step may overflow
        w, res = _halley(k, zc, True)
    if res > bound:
        raise NumericError(f"lambert_w did not converge: branch {k}, z={zc}, residual {res:.3e}")
    if z_was_real and w.imag == 0.0:
        return w.real
    return w


# ---------------------------------------------------------------------------
# tangent series


_TAN_EXACT: list[Fraction] = []
"""tau_0, tau_1, ...: one growing table, extended term by term."""
_TAN_LOCK = threading.Lock()


def _tan_exact(n_max: int) -> tuple[Fraction, ...]:
    # tan t = t * S(t^2)/C(t^2); divide the series termwise.
    with _TAN_LOCK:
        out = _TAN_EXACT
        if len(out) <= n_max:
            cos_part = [Fraction((-1) ** j, math.factorial(2 * j)) for j in range(n_max + 1)]
            for n in range(len(out), n_max + 1):
                acc = Fraction((-1) ** n, math.factorial(2 * n + 1))
                for j in range(1, n + 1):
                    acc -= cos_part[j] * out[n - j]
                out.append(acc)
        return tuple(out[: n_max + 1])


@dataclass(frozen=True)
class TanCoefficients:
    """Coefficients tau of ``tan t = sum_n tau[n] * t**(2n+1)``.

    ``exact`` holds the coefficients as rationals, ``values`` as floats.
    All coefficients are strictly positive and ``values[0] == 1``.
    """

    n_max: int
    exact: tuple[Fraction, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.exact[0] != 1 or any(c <= 0 for c in self.exact):
            raise NumericError("tangent coefficients must be positive, starting with 1")

    def eval(self, t):
        """Evaluate the truncated series at ``t`` (scalar or array).

        The result is the order-``n_max`` partial sum, not ``tan`` itself.
        For ``|t| < pi/2`` its truncation error ``tan t - eval(t)`` has the
        sign of ``t`` and, since every coefficient is positive, lies between
        the first omitted term ``tau[n_max+1] * |t|**(2*n_max+3)`` and the
        geometric tail of the growth bound ``tau[n] <= (pi**2/3)(2/pi)**(2n)``,
        ``(pi**2/3)(2/pi)**(2*n_max+2) |t|**(2*n_max+3) / (1 - (2t/pi)**2)``.
        """
        t = np.asarray(t, dtype=float)
        t2 = t * t
        acc = np.zeros_like(t)
        for c in self.values[::-1]:
            acc = acc * t2 + c
        return acc * t


def tan_coeffs(n_max: int) -> TanCoefficients:
    """First ``n_max + 1`` odd Maclaurin coefficients of the tangent.

    Computed by exact rational division of the sine series by the cosine
    series, then rounded once to float.  ``tan_coeffs(2).values`` is
    ``[1, 1/3, 2/15]``.
    """
    n_max = _checks.integer("n_max", n_max, least=0)
    exact = _tan_exact(n_max)
    values = np.array([float(c) for c in exact])
    return TanCoefficients(n_max=n_max, exact=exact, values=values)


# ---------------------------------------------------------------------------
# even zeta values


@lru_cache(maxsize=None)
def _bernoulli_upto(m: int) -> tuple[Fraction, ...]:
    # sum_{j=0}^{m} C(m+1, j) B_j = 0, B_0 = 1
    out = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * out[j]
        out.append(-acc / (n + 1))
    return tuple(out)


def zeta_even(n: int) -> float:
    """zeta(n) for positive even integer ``n``, via Bernoulli numbers.

    Uses ``zeta(2m) = (-1)**(m+1) * B_2m * (2*pi)**(2m) / (2 * (2m)!)``,
    carried in exact rational arithmetic up to a single float rounding.
    For n >= 54 the tail ``zeta(n) - 1 ~ 2**-n`` sits below the double
    resolution at 1, so the correctly rounded closed-form value is 1.0
    and no Bernoulli number is expanded.
    """
    n = _checks.integer("n", n, least=1)
    if n % 2:
        raise ValidationError(f"zeta_even expects a positive even integer, got {n!r}")
    if n >= 54:
        return 1.0
    m = n // 2
    bern = _bernoulli_upto(n)[n]
    rational = (-1) ** (m + 1) * bern * Fraction(2**n, 2 * math.factorial(n))
    return float(rational * Fraction(math.pi) ** n)
