"""Lambert W branches, tangent Taylor coefficients, even zeta values."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from caustics import specfun
from caustics.errors import ValidationError
from caustics.specfun import (
    lambert_w,
    tan_coeffs,
    zeta_even,
)

OMEGA = 0.5671432904097838729999687  # W_0(1)


def test_principal_branch_at_one():
    assert abs(lambert_w(0, 1.0) - OMEGA) < 1e-15


def test_known_real_values():
    assert abs(lambert_w(0, 0.0)) == 0.0
    assert abs(lambert_w(0, math.e) - 1.0) < 1e-15
    assert abs(lambert_w(0, -1.0 / math.e) + 1.0) < 1e-7
    assert abs(lambert_w(-1, -1.0 / math.e) + 1.0) < 1e-7
    assert abs(lambert_w(-1, -0.1) + 3.577152063957297) < 1e-12


def test_round_trip_on_random_annulus(rng):
    mods = rng.uniform(0.05, 20.0, size=120)
    args = rng.uniform(-math.pi, math.pi, size=120)
    for k in (-2, -1, 0, 1, 2):
        for z in mods * np.exp(1j * args):
            w = lambert_w(k, complex(z))
            assert abs(w * cmath.exp(w) - z) <= 1e-12 * max(1.0, abs(z))


def test_matches_scipy_off_the_cut(rng):
    pts = rng.uniform(-4.0, 4.0, size=(60, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]
    for k in (-2, -1, 0, 1, 2):
        for x, y in pts:
            z = complex(x, y)
            ours = lambert_w(k, z)
            ref = complex(scipy.special.lambertw(z, k=k))
            assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


def test_matches_mpmath_near_branch_point():
    for dz in (1e-4, 1e-6 + 1e-6j, -1e-5j, 3e-8):
        z = -1.0 / math.e + dz
        for k in (0, -1):
            ours = lambert_w(k, z)
            ref = complex(mpmath.lambertw(z, k))
            assert abs(ours - ref) < 1e-10


def test_conjugate_branch_pairing(rng):
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        for k in (-2, -1, 0, 1, 2):
            left = lambert_w(k, z.conjugate())
            right = lambert_w(-k, z).conjugate()
            assert abs(left - right) < 1e-12 * max(1.0, abs(right))


def test_tan_coefficient_fractions():
    tc = tan_coeffs(6)
    expected = [
        Fraction(1),
        Fraction(1, 3),
        Fraction(2, 15),
        Fraction(17, 315),
        Fraction(62, 2835),
    ]
    assert list(tc.exact[:5]) == expected
    assert tc.values[3] == pytest.approx(17.0 / 315.0, abs=1e-17)


def _reference_tan(n_max):
    """tan t = t S(t^2) / C(t^2), divided from scratch."""
    sin_part = [Fraction((-1) ** j, math.factorial(2 * j + 1)) for j in range(n_max + 1)]
    cos_part = [Fraction((-1) ** j, math.factorial(2 * j)) for j in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        acc = sin_part[n]
        for j in range(1, n + 1):
            acc -= cos_part[j] * out[n - j]
        out.append(acc)
    return tuple(out)


def test_tan_table_grows_to_the_reference_division(monkeypatch):
    monkeypatch.setattr(specfun, "_TAN_EXACT", [])
    for n_max in (61, 3, 40, 80):
        tc = tan_coeffs(n_max)
        want = _reference_tan(n_max)
        assert tc.n_max == n_max and tc.exact == want
        assert tc.values.tobytes() == np.array([float(c) for c in want]).tobytes()


def test_tan_eval_matches_tan():
    tc = tan_coeffs(30)
    for t in (0.0, 0.3, -0.5, 0.9):
        assert abs(tc.eval(t) - math.tan(t)) < 5e-14
    # at t = 1 the order-30 truncation tail dominates
    assert abs(tc.eval(1.0) - math.tan(1.0)) < 2e-12


def test_zeta_even_values():
    assert abs(zeta_even(2) - math.pi**2 / 6) < 1e-15
    assert abs(zeta_even(4) - math.pi**4 / 90) < 1e-15
    assert abs(zeta_even(10) - math.pi**10 / 93555) < 1e-12
    assert abs(zeta_even(26) - float(mpmath.zeta(26))) < 1e-14
    assert abs(zeta_even(52) - float(mpmath.zeta(52))) < 5e-15
    assert zeta_even(300) == 1.0
    assert zeta_even(10**6) == 1.0


def test_zeta_even_rejects_bad_arguments():
    for bad in (0, -2, 3):
        with pytest.raises(ValidationError):
            zeta_even(bad)


def test_tan_coefficients_from_zeta():
    # 2 (2^(2n) - 1) zeta(2n) / pi^(2n) equals the coefficient of
    # theta^(2n-1), one slot below an indexing that would pair it with
    # theta^(2n+1).
    tc = tan_coeffs(16)
    for n in range(1, 15):
        via_zeta = 2.0 * (4.0**n - 1.0) * zeta_even(2 * n) / math.pi ** (2 * n)
        direct = tc.values[n - 1]
        assert abs(via_zeta - direct) < 1e-14 * max(1.0, direct)


def test_unknown_branch_input_validation():
    with pytest.raises(ValidationError):
        lambert_w(0.5, 1.0)  # type: ignore[arg-type]
