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


@pytest.mark.parametrize("size", [3e307, 1e308, 1.7e308])
def test_near_the_float_limit_matches_mpmath(size):
    # Past about 2.76e307 on branch 0, w e^w - z and Halley's denominator overflow; the
    # iteration takes them times e^(-w) there.
    with mpmath.workdps(40):
        for z in (size, -size, complex(0, size), complex(0, -size)):
            for k in (-2, -1, 0, 1, 2):
                ours = mpmath.mpc(lambert_w(k, z))
                ref = mpmath.lambertw(z, k)
                assert abs(ours * mpmath.exp(ours) - z) <= 1e-13 * abs(z)
                assert abs(ours - ref) <= 1e-15 * abs(ref)


_BRANCH = -0.36787944117144233  # float(-1/e)

# lambert_w's bits at arguments of both Halley passes: ordinary draws, points near -1/e, tiny z
# on branch -1, then the float limit, where the plain pass overflows and the scaled one ends.
PINNED_BITS = [
    (0, 1.0, "0x1.22609af8e9658p-1", None),
    (-1, -0.1, "-0x1.c9e01e6bc1fbap+1", None),
    (0, 2 + 1j, "0x1.c807be0894e66p-1", "0x1.c40bcf318c193p-3"),
    (1, -3.5 + 0.7j, "-0x1.829841d503cf6p-1", "0x1.e3a5e45a45c50p+2"),
    (-3, 0.05 - 12j, "-0x1.cd2d7f122c022p-2", "-0x1.2d24b8e061336p+4"),
    (2, 17.3, "0x1.cb77c70f0e4c9p-2", "0x1.61289f934fbbdp+3"),
    (0, -0.3678794401714423, "-0x1.fff655fd6b4f5p-1", None),
    (-1, -0.36787941117144235, "-0x1.001a786f2eefbp+0", None),
    (1, complex(_BRANCH, -1e-7), "-0x1.00222b291db1cp+0", "0x1.11719e88b1e99p-11"),
    (-1, complex(_BRANCH, 1e-12), "-0x1.00001ba934354p+0", "-0x1.ba936335bcddfp-20"),
    (-1, -1e-300, "-0x1.5ca950bbd0767p+9", None),
    (-1, -5e-324, "-0x1.7786bf03829b6p+9", None),
    (-2, 3e307, "0x1.5eb82f4044899p+9", "-0x1.918d2bfee03b3p+3"),
    (-1, 3e307, "0x1.5eb8332d63892p+9", "-0x1.918d290158564p+2"),
    (0, 3e307, "0x1.5eb8347c7b870p+9", None),
    (1, 3e307, "0x1.5eb8332d63892p+9", "0x1.918d290158564p+2"),
    (2, 3e307, "0x1.5eb82f4044899p+9", "0x1.918d2bfee03b3p+3"),
    (-2, 1e308, "0x1.5f5212ef0c1ffp+9", "-0x1.918d6c1405d68p+3"),
    (-1, 1e308, "0x1.5f5216d8bd604p+9", "-0x1.918d691a676e3p+2"),
    (0, 1e308, "0x1.5f521826b0b14p+9", None),
    (1, 1e308, "0x1.5f5216d8bd604p+9", "0x1.918d691a676e3p+2"),
    (2, 1e308, "0x1.5f5212ef0c1ffp+9", "0x1.918d6c1405d68p+3"),
    (-2, 1.7e308, "0x1.5f95e5ddd4e34p+9", "-0x1.918d884083a7bp+3"),
    (-1, 1.7e308, "0x1.5f95e9c604b69p+9", "-0x1.918d85489c780p+2"),
    (0, 1.7e308, "0x1.5f95eb1377837p+9", None),
    (1, 1.7e308, "0x1.5f95e9c604b69p+9", "0x1.918d85489c780p+2"),
    (2, 1.7e308, "0x1.5f95e5ddd4e34p+9", "0x1.918d884083a7bp+3"),
    (-2, -1e308, "0x1.5f52153756c52p+9", "-0x1.2d2a0fc1d425bp+3"),
    (-1, -1e308, "0x1.5f5217d3333a3p+9", "-0x1.918d685bf7220p+1"),
    (0, -1e308, "0x1.5f5217d3333a3p+9", "0x1.918d685bf7220p+1"),
    (1, -1e308, "0x1.5f52153756c52p+9", "0x1.2d2a0fc1d425bp+3"),
    (2, -1e308, "0x1.5f520fffef3c3p+9", "0x1.f5f0c9e2de2abp+3"),
    (-2, 1e308j, "0x1.5f5214280cf58p+9", "-0x1.5f5bbdc149062p+3"),
    (-1, 1e308j, "0x1.5f52176ad6fe0p+9", "-0x1.2d2a0e807cc28p+2"),
    (0, 1e308j, "0x1.5f521811d1495p+9", "0x1.918d682c5a83dp+0"),
    (1, 1e308j, "0x1.5f52161ce77dep+9", "0x1.f5f0c41387b6ap+2"),
    (2, 1e308j, "0x1.5f52118c56a67p+9", "0x1.c3bf1ac5ecac6p+3"),
]


@pytest.mark.parametrize("k, z, real, imag", PINNED_BITS)
def test_pinned_bits_on_both_passes(k, z, real, imag):
    w = lambert_w(k, z)
    if imag is None:
        assert type(w) is float and w.hex() == real
    else:
        assert type(w) is complex and (w.real.hex(), w.imag.hex()) == (real, imag)


def test_a_step_that_leaves_the_floats_ends_the_plain_pass(monkeypatch):
    # At 3e307 the plain pass's first step overflows Halley's denominator and turns NaN; the
    # scaled pass then converges in a few steps instead of after 100 NaN iterates.
    calls = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda w: calls.append(w) or exp(w))
    assert lambert_w(0, 3e307).hex() == "0x1.5eb8347c7b870p+9"
    assert len(calls) <= 8


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
