"""The nested G3/K7/P15 panel rule, its error budget, its argument checks and its failures."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from caustics import inclination, quadrature
from caustics.errors import EvaluationError, NumericError, ValidationError
from caustics.inclination import cycloid, log_spiral, reconstruct
from caustics.quadrature import panel_integrals


def _monomial_errors(weights, degrees):
    x = quadrature._NODES[:weights.size]
    exact = [(1 - (-1) ** (d + 1)) / (d + 1) for d in degrees]
    return np.array([abs(weights @ x**d - e) for d, e in zip(degrees, exact)])


def test_kronrod_and_gauss_degrees_of_exactness():
    for weights, degree, miss in [(quadrature._G3, 5, 1e-2), (quadrature._K7, 11, 1e-4),
                                  (quadrature._P15, 23, 1e-9)]:
        assert np.all(_monomial_errors(weights, range(degree + 1)) <= 1e-15)
        assert _monomial_errors(weights, [degree + 1])[0] > miss
    assert np.array_equal(quadrature._K7_IN_P15, np.concatenate([quadrature._K7, np.zeros(8)]))


def _mp_moment(k):
    return mpmath.mpf(0) if k % 2 else mpmath.mpf(2) / (k + 1)


def _mp_extension(base, m):
    """Monic degree-``m`` q (coefficients from x^0) with int base q x^k = 0 for k < m."""
    a = mpmath.matrix(m, m)
    rhs = mpmath.matrix(m, 1)
    for k in range(m):
        for j in range(m):
            a[k, j] = sum(c * _mp_moment(i + j + k) for i, c in enumerate(base))
        rhs[k] = -sum(c * _mp_moment(i + m + k) for i, c in enumerate(base))
    q = mpmath.lu_solve(a, rhs)
    return [q[j] for j in range(m)] + [mpmath.mpf(1)]


def _mp_roots(coeffs):
    return [mpmath.re(r) for r in mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)]


def _mp_weights(nodes):
    """Interpolatory weights on [-1, 1]: exact for every degree below ``len(nodes)``."""
    a = mpmath.matrix([[x**k for x in nodes] for k in range(len(nodes))])
    w = mpmath.lu_solve(a, mpmath.matrix([_mp_moment(k) for k in range(len(nodes))]))
    return [w[j] for j in range(len(nodes))]


def test_tables_equal_mpmath_derivation():
    with mpmath.workdps(40):
        legendre3 = [mpmath.mpf(c) for c in (0, -3, 0, 5)]
        stieltjes4 = _mp_extension(legendre3, 4)
        k7_poly = [sum(legendre3[i] * stieltjes4[n - i] for i in range(4) if 0 <= n - i <= 4)
                   for n in range(8)]
        patterson8 = _mp_extension(k7_poly, 8)
        g3 = sorted(_mp_roots(legendre3))
        k7 = sorted(g3 + _mp_roots(stieltjes4))
        p15 = k7 + sorted(_mp_roots(patterson8))
        g3_weights = iter(_mp_weights(g3))
        expect = {
            "_NODES": p15,
            "_G3": [next(g3_weights) if x in g3 else 0 for x in k7],
            "_K7": _mp_weights(k7),
            "_P15": _mp_weights(p15),
        }
    for name, values in expect.items():
        assert np.array_equal(getattr(quadrature, name), [float(v) for v in values]), name


def _counting(fn, log):
    def counted(t):
        log.append(np.size(t))
        return fn(t)

    return counted


def test_smooth_curve_costs_seven_evaluations_per_panel(monkeypatch):
    sizes = []

    def traced(fn, edges, tol=1e-10):
        return panel_integrals(_counting(fn, sizes), edges, tol)

    monkeypatch.setattr(inclination, "panel_integrals", traced)
    t = np.linspace(-2 * np.pi, 2 * np.pi, 65537)
    samples = reconstruct(cycloid(), t)
    assert sum(sizes) == 7 * 65536 == 458752
    assert len(sizes) == 65536 // quadrature._BLOCK == 16
    assert np.max(np.abs(samples.x - np.sin(t) ** 2 / 2)) <= 1e-10
    assert np.max(np.abs(samples.y - (t - t[0]) / 2 + np.sin(2 * t) / 4)) <= 1e-10
    assert np.max(np.abs(samples.arclength - (np.cos(t[0]) - np.cos(t)))) <= 1e-10


def test_log_spiral_closed_form_on_a_fine_grid():
    t = np.linspace(0.0, 2 * np.pi, 65537)
    samples = reconstruct(log_spiral(1.0, 1.0), t)
    ex = np.exp(t) / 2
    assert np.max(np.abs(samples.x - (ex * (np.cos(t) + np.sin(t)) - 0.5))) <= 1e-10
    assert np.max(np.abs(samples.y - (ex * (np.sin(t) - np.cos(t)) + 0.5))) <= 1e-10
    assert np.max(np.abs(samples.arclength - (np.exp(t) - 1))) <= 1e-10


def test_cell_missed_by_k7_costs_fifteen_evaluations():
    sizes = []
    piece = panel_integrals(_counting(lambda t: np.cos(t)[None], sizes), [0.0, 1.0])
    assert sizes == [7, 8]
    assert abs(piece[0, 0] - math.sin(1.0)) <= 1e-15


def test_refined_panel_costs_fifteen_evaluations_in_one_call():
    sizes = []
    piece = panel_integrals(_counting(lambda t: np.cos(t)[None], sizes), [0.0, 4.0])
    assert sizes == [7, 8, 2 * 15]
    assert abs(piece[0, 0] - math.sin(4.0)) <= 1e-15


@pytest.mark.parametrize("edges, tol", [
    ([0.0, 1.0], math.nan),
    ([0.0, 1.0], math.inf),
    ([0.0, 1.0], -1.0),
    ([0.0, 1.0], 0.0),
    ([0.0], 1e-10),
    ([], 1e-10),
    ([[0.0, 1.0]], 1e-10),
    ([0.0, 2.0, 1.0], 1e-10),
    ([0.0, 1.0, 1.0], 1e-10),
    ([0.0, math.inf], 1e-10),
    ([math.nan, 1.0], 1e-10),
], ids=["tol_nan", "tol_inf", "tol_negative", "tol_zero", "one_edge", "no_edges", "edges_2d",
        "decreasing", "repeated", "infinite_edge", "nan_edge"])
def test_bad_arguments_raise_before_any_work(edges, tol):
    calls = []
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            panel_integrals(_counting(lambda t: t[None], calls), edges, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 64 * 1024


def test_singular_integrand_reports_failure():
    with pytest.raises(NumericError, match="rounding width"):
        panel_integrals(lambda t: np.abs(t - 0.3)[None] ** -0.9, [0.0, 1.0], tol=1e-10)


def test_step_in_integrand_stops_on_global_budget():
    step, calls = 1.234567, []
    edges = np.linspace(0.0, 4.0, 257)
    fn = _counting(lambda t: (np.cos(t) + 1e-9 * (t > step))[None], calls)
    pieces = panel_integrals(fn, edges, tol=1e-10)[0]
    exact = np.sin(edges[1:]) + 1e-9 * np.clip(edges[1:] - step, 0.0, None)
    assert len(calls) <= 12
    assert np.max(np.abs(np.cumsum(pieces) - exact)) <= 1e-10


def test_non_finite_integrand_is_evaluation_error():
    with pytest.raises(EvaluationError, match="not finite"):
        panel_integrals(lambda t: np.where(t > 0.7, np.nan, t)[None], np.linspace(0, 1, 9))


def test_integrand_sees_one_block_of_panels_at_most():
    sizes = []
    edges = np.linspace(0.0, 1.0, 3 * quadrature._BLOCK + 6)
    pieces = panel_integrals(_counting(lambda t: np.stack([t, t * t]), sizes), edges)
    assert len(sizes) == 4
    assert max(sizes) <= 15 * quadrature._BLOCK
    exact = np.diff(np.stack([edges**2 / 2, edges**3 / 3]), axis=1)
    assert np.max(np.abs(pieces - exact)) <= 1e-15
