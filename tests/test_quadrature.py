"""The node-jet rule and Patterson's P15 judged against K7, their error budget, argument
checks and failures."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from caustics import inclination, quadrature
from caustics.errors import EvaluationError, NumericError, ValidationError
from caustics.inclination import (
    InclinationCurve,
    cycloid,
    log_spiral,
    reconstruct,
)
from caustics.quadrature import panel_integrals


def _monomial_errors(weights, degrees):
    x = quadrature._NODES[:weights.size]
    exact = [(1 - (-1) ** (d + 1)) / (d + 1) for d in degrees]
    return np.array([abs(weights @ x**d - e) for d, e in zip(degrees, exact)])


def test_kronrod_and_gauss_degrees_of_exactness():
    for weights, degree, miss in [(quadrature._K7, 11, 1e-4), (quadrature._P15, 23, 1e-9)]:
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
        expect = {
            "_NODES": p15,
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


def _counted_cycloid(sizes):
    """The unit cycloid, logging the size of every jet call."""
    base = cycloid()

    def jet(t):
        sizes.append(np.size(t))
        return base.jet(t)

    return dataclasses.replace(base, jet=jet)


def _logged_quadrature(monkeypatch):
    """Record the edges and the integrand calls of each ``panel_integrals`` call that
    ``reconstruct`` makes, passing its arguments by position as a tracer wrapping it would."""
    calls = []

    def logged(fn, edges, tol, **kwargs):
        sizes = []
        calls.append((np.size(edges), sizes))
        return panel_integrals(_counting(fn, sizes), edges, tol, **kwargs)

    monkeypatch.setattr(inclination, "panel_integrals", logged)
    return calls


def test_dense_grid_costs_three_evaluations_per_cell(monkeypatch):
    sizes, quad = [], _logged_quadrature(monkeypatch)
    t = np.linspace(-2 * np.pi, 2 * np.pi, 65537)
    samples = reconstruct(_counted_cycloid(sizes), t)
    # R and R' at the nodes, then the node-jet rule's three inner nodes in each cell, a
    # block of cells per call, all inside the one quadrature call; every cell takes I7.
    blocks = [3 * quadrature._BLOCK] * 16
    assert sizes == [65537] + blocks
    assert quad == [(65537, blocks)]
    assert np.max(np.abs(samples.x - np.sin(t) ** 2 / 2)) <= 1e-10
    assert np.max(np.abs(samples.y - (t - t[0]) / 2 + np.sin(2 * t) / 4)) <= 1e-10
    assert np.max(np.abs(samples.arclength - (np.cos(t[0]) - np.cos(t)))) <= 1e-10


@pytest.mark.parametrize("n, evaluations", [(33, 513), (65, 1025), (129, 2049), (257, 1025)])
def test_coarse_grid_costs_what_p15_alone_costs(monkeypatch, n, evaluations):
    sizes, quad = [], _logged_quadrature(monkeypatch)
    reconstruct(_counted_cycloid(sizes), np.linspace(-2 * np.pi, 2 * np.pi, n))
    # Cells that miss the node-jet rule keep its three inner nodes as three of P15's fifteen
    # and get the other twelve in one call; every cell of the three coarsest grids misses.
    calls = [3 * (n - 1)] + ([12 * (n - 1)] if n < 257 else [])
    assert sizes == [n] + calls
    assert quad == [(n, calls)]
    # P15 alone makes 513, 1025 and 2049 evaluations on the first three grids, nodes
    # included, and 4097 on the last, where every cell takes I7 instead.
    assert sum(sizes) == evaluations


def test_node_jet_rule_degrees_of_exactness():
    a, h = 0.3, 0.7
    half = np.array([h / 2])
    inner = a + h / 2 + h / 2 * quadrature._X[:3]
    for d in range(10):
        def jet(x):
            return x**d, d * x ** max(d - 1, 0)

        (fa, da), (fb, db) = jet(a), jet(a + h)
        vals = np.array(jet(inner)[0])[None, :, None]
        args = [np.array([[v]]) for v in (fa, da, fb, db)]
        exact = ((a + h) ** (d + 1) - a ** (d + 1)) / (d + 1)
        i7, err, _ = quadrature._jet_judge(vals, half, 1.0, *args)
        assert (abs(i7[0, 0] - exact) <= 1e-15) == (d <= 7)
        # |I7 - I5| is the error of I5: nil to degree 5, far above 1e-10 after.
        passes = quadrature._jet_judge(vals, half, 1e-10, *args)[2]
        assert passes[0] == (d <= 5)


def test_node_jet_values_are_reused_by_p15():
    def fn(t):
        return np.stack([np.cos(3 * t), np.exp(t)])

    def jet(t):
        return np.stack([-3 * np.sin(3 * t), np.exp(t)])

    edges = np.linspace(0.0, 4.0, 9)
    lo, hi = edges[:-1], edges[1:]
    plain, tried = [], []
    # P15 alone, as on a refined panel.
    alone = quadrature._climb(_counting(fn, plain), lo, hi, 1e-10 * (hi - lo) / 4.0, None)
    with_ends = panel_integrals(_counting(fn, tried), edges, 1e-10, ends=(fn(edges), jet(edges)))
    # Every cell of this coarse grid misses the node-jet rule, and P15 reads its three
    # values: the same values in the same order, so the same bits, at the same cost.
    assert alone[2].all()
    assert np.array_equal(with_ends, alone[0])
    assert tried == [3 * 8, 12 * 8] and plain == [15 * 8]


@pytest.mark.parametrize("ends", [
    (np.ones((1, 8)), np.ones((1, 8))),
    (np.ones((1, 9)), np.ones((2, 9))),
    (np.ones(9), np.ones(9)),
], ids=["too_few_edges", "shapes_differ", "one_dimensional"])
def test_bad_ends_raise_before_any_work(ends):
    calls = []
    with pytest.raises(ValidationError, match="ends"):
        panel_integrals(_counting(lambda t: t[None], calls), np.linspace(0, 1, 9), 1e-10, ends=ends)
    assert calls == []


def test_reconstruct_peak_memory_on_a_dense_grid():
    t = np.linspace(-2 * np.pi, 2 * np.pi, 65537)
    curve = InclinationCurve(cycloid().jet)  # the jet alone: no closed form, so the quadrature
    tracemalloc.start()
    try:
        reconstruct(curve, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 11.2 MiB is the peak of the K7-only quadrature this rule replaced.
    assert peak <= 11.2 * 2**20


def _bump_reference(t, amplitude, centre, width):
    """x, y and arclength of R = 1 + amplitude exp(-((theta - centre) / width)^2) on ``t``.

    The bump integrates in closed form through the error function of a complex argument:
    int exp(-(u - c)^2 / w^2) e^(iu) du = w sqrt(pi) / 2 e^(ic - w^2 / 4) erf((u - c) / w - iw / 2).
    """
    scale = amplitude * width * math.sqrt(math.pi) / 2
    turn = complex(mpmath.exp(1j * centre - width * width / 4))

    # erf is +-1 to double precision 12 widths out, so the clipped angles are few.
    ends, at = np.unique(np.clip(t, centre - 12 * width, centre + 12 * width),
                         return_inverse=True)
    z = np.array([complex(mpmath.erf(mpmath.mpf(u - centre) / width - 0.5j * width))
                  for u in ends])
    bump = scale * turn * (z - z[0])[at]
    bump_s = scale * np.array([math.erf((u - centre) / width) for u in ends])[at]
    return (np.sin(t) - np.sin(t[0]) + bump.real, np.cos(t[0]) - np.cos(t) + bump.imag,
            t - t[0] + bump_s - bump_s[0])


@pytest.mark.parametrize("amplitude", [1.0, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("offset", [0.1, 0.15, 0.25, 0.35, 0.4, 0.6, 0.65, 0.75, 0.85, 0.9])
@pytest.mark.parametrize("divisor", [2, 5, 10, 20])
def test_narrow_bump_meets_the_budget_or_raises(divisor, offset, amplitude):
    t = np.linspace(0.0, 1.0, 1025)
    h = t[1] - t[0]
    # A bump in R, off the nodes and off the midpoint of one cell.
    centre, width = t[600] + offset * h, h / divisor

    def jet(u):
        u = np.asarray(u, dtype=float)
        bump = amplitude * np.exp(-(((u - centre) / width) ** 2))
        return 1.0 + bump, -2 * (u - centre) / width**2 * bump

    curve = InclinationCurve(jet=jet, domain=(0.0, 1.0))
    try:
        samples = reconstruct(curve, t)
    except NumericError:
        return
    for got, want in zip((samples.x, samples.y, samples.arclength),
                         _bump_reference(t, amplitude, centre, width)):
        assert np.max(np.abs(got - want)) <= inclination.RECONSTRUCT_TOL


def _log_spiral_on_a_fine_grid(curve):
    """Reconstruct ``curve``, the unit log spiral, on 65 536 cells of [0, 2 pi] and compare it
    with its closed form: the budget covers every cumulative sample."""
    t = np.linspace(0.0, 2 * np.pi, 65537)
    samples = reconstruct(curve, t)
    ex = np.exp(t) / 2
    assert np.max(np.abs(samples.x - (ex * (np.cos(t) + np.sin(t)) - 0.5))) <= 1e-10
    assert np.max(np.abs(samples.y - (ex * (np.sin(t) - np.cos(t)) + 0.5))) <= 1e-10
    assert np.max(np.abs(samples.arclength - (np.exp(t) - 1))) <= 1e-10


def test_log_spiral_closed_form_on_a_fine_grid():
    # The jet alone has no closed form, so this is the quadrature's cumulative budget.
    _log_spiral_on_a_fine_grid(InclinationCurve(log_spiral(1.0, 1.0).jet))


def test_stock_log_spiral_takes_its_closed_form_on_a_fine_grid(monkeypatch):
    monkeypatch.setattr(inclination, "panel_integrals", None)
    _log_spiral_on_a_fine_grid(log_spiral(1.0, 1.0))


def _cos_ends(edges):
    """cos and its derivative at ``edges``, as ``panel_integrals``' ``ends``."""
    edges = np.asarray(edges, dtype=float)
    return np.cos(edges)[None], -np.sin(edges)[None]


def test_cell_missed_by_k7_costs_fifteen_evaluations():
    sizes = []
    piece = panel_integrals(_counting(lambda t: np.cos(t)[None], sizes), [0.0, 1.0], 1e-10,
                            ends=_cos_ends([0.0, 1.0]))
    # The node-jet rule misses this cell, and P15, judged against K7, takes it: the three
    # inner nodes, then P15's other twelve.
    assert sizes == [3, 12]
    assert abs(piece[0, 0] - math.sin(1.0)) <= 1e-15


def test_refined_panel_costs_fifteen_evaluations_in_one_call():
    sizes = []
    piece = panel_integrals(_counting(lambda t: np.cos(t)[None], sizes), [0.0, 4.0], 1e-10,
                            ends=_cos_ends([0.0, 4.0]))
    assert sizes == [3, 12, 2 * 15]
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
    ends = (np.atleast_1d(edges)[None], np.ones_like(np.atleast_1d(edges))[None])
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            panel_integrals(_counting(lambda t: t[None], calls), edges, tol, ends=ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 64 * 1024


def test_singular_integrand_reports_failure():
    edges = np.array([0.0, 1.0])
    ends = (np.abs(edges - 0.3)[None] ** -0.9,
            (-0.9 * np.sign(edges - 0.3) * np.abs(edges - 0.3) ** -1.9)[None])
    with pytest.raises(NumericError, match="rounding width"):
        panel_integrals(lambda t: np.abs(t - 0.3)[None] ** -0.9, edges, tol=1e-10, ends=ends)


def test_step_in_integrand_stops_on_global_budget():
    step, calls = 1.234567, []
    edges = np.linspace(0.0, 4.0, 257)

    def fn(t):
        return (np.cos(t) + 1e-9 * (t > step))[None]

    ends = (fn(edges), -np.sin(edges)[None])
    pieces = panel_integrals(_counting(fn, calls), edges, tol=1e-10, ends=ends)[0]
    exact = np.sin(edges[1:]) + 1e-9 * np.clip(edges[1:] - step, 0.0, None)
    assert len(calls) <= 12
    assert np.max(np.abs(np.cumsum(pieces) - exact)) <= 1e-10


def test_panels_at_their_rounding_floor_end_refinement_above_tol(monkeypatch):
    # Every open panel passes its share of tol or its rounding floor 50 eps int |f| by level
    # 29, while the error summed stays above tol = 1e-10: the floor rule returns the result.
    levels = []

    def counted(fn, lo, *args):
        levels.append(lo.size)
        return level(fn, lo, *args)

    level = quadrature._level
    monkeypatch.setattr(quadrature, "_level", counted)
    edges = np.linspace(0.0, 1.0, 5)
    f = 1e6 * (1 + np.abs(edges - 0.3) ** 1.5)
    df = 1.5e6 * np.sign(edges - 0.3) * np.abs(edges - 0.3) ** 0.5
    got = panel_integrals(lambda t: 1e6 * (1 + np.abs(t - 0.3) ** 1.5)[None], edges, 1e-10,
                          ends=(f[None], df[None]))[0]
    want = 1e6 * np.diff(edges + np.sign(edges - 0.3) * np.abs(edges - 0.3) ** 2.5 / 2.5)
    assert len(levels) == 30
    assert np.abs(got - want).sum() <= 1e-10 + 50 * np.finfo(float).eps * want.sum()


def test_refinement_past_the_panel_cap_raises_before_evaluating(monkeypatch):
    # sin over a million radians misses the budget at every width the cap allows.
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    sizes = []
    with pytest.raises(NumericError, match="more than 64 panels"):
        panel_integrals(_counting(lambda t: np.sin(t)[None], sizes), [0.0, 1e6], 1e-10,
                        ends=(np.sin([[0.0, 1e6]]), np.cos([[0.0, 1e6]])))
    assert sizes[:2] == [3, 12]
    assert sizes[2:] == [15 * 2**k for k in range(1, 7)]


def test_non_finite_integrand_is_evaluation_error():
    edges = np.linspace(0, 1, 9)
    ends = (np.where(edges > 0.7, np.nan, edges)[None], np.where(edges > 0.7, np.nan, 1.0)[None])
    with pytest.raises(EvaluationError, match="not finite"):
        panel_integrals(lambda t: np.where(t > 0.7, np.nan, t)[None], edges, 1e-10, ends=ends)


def test_bisection_past_half_the_float_range_stays_finite():
    # A bump 1e306 wide at 1.2e308 needs bisecting; each panel's lo + hi passes the float range.
    def bump(t):
        u = (t - 1.2e308) / 1e306
        return (1e-300 / (1.0 + u * u))[None]

    edges, nodes = np.array([1e308, 1.4e308]), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The bump's slope at the edges, about 1e-610, is 0.0 in floats.
        got = panel_integrals(lambda t: nodes.append(t) or bump(t), edges, 1e-4,
                              ends=(bump(edges), np.zeros((1, 2))))
    assert len(nodes) > 1  # refined past the node-jet rule
    assert all(((t > 1e308) & (t < 1.4e308)).all() for t in nodes)
    assert abs(got[0, 0] - 2e6 * math.atan(20.0)) <= 1e-4


def test_integrand_sees_one_block_of_panels_at_most():
    sizes = []
    edges = np.linspace(0.0, 1.0, 3 * quadrature._BLOCK + 6)
    ends = (np.stack([edges, edges * edges]), np.stack([np.ones_like(edges), 2 * edges]))
    pieces = panel_integrals(_counting(lambda t: np.stack([t, t * t]), sizes), edges, 1e-10,
                             ends=ends)
    # The node-jet rule is exact on a quadratic: three inner nodes a cell, a block a call.
    assert sizes == [3 * quadrature._BLOCK] * 3 + [3 * 5]
    exact = np.diff(np.stack([edges**2 / 2, edges**3 / 3]), axis=1)
    assert np.max(np.abs(pieces - exact)) <= 1e-15
