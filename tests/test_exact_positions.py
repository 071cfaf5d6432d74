"""Exact positions, the exponential sums' closed form and the pantograph mirrors' doubling law,
against mpmath and the quadrature."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from caustics import inclination, quadrature, verify
from caustics.inclination import (
    AngleInterval,
    InclinationCurve,
    _exp_sum_curve,
    _exp_sum_integrals,
    _points_at,
    circle,
    cycloid,
    find_cusps,
    log_spiral,
    polynomial_curve,
    reconstruct,
)
from caustics.pantograph import PantographSolution, solution_curve, solve_series
from caustics.skew import (
    SkewFamilySpec,
    build_family,
    inverse_position_curve,
    point_by_point_curve,
    puiseux_curve,
)

# (rates, amplitudes) at distance d from a resonance of a term of R e^(i theta) or of R.
RESONANCES = {
    # The cycloid and the inverse-position members at omega = 1: conj(lambda) + i = 0.
    "cycloid": lambda d: ([1j * (1 + d)], [-1j]),
    "inverse_omega_1": lambda d: ([1j * (1 + d)], [1 - 0.5j]),
    # lambda + i = 0.
    "lambda_plus_i": lambda d: ([-1j * (1 + d)], [0.7 + 0.2j]),
    # The circle and the point-by-point spirals near a = sin phi0: lambda = 0 in the arclength.
    "circle": lambda d: ([d], [1.3]),
    # A cuspidal spiral near gamma = 1, c = 0: lambda + i - 2i = d in the positions.
    "puiseux_gamma_1": lambda d: ([complex(d, 1.0)], [-1j]),
    # Two rates at once, one resonant.
    "delay_pair": lambda d: ([0.3 + 2.0j, -1j * (1 + d)], [1 - 0.2j, 0.8 + 0.3j]),
}
WINDOWS = [(-2 * math.pi, 2 * math.pi, 65), (3.0, 3.5, 9), (-1e3, 1e3, 33)]


def _mp_integrals(rates, amplitudes, thetas):
    """x, y and arclength at 40 digits: sum k (e^(mu theta) - e^(mu theta_0)) / mu per term,
    with the rates mu formed exactly from the float rates."""
    with mpmath.workdps(40):
        t0 = mpmath.mpf(thetas[0])
        rows = np.zeros((3, thetas.size))
        for j, t in enumerate(map(mpmath.mpf, thetas)):
            z, s = mpmath.mpc(0), mpmath.mpc(0)
            for lam, c in zip(rates, amplitudes):
                lam, c = mpmath.mpc(lam), mpmath.mpc(c)
                for mu, k, into_z in ((lam + 1j, c / 2, True),
                                      (mpmath.conj(lam) + 1j, mpmath.conj(c) / 2, True),
                                      (lam, c, False)):
                    term = k * (t - t0) if mu == 0 else k * (mpmath.exp(mu * t)
                                                             - mpmath.exp(mu * t0)) / mu
                    if into_z:
                        z += term
                    else:
                        s += term
            rows[:, j] = float(z.real), float(z.imag), float(s.real)
    return rows


@pytest.mark.parametrize("window", WINDOWS, ids=["2pi", "short", "wide"])
@pytest.mark.parametrize("distance", [0.0, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("case", RESONANCES.values(), ids=RESONANCES.keys())
def test_kernel_matches_mpmath_at_and_near_resonance(case, distance, window):
    rates, amplitudes = (np.array(v, dtype=complex) for v in case(distance))
    thetas = np.linspace(*window)
    got = _exp_sum_integrals(_exp_sum_curve(None, "", rates, amplitudes), thetas)
    want = _mp_integrals(rates, amplitudes, thetas)
    assert got[:, 0].tolist() == [0.0, 0.0, 0.0]
    positions = np.hypot(got[0] - want[0], got[1] - want[1])
    assert np.max(positions) <= 1e-13 * np.max(np.hypot(want[0], want[1]))
    assert np.max(np.abs(got[2] - want[2])) <= 1e-13 * np.max(np.abs(want[2]))


CLOSED_FORMS = {
    "circle": lambda: circle(1.5),
    "cycloid": lambda: cycloid(0.5),
    "log_spiral": lambda: log_spiral(1.0, 0.15),
    "point_by_point": lambda: point_by_point_curve(1.0, 1.2, 0.3),
    "puiseux": lambda: puiseux_curve(0.1, 1.5),
    "inverse_position": lambda: inverse_position_curve(1.0, 0.5, 1.2, 0.3),
    "inverse_hyperbolic": lambda: inverse_position_curve(1.0, 0.5, 0.1, 0.3),
    "delay": lambda: build_family(SkewFamilySpec("delay", 0.3, 0.9, 0.8, (0, 2),
                                                 ((1.0, 0.2), (0.8, -0.3)))),
}


@pytest.mark.parametrize("make", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_kernel_matches_mpmath_on_a_dense_wide_grid(make):
    # 65 537 nodes over [-30, 30], read at 64 seeded nodes under the resonance test's bound.
    curve, thetas = make(), np.linspace(-30.0, 30.0, 65537)
    *_, mu, coef = curve._exact
    nodes = np.sort(np.random.default_rng(47).choice(np.arange(1, thetas.size), 64, False))
    got = _exp_sum_integrals(curve, thetas)[:, nodes]
    n = mu.size // 3
    want = _mp_integrals(mu[2 * n:], coef[2 * n:], thetas[np.r_[0, nodes]])[:, 1:]
    positions = np.hypot(got[0] - want[0], got[1] - want[1])
    assert np.max(positions) <= 1e-13 * np.max(np.hypot(want[0], want[1]))
    assert np.max(np.abs(got[2] - want[2])) <= 1e-13 * np.max(np.abs(want[2]))


class _RowCounter:
    """numpy, but each row of ``size`` angles that exp, expm1, cos or sin fills is counted."""

    def __init__(self, size):
        self.size, self.rows = size, {"exp": 0, "expm1": 0, "cos": 0, "sin": 0}

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.rows:
            return fn

        def counted(x, *args, **kwargs):
            self.rows[name] += np.size(x) // self.size
            return fn(x, *args, **kwargs)

        return counted


KERNEL_CASES = dict(CLOSED_FORMS, **{
    f"near_{name}": lambda case=case: _exp_sum_curve(None, "", *case(1e-9))
    for name, case in RESONANCES.items()})


@pytest.mark.parametrize("make", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_kernel_takes_one_exponential_row_per_rate(monkeypatch, make):
    # One e^(i theta) row (a cos and a sin row) and at most one np.exp row per distinct rate
    # of R other than 0 and i, however many of its three terms take it; each near-resonance
    # term takes an expm1 row.
    curve, thetas = make(), np.linspace(-2 * math.pi, 2 * math.pi, 65)
    mu, counter = curve._exact[-2], _RowCounter(thetas.size)
    monkeypatch.setattr(inclination, "np", counter)
    _exp_sum_integrals(curve, thetas)
    monkeypatch.undo()
    span = np.abs(mu) * (thetas[-1] - thetas[0])
    rates = {complex(lam) for lam in mu[2 * mu.size // 3:]} - {0j, 1j}
    assert counter.rows["cos"] == counter.rows["sin"] == 1
    assert counter.rows["exp"] <= len(rates)
    assert counter.rows["expm1"] == np.count_nonzero((span <= 1.0) & (span > 0.0))


def _logged_quadrature(monkeypatch):
    calls = []

    def logged(*args, **kwargs):
        calls.append(np.size(args[1]))
        return quadrature.panel_integrals(*args, **kwargs)

    monkeypatch.setattr(inclination, "panel_integrals", logged)
    return calls


@pytest.mark.parametrize("make", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_closed_form_follows_the_jet(monkeypatch, make):
    calls = _logged_quadrature(monkeypatch)
    window = AngleInterval(0.2, 2.8, 33)
    curve = make()
    closed = reconstruct(curve, window)
    relabelled = reconstruct(dataclasses.replace(curve, label="renamed"), window)
    bounded = reconstruct(dataclasses.replace(curve, domain=(-10.0, 10.0)), window)
    assert calls == []
    # Another jet, even the equal jet of another stock curve, drops the closed form.
    numeric = reconstruct(dataclasses.replace(curve, jet=make().jet), window)
    assert calls == [33]
    for samples in (relabelled, bounded):
        for name in ("x", "y", "radius", "radius_prime", "arclength"):
            assert np.array_equal(getattr(samples, name), getattr(closed, name))
    assert np.array_equal(numeric.radius, closed.radius)
    gap = np.max(np.abs(np.stack([numeric.x - closed.x, numeric.y - closed.y,
                                  numeric.arclength - closed.arclength])))
    assert gap <= inclination.RECONSTRUCT_TOL


def test_doubling_law_follows_the_jet(monkeypatch):
    # A mirror's curve integrates the series window only, for every k, a pole of Q at 0 or
    # not: the 33 nodes of [0.2, 2.8] halve to 17 base angles of depth 0 and 16 of depth 1,
    # which with the seam's w / 2 and w make 35.
    window = AngleInterval(0.2, 2.8, 33)
    for k in range(-3, 4):
        calls = _logged_quadrature(monkeypatch)
        curve = solution_curve(PantographSolution(
            solve_series(k, secondary=0.5 if k == -3 else None)))
        law = reconstruct(curve, window)
        relabelled = reconstruct(dataclasses.replace(curve, label="renamed"), window)
        assert calls == [35, 35], k
        # Its jet alone, or another jet, takes the quadrature over the whole window.
        numeric = reconstruct(InclinationCurve(curve.jet), window)
        replaced = reconstruct(dataclasses.replace(curve, jet=lambda t: curve.jet(t)), window)
        assert calls == [35, 35, 33, 33], k
        for name in ("x", "y", "radius", "radius_prime", "arclength"):
            assert np.array_equal(getattr(relabelled, name), getattr(law, name))
            assert np.array_equal(getattr(replaced, name), getattr(numeric, name))
        assert np.array_equal(numeric.radius, law.radius)
        gap = np.max(np.abs(np.stack([numeric.x - law.x, numeric.y - law.y,
                                      numeric.arclength - law.arclength])))
        assert gap <= inclination.RECONSTRUCT_TOL, k


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_agrees_with_the_quadrature_on_a_seeded_sweep(seed):
    # The worst draw's gap between the two paths, over its stated bound
    # RECONSTRUCT_TOL + 50 eps int |R|; every stock curve of the row is drawn.
    count = 50
    value, draw = verify._sweep(verify._exact_draw, verify._exact_gap, lambda n: count)(0, seed)
    assert value <= 1.0, draw
    rng = np.random.default_rng(seed)
    drawn = {verify._exact_draw(rng)[0] for _ in range(count)}
    assert drawn == set(range(len(verify._EXACT_CURVES)))
    made = [make(*args) for make, *args in verify._EXACT_CURVES]
    assert all(curve._exact[0] is curve.jet for curve in made)


def _counted_cells(monkeypatch):
    calls = []

    def counted(fn, lo, *args):
        calls.append(lo.size)
        return quadrature.cell_integrals(fn, lo, *args)

    monkeypatch.setattr(inclination, "cell_integrals", counted)
    return calls


def _between_nodes(grid):
    """Extra angles off the nodes: one in every third cell of ``grid``."""
    return (grid[:-1] + 0.37 * np.diff(grid))[::3]


@pytest.mark.parametrize("name", ["cycloid", "puiseux", "delay"])
def test_points_at_in_closed_form_match_a_refined_grid(monkeypatch, name):
    calls = _counted_cells(monkeypatch)
    curve, interval = CLOSED_FORMS[name](), AngleInterval(-4.0, 9.0, 65)
    thetas = np.union1d(find_cusps(curve, interval), _between_nodes(interval.grid()))
    got = _points_at(curve, reconstruct(curve, interval), thetas)
    refined = reconstruct(curve, np.union1d(interval.grid(), thetas))
    want = refined.points[np.searchsorted(refined.theta, thetas)]
    assert calls == []
    assert np.max(np.abs(got - want)) <= 1e-12


def test_points_at_on_a_series_curve_take_the_doubling_law(monkeypatch):
    # The cusps and off-node angles of a k = 1 mirror down to depth 3, placed without a
    # quadrature cell, as a reconstruction of the grid refined by them places them.
    calls = _counted_cells(monkeypatch)
    curve = solution_curve(PantographSolution(solve_series(1)))
    interval = AngleInterval(0.2, 12.0, 129)
    thetas = np.union1d(find_cusps(curve, interval), _between_nodes(interval.grid()))
    got = _points_at(curve, reconstruct(curve, interval), thetas)
    refined = reconstruct(curve, np.union1d(interval.grid(), thetas))
    want = refined.points[np.searchsorted(refined.theta, thetas)]
    assert calls == []
    assert np.max(np.abs(got - want)) <= 1e-12
    assert _points_at(curve, reconstruct(curve, interval), []).shape == (0, 2)


def _cells_from_left_nodes(curve, samples, thetas):
    """Reference: one quadrature cell from each angle's left node, the cells sharing
    RECONSTRUCT_TOL by width."""
    left = np.searchsorted(samples.theta, thetas, side="right") - 1
    lo = samples.theta[left]
    h = thetas - lo
    total = h.sum()
    budget = inclination.RECONSTRUCT_TOL * h / total if total > 0 else np.zeros_like(h)
    ends = tuple(np.asarray(v, dtype=float) for v in curve.jet(thetas))
    cells = quadrature.cell_integrals(
        inclination._integrand(curve.jet), lo, thetas, budget, inclination.RECONSTRUCT_TOL,
        (*inclination._ends(lo, samples.radius[left], samples.radius_prime[left]),
         *inclination._ends(thetas, *ends)))
    return samples.points[left] + cells[:2].T


QUADRATURE_CURVES = {
    "poly": (lambda: polynomial_curve([0.5, -1.0, 0.2]), AngleInterval(0.0, 100.0, 257)),
    # A mirror's own curve takes the doubling law; its jet alone takes the quadrature.
    "series": (lambda: InclinationCurve(solution_curve(PantographSolution(solve_series(1))).jet),
               AngleInterval(0.2, 12.0, 129)),
}


@pytest.mark.parametrize("make, interval", QUADRATURE_CURVES.values(),
                         ids=QUADRATURE_CURVES.keys())
def test_points_at_by_quadrature_add_one_cell_to_each_left_node(monkeypatch, make, interval):
    curve = make()
    samples = reconstruct(curve, interval)
    thetas = np.union1d(find_cusps(curve, interval), _between_nodes(interval.grid()))
    want = _cells_from_left_nodes(curve, samples, thetas)
    calls = _counted_cells(monkeypatch)
    assert np.array_equal(_points_at(curve, samples, thetas), want)
    assert calls == [thetas.size]


@pytest.mark.parametrize("make", [lambda: cycloid(1.0), lambda: polynomial_curve([1.0, 0.5])],
                         ids=["closed_form", "quadrature"])
def test_points_at_no_angle_is_an_empty_array(make):
    curve = make()
    samples = reconstruct(curve, AngleInterval(0.0, 3.0, 9))
    assert _points_at(curve, samples, []).shape == (0, 2)
