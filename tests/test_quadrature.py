"""The G7/K15 panel rule, its error budget and its reported failures."""

import numpy as np
import pytest

from caustics import inclination, quadrature
from caustics.errors import EvaluationError, NumericError
from caustics.inclination import cycloid, reconstruct
from caustics.quadrature import panel_integrals


def _monomial_errors(weights, degrees):
    x = quadrature._NODES
    exact = [(1 - (-1) ** (d + 1)) / (d + 1) for d in degrees]
    return np.array([abs(weights @ x**d - e) for d, e in zip(degrees, exact)])


def test_kronrod_and_gauss_degrees_of_exactness():
    assert np.all(_monomial_errors(quadrature._KRONROD, range(23)) <= 1e-15)
    assert _monomial_errors(quadrature._KRONROD, [24])[0] > 1e-10
    assert np.all(_monomial_errors(quadrature._GAUSS, range(14)) <= 1e-15)
    assert _monomial_errors(quadrature._GAUSS, [14])[0] > 1e-6


def _counting(fn, log):
    def counted(t):
        log.append(np.size(t))
        return fn(t)

    return counted


def test_smooth_curve_costs_fifteen_evaluations_per_panel(monkeypatch):
    sizes = []

    def traced(fn, edges, tol=1e-10):
        return panel_integrals(_counting(fn, sizes), edges, tol)

    monkeypatch.setattr(inclination, "panel_integrals", traced)
    reconstruct(cycloid(), np.linspace(-2 * np.pi, 2 * np.pi, 65537))
    assert sum(sizes) == 15 * 65536 == 983040


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
