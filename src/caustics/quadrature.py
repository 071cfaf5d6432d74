"""Adaptive nested quadrature over a partition, with a global error budget.

One embedded family of rules, G3 in K7 in P15, serves every panel: the 3-point Gauss rule,
its 7-point Kronrod extension and Patterson's 15-point extension of that (T. N. L. Patterson,
*The optimum addition of points to quadrature formulae*, Math. Comp. 22, 1968), exact to
degrees 5, 11 and 23.  Each rule is judged against the one inside it with QUADPACK's ``qk``
estimate ``resasc min(1, (200 |fine - coarse| / resasc)^1.5)`` (Piessens et al., *QUADPACK*,
1983).  The caller's cells first get the 7 K7 nodes; the cells K7 misses get the 8 Patterson
nodes on top and are judged by P15.  Cells that P15 misses are halved, and every refined panel
gets all 15 nodes in one integrand call, a block of panels per call.  A panel is accepted when
its estimate is within its width share of ``tol`` or its rounding floor ``50 eps int |f|``;
refinement ends once the error accepted so far plus the estimates still open fit in ``tol``.
Panels that reach rounding width unconverged are kept, but if their errors sum to more than
``tol``, ``NumericError`` is raised.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import EvaluationError, NumericError, ValidationError

__all__ = ["panel_integrals"]

# Nodes on [-1, 1]: the 7 K7 nodes (the G3 nodes at 1, 3 and 5), then the 8 that P15 adds.
_NODES = np.array([
    -0.96049126870802028342, -0.77459666924148337704, -0.43424374934680255800, 0.0,
    0.43424374934680255800, 0.77459666924148337704, 0.96049126870802028342,
    -0.99383196321275502221, -0.88845923287225699889, -0.62110294673722640294,
    -0.22338668642896688163, 0.22338668642896688163, 0.62110294673722640294,
    0.88845923287225699889, 0.99383196321275502221,
])
_G3 = np.array([0.0, 5 / 9, 0.0, 8 / 9, 0.0, 5 / 9, 0.0])
_K7 = np.array([0.10465622602646726519, 0.26848808986833344073, 0.40139741477596222291,
                0.45091653865847414235, 0.40139741477596222291, 0.26848808986833344073,
                0.10465622602646726519])
_P15 = np.array([0.051603282997079739697, 0.13441525524378422036, 0.20062852937698902103,
                 0.22551049979820668739, 0.20062852937698902103, 0.13441525524378422036,
                 0.051603282997079739697,
                 0.017001719629940260339, 0.092927195315124537686, 0.17151190913639138079,
                 0.2191568584015874964, 0.2191568584015874964, 0.17151190913639138079,
                 0.092927195315124537686, 0.017001719629940260339])
_K7_IN_P15 = np.concatenate([_K7, np.zeros(8)])

_FLOOR = 50 * np.finfo(float).eps  # rounding floor per unit of int |f|
_MAX_LEVELS = 48
_BLOCK = 4096  # panels per integrand call: bounds the size of every temporary


def _values(fn, lo, hi, nodes):
    """Integrand at ``nodes`` mapped into each panel, ``(n_components, n_panels, n_nodes)``."""
    half = 0.5 * (hi - lo)
    pts = (lo + half)[:, None] + half[:, None] * nodes
    vals = np.asarray(fn(pts.ravel()))
    vals = vals.reshape(vals.shape[0], *pts.shape)
    if not np.isfinite(vals).all():
        bad = ~np.all(np.isfinite(vals), axis=0)
        raise EvaluationError(f"integrand is not finite near theta = {pts[bad][0]}")
    return vals, half


def _judge(vals, half, fine, coarse):
    """Integrals by ``fine``, ``qk`` errors against ``coarse`` and rounding floors."""
    est = vals @ fine
    dev = vals - 0.5 * est[..., None]
    asc = np.abs(dev, out=dev) @ fine * half
    err = np.abs(est - vals @ coarse) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(asc > 0, asc * np.minimum(1.0, (200 * err / asc) ** 1.5), err)
    floor = _FLOOR * (np.abs(vals, out=dev) @ fine) * half
    return est * half, err, floor


def _level(fn, lo, hi, budget, fresh):
    """Integrals, errors and floors of one level, each ``(n_components, n_panels)``.

    Fresh panels get K7, and P15 where K7 misses; refined panels get P15 at once.
    """
    out = []
    for s in range(0, lo.size, _BLOCK):
        a, b = lo[s:s + _BLOCK], hi[s:s + _BLOCK]
        if fresh:
            vals, half = _values(fn, a, b, _NODES[:7])
            est, err, floor = _judge(vals, half, _K7, _G3)
            miss = ~np.all(err <= np.maximum(budget[s:s + _BLOCK], floor), axis=0)
            if miss.any():
                extra, _ = _values(fn, a[miss], b[miss], _NODES[7:])
                vals = np.concatenate([vals[:, miss], extra], axis=2)
                est[:, miss], err[:, miss], floor[:, miss] = _judge(
                    vals, half[miss], _P15, _K7_IN_P15)
            out.append((est, err, floor))
        else:
            out.append(_judge(*_values(fn, a, b, _NODES), _P15, _K7_IN_P15))
    return out[0] if len(out) == 1 else [np.concatenate(part, axis=1) for part in zip(*out)]


def panel_integrals(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate a vector-valued integrand over each cell of a partition.

    ``fn`` is vectorised and returns shape ``(n_components, n_points)``;
    ``edges`` are finite, strictly increasing cell boundaries (at least two);
    ``tol`` is a finite positive absolute budget, for each component over the
    whole partition.  Returns shape ``(n_components, n_panels)``.  Raises
    ``ValidationError`` for bad ``edges`` or ``tol``, and ``NumericError``
    when panels at rounding width hold more than ``tol`` of estimated error.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("need a 1-D array of at least 2 edges")
    # NaN fails every comparison, and finite ends bound the increasing interior.
    if not (np.all(edges[1:] > edges[:-1]) and math.isfinite(edges[0])
            and math.isfinite(edges[-1])):
        raise ValidationError("edges must be finite and strictly increasing")
    lo, hi = edges[:-1], edges[1:]
    owner = np.arange(lo.size)
    budget = tol * (hi - lo) / float(edges[-1] - edges[0])
    result, spent, lost, n_lost = None, 0.0, 0.0, 0
    for level in range(_MAX_LEVELS):
        est, err, floor = _level(fn, lo, hi, budget, fresh=level == 0)
        ok = np.all(err <= np.maximum(budget, floor), axis=0)
        err = err.max(axis=0)
        if result is None:
            result = np.zeros((est.shape[0], lo.size))
        if ok.all() or spent + err.sum() <= tol:
            np.add.at(result, (slice(None), owner), est)
            return result
        stuck = ~ok & (hi - lo <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
        lost += err[stuck].sum()
        n_lost += np.count_nonzero(stuck)
        if lost > tol:
            raise NumericError(f"quadrature error {lost:.3g} exceeds tol = {tol:g} "
                               f"in {n_lost} panels at rounding width")
        done = ok | stuck
        np.add.at(result, (slice(None), owner[done]), est[:, done])
        spent += err[done].sum()
        if done.all():
            return result
        lo, hi, mid = lo[~done], hi[~done], 0.5 * (lo[~done] + hi[~done])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.tile(owner[~done], 2)
        budget = np.tile(budget[~done] / 2, 2)
    raise NumericError(f"quadrature did not converge after {_MAX_LEVELS} refinement levels")
