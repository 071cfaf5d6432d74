"""Adaptive Gauss-Kronrod quadrature over a partition, with a global error budget.

Each refinement level applies QUADPACK's embedded G7/K15 rule (``qk15``; Piessens et al.,
*QUADPACK*, 1983) once to every open panel, a block of panels per integrand call.  A panel
is accepted when its ``qk15`` error estimate is within its width share of ``tol`` or its
rounding floor ``50 eps int |f|``; refinement ends once the error accepted so far plus the
estimates still open fit in ``tol``.  Panels that reach rounding width unconverged are kept,
but if their errors sum to more than ``tol``, ``NumericError`` is raised.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import EvaluationError, NumericError

__all__ = ["panel_integrals"]

# Kronrod nodes on [0, 1] from the outside in, and their K15 weights; the G7
# nodes are every second node of the full rule, the outermost excluded.
_XK = np.array([0.99145537112081263921, 0.94910791234275852453, 0.86486442335976907279,
                0.74153118559939443986, 0.58608723546769113029, 0.40584515137739716691,
                0.20778495500789846760, 0.0])
_WK = np.array([0.02293532201052922496, 0.06309209262997855329, 0.10479001032225018384,
                0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
                0.20443294007529889241, 0.20948214108472782801])
_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.polynomial.legendre.leggauss(7)[1]

_MAX_LEVELS = 48
_BLOCK = 4096  # panels per integrand call: bounds the size of every temporary


def _kronrod(fn, lo, hi):
    """K15 integrals, ``qk15`` errors and rounding floors, each ``(n_components, n_panels)``."""
    out = []
    for s in range(0, lo.size, _BLOCK):
        half = 0.5 * (hi[s:s + _BLOCK] - lo[s:s + _BLOCK])
        pts = (lo[s:s + _BLOCK] + half)[:, None] + half[:, None] * _NODES
        vals = np.asarray(fn(pts.ravel()))
        vals = vals.reshape(vals.shape[0], *pts.shape)
        bad = ~np.all(np.isfinite(vals), axis=0)
        if bad.any():
            raise EvaluationError(f"integrand is not finite near theta = {pts[bad][0]}")
        kron = vals @ _KRONROD
        asc = np.abs(vals - 0.5 * kron[..., None]) @ _KRONROD * half
        err = np.abs(kron - vals @ _GAUSS) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(asc > 0, asc * np.minimum(1.0, (200 * err / asc) ** 1.5), err)
        floor = 50 * np.finfo(float).eps * (np.abs(vals) @ _KRONROD) * half
        out.append((kron * half, err, floor))
    return [np.concatenate(part, axis=1) for part in zip(*out)]


def panel_integrals(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate a vector-valued integrand over each cell of a partition.

    ``fn`` is vectorised and returns shape ``(n_components, n_points)``;
    ``edges`` are strictly increasing cell boundaries; ``tol`` is absolute,
    for each component over the whole partition.  Returns shape
    ``(n_components, n_panels)``.  Raises ``NumericError`` when panels at
    rounding width hold more than ``tol`` of estimated error.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    owner = np.arange(lo.size)
    budget = tol * (hi - lo) / float(edges[-1] - edges[0])
    result, spent, lost, n_lost = None, 0.0, 0.0, 0
    for _ in range(_MAX_LEVELS):
        est, err, floor = _kronrod(fn, lo, hi)
        ok = np.all(err <= np.maximum(budget, floor), axis=0)
        err = err.max(axis=0)
        if spent + err.sum() <= tol:
            ok[:] = True
        stuck = ~ok & (hi - lo <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
        lost += err[stuck].sum()
        n_lost += np.count_nonzero(stuck)
        if lost > tol:
            raise NumericError(f"quadrature error {lost:.3g} exceeds tol = {tol:g} "
                               f"in {n_lost} panels at rounding width")
        done = ok | stuck
        if result is None:
            result = np.zeros((est.shape[0], lo.size))
        np.add.at(result, (slice(None), owner[done]), est[:, done])
        spent += err[done].sum()
        if done.all():
            return result
        lo, hi, mid = lo[~done], hi[~done], 0.5 * (lo[~done] + hi[~done])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.tile(owner[~done], 2)
        budget = np.tile(budget[~done] / 2, 2)
    raise NumericError(f"quadrature did not converge after {_MAX_LEVELS} refinement levels")
