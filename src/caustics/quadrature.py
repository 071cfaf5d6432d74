"""Quadrature over cells with a global error budget: a node-jet rule, then P15 against K7.

The caller gives the integrand ``f`` and its derivative ``f'`` at both ends of each cell
as ``ends``, and ``panel_integrals``, the one entry, first tries an endpoint-corrected Hermite
rule (Davis & Rabinowitz, *Methods of Numerical Integration*, 2nd ed., 1984).  It reads f at
three inner nodes of the cell, K7's ``-b``, ``0`` and ``b`` with ``b = 0.434...``, so that, on
``[-1, 1]``,

    I7 = w_e (f(-1) + f(1)) + w_s (f'(-1) - f'(1)) + w_b (f(-b) + f(b)) + w_0 f(0)

is exact to degree 7, and judges it by ``|I7 - I5|``, where
``I5 = (7 f(-1) + 16 f(0) + 7 f(1)) / 15 + (f'(-1) - f'(1)) / 15`` is exact to degree 5: the
error of the lesser rule.  On a dense grid that lies far below a cell's share of the budget,
and the cell costs three evaluations where P15 costs fifteen.  The inner nodes leave no point
of the cell further than 0.14 h from a sample, so a Gaussian bump of width h/20 shows at some
sample with at least 3e-4 of its height; with the midpoint as the only inner node, one at a
quarter of the cell would show with 1e-11 of it, and pass unseen.

Every other panel takes Patterson's 15-point rule P15 (T. N. L. Patterson, *The optimum
addition of points to quadrature formulae*, Math. Comp. 22, 1968), exact to degree 23, judged
against the 7-point Kronrod rule K7 inside it, exact to degree 11, by QUADPACK's ``qk``
estimate ``resasc min(1, (200 |fine - coarse| / resasc)^1.5)`` (Piessens et al., *QUADPACK*,
1983).  A cell the node-jet rule misses keeps its three values as three of P15's nodes and
gets the other twelve in one integrand call.  Cells that P15 misses are halved, and every
refined panel gets all 15 nodes in one integrand call, a block of panels per call.  A panel
is accepted when its estimate is within its width share of ``tol`` or its rounding floor
``50 eps int |f|``; refinement ends once the error accepted so far plus the estimates still
open fit in ``tol``.  Panels that reach rounding width unconverged are kept, but if their
errors sum to more than ``tol``, ``NumericError`` is raised; so it is when a level leaves more
than ``_MAX_PANELS`` panels open, or when the error still misses ``tol`` after ``_MAX_LEVELS``
levels (a jump that every bisection keeps inside).
A jump between a cell's end and P15's outermost nodes (0.003 h from the end) is invisible to
both panel rules, and the cell is integrated as if it were absent: the node-jet rule may
reject the cell on its end values, but P15 and K7 read only inner nodes and agree.  A unit
step at 0.3 on edges ``[0, 1024]`` returns 1024, not 1023.7; on ``[0, 1]`` it returns 0.7.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import _checks
from .errors import EvaluationError, NumericError, ValidationError

__all__ = ["panel_integrals"]

# Nodes on [-1, 1]: the 7 K7 nodes, then the 8 that P15 adds.
_NODES = np.array([
    -0.96049126870802028342, -0.77459666924148337704, -0.43424374934680255800, 0.0,
    0.43424374934680255800, 0.77459666924148337704, 0.96049126870802028342,
    -0.99383196321275502221, -0.88845923287225699889, -0.62110294673722640294,
    -0.22338668642896688163, 0.22338668642896688163, 0.62110294673722640294,
    0.88845923287225699889, 0.99383196321275502221,
])
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
_MAX_PANELS = 1 << 20  # open panels a refinement level may leave: bounds the work
_BLOCK = 4096  # panels per integrand call: bounds the size of every temporary
# A level whose estimates or errors overflow, though ``_values`` found every value finite, is
# judged again on the values scaled by this exact power of two, then scaled back.
_DOWN = 2.0**-8

# The nodes in the order they are evaluated: the three the node-jet rule reads (K7's -b, 0
# and b), the other four of K7, then Patterson's eight.  The weights follow that order.
_ORDER = np.array([2, 3, 4, 0, 1, 5, 6, *range(7, 15)])
_X = _NODES[_ORDER]
# The node-jet rule I7 on [-1, 1], exact to degree 7: the weights of the ends and of the
# slope term h/2 (f'_a - f'_b), then of the inner nodes (-b, 0, b).  Then those of I7 - I5,
# where I5 = (7 f_a + 16 f(0) + 7 f_b) / 15 + (f'_a - f'_b) / 15 reads no other inner node.
_J7_END, _J7_SLOPE = 0.2570536936264498708955, 0.01971852941668646249363
_J7 = np.array([0.6136615079674200399448, 0.2585695968122601783195, 0.6136615079674200399448])
_J75_END, _J75_SLOPE = _J7_END - 7 / 15, _J7_SLOPE - 1 / 15
_J75 = _J7 - [0.0, 16 / 15, 0.0]
# P15's and K7's weights in that order.
_P15_X, _K7_X = _P15[_ORDER], _K7_IN_P15[_ORDER]


def _values(fn, lo, hi, nodes):
    """Integrand at ``nodes`` mapped into each panel, ``(n_components, n_nodes, n_panels)``."""
    half = 0.5 * (hi - lo)
    pts = (lo + half) + half * nodes[:, None]
    vals = np.asarray(fn(pts.ravel()))
    vals = vals.reshape(vals.shape[0], *pts.shape)
    if not np.isfinite(vals).all():
        # The first bad node of the first bad panel.
        bad = ~np.all(np.isfinite(vals), axis=0).T
        raise EvaluationError(f"integrand is not finite near theta = {pts.T[bad][0]}")
    return vals


def _passes(err, share, floor):
    """Whether each panel's error fits its share of the budget, or else its rounding floor,
    in every component; ``floor`` is called only when some error misses its share."""
    ok = err <= share
    if not ok.all():
        ok |= err <= floor()
    return ok.all(axis=0)


def _judge(vals, half, share):
    """P15's integrals, ``qk`` errors against K7, and passes, from values at ``_X``."""
    est = _P15_X @ vals
    dev = vals - 0.5 * est[:, None]
    asc = (_P15_X @ np.abs(dev, out=dev)) * half
    err = np.abs(est - _K7_X @ vals) * half
    spread = asc > 0
    ratio = np.divide(200 * err, asc, out=np.zeros_like(err), where=spread)
    err = np.where(spread, asc * np.minimum(1.0, ratio * np.sqrt(ratio)), err)
    ok = _passes(err, share, lambda: _FLOOR * (_P15_X @ np.abs(vals, out=dev)) * half)
    return est * half, err, ok


def _jet_judge(vals, half, share, fa, da, fb, db):
    """``I7``, ``|I7 - I5|`` and passes, from the ends' jets and the inner nodes."""
    ends, slope = fa + fb, half * (da - db)
    est = _J7 @ vals + _J7_END * ends + _J7_SLOPE * slope
    err = np.abs(_J75 @ vals + _J75_END * ends + _J75_SLOPE * slope) * half

    def floor():
        return _FLOOR * half * (_J7 @ np.abs(vals) + _J7_END * (np.abs(fa) + np.abs(fb)))

    return est * half, err, _passes(err, share, floor)


def _climb(fn, lo, hi, share, ends):
    """Integrals ``(n_components, n_panels)``, errors and passes of one block of panels.

    With ``ends`` every panel tries the node-jet rule, and the panels it misses keep its
    three values and get P15's other twelve nodes; without, every panel gets P15.
    """
    half = 0.5 * (hi - lo)
    if ends is None:
        est, err, ok = _judge(_values(fn, lo, hi, _X), half, share)
        return est, err.max(axis=0), ok
    vals = _values(fn, lo, hi, _X[:3])
    est, err, ok = _jet_judge(vals, half, share, *ends)
    err = err.max(axis=0)
    if not ok.all():
        miss = np.flatnonzero(~ok)
        vals = np.concatenate([vals[:, :, miss], _values(fn, lo[miss], hi[miss], _X[3:])], axis=1)
        e, r, ok[miss] = _judge(vals, half[miss], share[miss])
        est[:, miss], err[miss] = e, r.max(axis=0)
    return est, err, ok


def _level(fn, lo, hi, budget, ends):
    """``_climb`` over all panels a block at a time."""
    if lo.size <= _BLOCK:
        return _climb(fn, lo, hi, budget, ends)
    for s in range(0, lo.size, _BLOCK):
        blk = slice(s, s + _BLOCK)
        part = _climb(fn, lo[blk], hi[blk], budget[blk], ends and [e[:, blk] for e in ends])
        if s == 0:
            est = np.empty((part[0].shape[0], lo.size))
            err, passes = np.empty(lo.size), np.empty(lo.size, dtype=bool)
        est[:, blk], err[blk], passes[blk] = part
    return est, err, passes


def panel_integrals(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol: float,
    *,
    ends: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Integrate a vector-valued integrand over each cell of a partition.

    ``fn`` is vectorised and returns shape ``(n_components, n_points)``;
    ``edges`` are finite, strictly increasing cell boundaries (at least two);
    ``tol`` is a finite positive absolute budget, for each component over the
    whole partition.  ``ends`` holds the integrand and its derivative at the
    edges, each ``(n_components, n_edges)``, and every cell first tries the
    node-jet rule.  Returns shape ``(n_components, n_panels)``.
    Raises ``ValidationError`` for bad ``edges``, ``tol`` or ``ends``, and ``NumericError``
    when a panel's estimate or error overflows even on values scaled down, panels at rounding
    width hold more than ``tol`` of estimated error, refinement leaves more than
    ``_MAX_PANELS`` panels open, or ``_MAX_LEVELS`` levels end unconverged.  A jump between a
    cell's end and its outermost node is integrated as if absent (see the module docstring).
    """
    if not _checks.real("tol", tol) > 0:
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")
    edges = _checks.increasing("edges", edges)
    lo, hi = edges[:-1], edges[1:]
    form = "two (n_components, n_edges) arrays"
    pair = _checks.floats("ends", ends, form)
    if pair.ndim != 3 or len(pair) != 2 or pair.shape[2] != edges.size:
        raise ValidationError(f"ends must be {form}")
    ends = (*pair[..., :-1], *pair[..., 1:])  # f and f' at the cells' lower ends, then upper
    budget = tol * (hi - lo) / float(edges[-1] - edges[0])  # each cell's width share of tol
    owner = np.arange(lo.size)
    result, spent, lost, n_lost = None, 0.0, 0.0, 0
    for level in range(_MAX_LEVELS):
        # An integrand or a rule that overflows is reported, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            est, err, ok = _level(fn, lo, hi, budget, ends)
            if not (np.isfinite(est).all() and np.isfinite(err).all()):
                est, err, ok = _level(lambda t: np.asarray(fn(t)) * _DOWN, lo, hi,
                                      budget * _DOWN, ends and [e * _DOWN for e in ends])
                est, err = est / _DOWN, err / _DOWN
        finite = np.isfinite(est).all(axis=0) & np.isfinite(err)
        if not finite.all():
            raise NumericError(f"the integral overflows in the panel at theta = {lo[~finite][0]}")
        if level == 0 and ok.all():
            return est
        if result is None:
            result = np.zeros((est.shape[0], lo.size))
        if spent + err.sum() <= tol:
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
        lo, hi = lo[~done], hi[~done]
        mid = 0.5 * lo + 0.5 * hi  # halves summed: lo + hi may pass the float range
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        if lo.size > _MAX_PANELS:
            raise NumericError(f"quadrature needs more than {_MAX_PANELS} panels after "
                               f"{level + 1} refinement levels; narrow the interval")
        owner = np.tile(owner[~done], 2)
        budget = np.tile(budget[~done] / 2, 2)
        ends = None  # refined panels get all 15 nodes at once
    raise NumericError(f"quadrature did not converge after {_MAX_LEVELS} refinement levels")
