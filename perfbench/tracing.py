"""Per-layer spans and work counts, recorded from outside the library.

``Tracer.installed`` replaces each listed public function of ``caustics`` with
a wrapper, in every ``caustics`` module that binds it, so calls between
modules are seen too.  A wrapper records a span (calls, failures, self
time: its duration minus that of the traced calls inside it) and work
counts derived from the call's inputs and outputs.  A call cut by a job
deadline counts as a failure and keeps its time, but not as a call and not
in the work counts, because how far it got depends on the clock.
"""
from __future__ import annotations

import contextlib
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

from harness import JobDeadline

LAYERS = {
    "quadrature": ("panel_integrals",),
    "inclination": ("reconstruct", "find_cusps"),
    "caustic": ("caustic_curve",),
    "pantograph": ("continue_R", "solve_series", "mirror_report", "overlay_caustic_points"),
    "skew": ("build_family", "delay_roots", "puiseux_diagnostics", "skew_equation_residual"),
    "specfun": ("lambert_w", "tan_coeffs"),
    "oracle": (
        "rays_from_tilt",
        "envelope_numeric",
        "hausdorff_distance",
        "occlusion_check",
        "verticality_check",
    ),
    "csvio": ("write_table",),
    "svg": ("write_scene",),
    "cli": ("main",),
}


# Hooks read arguments by position: the library and the jobs pass them so.


def _count_integrand(work, args, kwargs):
    fn, edges = args[0], args[1]
    work["quadrature.panels"] += len(edges) - 1

    def counted(theta):
        work["quadrature.integrand_calls"] += 1
        work["quadrature.evals"] += np.size(theta)
        return fn(theta)

    return (counted,) + tuple(args[1:]), kwargs


def _count_doublings(work, args, kwargs):
    """Angles and the doubling depth each needs to reach the series window."""
    solution = args[0]
    theta = np.abs(np.atleast_1d(np.asarray(args[1], dtype=float)))
    limit = math.pi / 2 - solution.guard
    far = theta[theta > limit]
    depth = np.maximum(1.0, np.ceil(np.log2(far / limit)))
    while np.any(far / 2.0**depth > limit):
        depth += far / 2.0**depth > limit
    work["pantograph.continue_R.angles"] += theta.size
    work["pantograph.continue_R.doublings"] += int(depth.sum())
    return args, kwargs


def _count_pairs(work, args, kwargs):
    work["oracle.hausdorff_distance.pairs"] += len(args[0]) * len(args[1])
    return args, kwargs


def _count_points(work, args, kwargs):
    work["oracle.occlusion_check.points"] += len(args[0])
    return args, kwargs


def _sized(key):
    def observe(work, args, kwargs, result, exc):
        if exc is None:
            work[key] += len(result)

    return observe


def _flagged(work, args, kwargs, result, exc):
    if exc is None:
        work["caustic.caustic_curve.points"] += len(result)
        work["caustic.caustic_curve.flagged"] += sum(s.error is not None for s in result)


def _file_bytes(key):
    def observe(work, args, kwargs, result, exc):
        if exc is None:
            work[key] += os.path.getsize(args[0])

    return observe


def _exit_status(work, args, kwargs, result, exc):
    if isinstance(exc, SystemExit):
        result = exc.code
    work["cli.main.nonzero_exit"] += int(result not in (0, None))


BEFORE = {
    "quadrature.panel_integrals": _count_integrand,
    "pantograph.continue_R": _count_doublings,
    "oracle.hausdorff_distance": _count_pairs,
    "oracle.occlusion_check": _count_points,
}

OBSERVE = {
    "inclination.reconstruct": _sized("inclination.reconstruct.samples"),
    "inclination.find_cusps": _sized("inclination.find_cusps.cusps"),
    "caustic.caustic_curve": _flagged,
    "oracle.rays_from_tilt": _sized("oracle.rays_from_tilt.rays"),
    "csvio.write_table": _file_bytes("csvio.write_table.bytes"),
    "svg.write_scene": _file_bytes("svg.write_scene.bytes"),
    "cli.main": _exit_status,
}


class Tracer:
    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # per open span: [start, child seconds]

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap the listed functions for the duration of the block."""
        modules = [lib.package] + [getattr(lib, name) for name in vars(lib) if name != "package"]
        patched = []
        try:
            for short, names in LAYERS.items():
                for fname in names:
                    original = getattr(getattr(lib, short), fname)
                    wrapper = self._wrap(f"{short}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            self._stack.clear()  # spans a deadline left open

    def metrics(self) -> dict[str, float]:
        out = dict(self.totals)
        out["quadrature.failed"] = out.get("quadrature.panel_integrals.failed", 0.0)
        panels = out.get("quadrature.panels", 0.0)
        out["quadrature.evals_per_panel"] = out.get("quadrature.evals", 0.0) / panels if panels else 0.0
        return out

    def _wrap(self, name: str, fn):
        before, observe = BEFORE.get(name), OBSERVE.get(name)
        totals, stack = self.totals, self._stack

        def traced(*args, **kwargs):
            work: Counter = Counter()
            if before is not None:
                args, kwargs = before(work, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                seconds = time.perf_counter() - frame[0]
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += seconds
                totals[name + ".self_s"] += seconds - frame[1]
                if error is not None:
                    totals[name + ".failed"] += 1
                if not isinstance(error, JobDeadline):
                    totals[name + ".calls"] += 1
                    if observe is not None:
                        observe(work, args, kwargs, result, error)
                    for key, value in work.items():
                        totals[key] += value

        return traced
