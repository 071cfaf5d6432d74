"""Command-line front end: curves, caustics, families, mirrors, verification.

Subcommands
-----------
curve       reconstruct a named profile and emit CSV/SVG
caustic     compute the caustic of a profile under a tilt field
skew        build a constant-tilt self-similar family and its caustic
pantograph  solve a self-reproducing mirror, report diagnostics
verify      run the brute-force agreement and residual suites

All numeric angle inputs accept pi literals (``pi/4``, ``2pi``, ``-3pi/2``).
Outputs are deterministic: the same invocation produces byte-identical
files.  Exit status: 0 success, 2 validation error (argparse's rejections
too, as one ``error:`` line), 3 numeric error, 141 stdout closed before all
output was written.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from . import verify
from .caustic import TiltField, caustic_curve
from .csvio import write_caustic_csv, write_coefficient_csv, write_curve_csv
from .errors import CausticsError, NumericError, ValidationError
from .inclination import (
    AngleInterval,
    InclinationCurve,
    _points_at,
    _resolve_grid,
    circle,
    cycloid,
    find_cusps,
    log_spiral,
    polynomial_curve,
    reconstruct,
)
from .pantograph import (
    PantographSolution,
    _union,
    mirror_report,
    parabola_mirror,
    similarity_factor,
    solution_curve,
    solve_series,
)
from .skew import SkewFamilySpec, build_family, puiseux_curve, skew_equation_residual
from .svg import write_scene

__all__ = ["parse_angle", "parse_interval", "main"]

_PI_PATTERN = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Parse an angle that may use pi literals: ``pi/4``, ``2pi``, ``-1.5``."""
    s = str(text).strip().lower().replace(" ", "")
    m = _PI_PATTERN.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ValidationError(f"division by zero in angle {text!r}")
        value = sign * coef * math.pi / div
    else:
        try:
            value = float(s)
        except ValueError:
            raise ValidationError(
                f"cannot parse angle {text!r}; use a real number or a pi literal like 2pi, pi/4"
            ) from None
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return value


def parse_interval(text: str, n_samples: int) -> AngleInterval:
    """Parse ``lo:hi`` with pi literals into a sampling interval."""
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValidationError(f"interval must look like lo:hi, got {text!r}")
    return AngleInterval(parse_angle(parts[0]), parse_angle(parts[1]), n_samples)


def _parse_number(text: str, name: str, kind: type = float):
    """Parse a finite integer or real from command-line text."""
    try:
        value = kind(str(text).strip())
    except ValueError:
        want = "an integer" if kind is int else "a real number"
        raise ValidationError(f"{name} must be {want}, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {text!r}")
    return value


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ValidationError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_curve(text: str) -> InclinationCurve:
    """Instantiate a registry curve from ``name`` or ``name:key=value,...``."""
    name, _, rest = str(text).partition(":")
    name = name.strip().lower()
    kv = _parse_kv(rest)

    def num(key: str, default: float) -> float:
        return parse_angle(kv.pop(key)) if key in kv else default

    if name == "circle":
        curve = circle(num("radius", 1.0))
    elif name == "cycloid":
        curve = cycloid(num("amplitude", 1.0))
    elif name == "log_spiral":
        curve = log_spiral(num("amplitude", 1.0), num("growth", 1.0))
    elif name == "parabola":
        curve = parabola_mirror(num("scale", 1.0))
    elif name == "puiseux":
        curve = puiseux_curve(num("c", 0.2), num("gamma", 3.0))
    elif name == "poly":
        coeffs = [parse_angle(c) for c in kv.pop("coefficients", "1").split("+")]
        curve = polynomial_curve(coeffs)
    elif name == "series":
        k = _parse_number(kv.pop("k", "1"), "k", int)
        order = _parse_number(kv.pop("order", "30"), "order", int)
        secondary = kv.pop("secondary", None)
        if secondary is not None:
            secondary = _parse_number(secondary, "secondary")
        solution = PantographSolution(solve_series(k, n_max=order, secondary=secondary))
        curve = solution_curve(solution)
    else:
        raise ValidationError(
            f"unknown curve {name!r}; choose circle, cycloid, log_spiral, "
            "parabola, puiseux, poly or series"
        )
    if kv:
        raise ValidationError(f"curve {name!r} got unknown parameters {sorted(kv)}")
    return curve


def _build_tilt(text: str) -> TiltField:
    s = str(text).strip().lower()
    if s == "evolute":
        return TiltField.evolute()
    if s == "reflection":
        return TiltField.reflection()
    if s.startswith("skew:"):
        return TiltField.skew(parse_angle(s.split(":", 1)[1]))
    raise ValidationError(f"unknown tilt {text!r}; use evolute, reflection or skew:<phi>")


def _window(args: argparse.Namespace, lo: float, hi: float) -> AngleInterval:
    """The ``--interval`` window, or ``[lo, hi]``, at ``--samples`` nodes."""
    if args.interval is not None:
        return parse_interval(args.interval, args.samples)
    return AngleInterval(lo, hi, args.samples)


def _run_curve(args: argparse.Namespace) -> None:
    curve = _build_curve(args.curve)
    default = _default_window(curve)
    interval = _window(args, default.lo, default.hi)
    samples = reconstruct(curve, interval)
    if args.out_csv:
        write_curve_csv(args.out_csv, samples)
    if args.out_svg:
        cusps = _points_at(curve, samples, find_cusps(curve, interval))
        write_scene(args.out_svg, mirror=[samples.points], cusps=cusps)
    print(f"curve={curve.label or 'custom'}")
    print(f"samples={len(samples)}")
    print(f"arclength={samples.arclength[-1] - samples.arclength[0]:.12g}")


def _default_window(curve: InclinationCurve) -> AngleInterval:
    lo, hi = curve.domain
    return AngleInterval(max(lo, -2 * math.pi), min(hi, 2 * math.pi), 257)


def _run_caustic(args: argparse.Namespace) -> None:
    curve = _build_curve(args.curve)
    tilt = _build_tilt(args.tilt)
    default = _default_window(curve)
    interval = _window(args, default.lo, default.hi)
    caus = caustic_curve(curve, tilt, interval)
    flagged = int(np.count_nonzero(caus.flag))
    if args.out_csv:
        write_caustic_csv(args.out_csv, caus)
    if args.out_svg:
        mpts, cpts = caus.source.points, caus.points
        drawn = np.isfinite(cpts[:, 0]) & np.isfinite(cpts[:, 1])  # flagged nodes are NaN
        rays = np.stack([mpts[drawn], cpts[drawn]], axis=1)
        write_scene(args.out_svg, mirror=[mpts], caustic=[cpts], rays=rays)
    print(f"curve={curve.label or 'custom'}")
    print(f"tilt={args.tilt}")
    print(f"points={len(caus)}")
    print(f"flagged={flagged}")


def _parse_coefficient_pairs(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in str(text).split(","):
        a, _, b = chunk.partition(":")
        pairs.append(
            (_parse_number(a, "coefficient"), _parse_number(b, "coefficient") if b else 0.0)
        )
    return tuple(pairs)


def _run_skew(args: argparse.Namespace) -> None:
    case = args.case
    phi0 = parse_angle(args.phi0)
    factor = _parse_number(args.a, "a")
    alpha = parse_angle(args.alpha)
    branches = tuple(
        _parse_number(b, "branch", int)
        for b in args.branches.split(",")
        if b != ""
    )
    coefficients = _parse_coefficient_pairs(args.coefficients)
    family = SkewFamilySpec(
        case=case,
        phi0=phi0,
        factor_a=factor,
        alpha=alpha,
        root_indices=branches,
        coefficients=coefficients,
    )
    curve = build_family(family)
    alpha = family.equation_alpha()
    window = _window(args, -math.pi, math.pi)
    residual = skew_equation_residual(
        curve, family.phi0, family.factor_a, case, window, alpha=alpha
    )
    caus = caustic_curve(curve, TiltField.skew(family.phi0), window)
    if args.out_csv:
        write_curve_csv(args.out_csv, caus.source)
    if args.out_svg:
        write_scene(args.out_svg, mirror=[caus.source.points], caustic=[caus.points])
    print(f"case={family.case}")
    print(f"phi0={family.phi0:.12g}")
    print(f"factor_a={family.factor_a:.12g}")
    print(f"alpha={alpha:.12g}")
    print(f"branches={','.join(str(b) for b in family.root_indices)}")
    print(
        "coefficients="
        + ",".join(f"{a:.12g}:{b:.12g}" for a, b in family.coefficients)
    )
    print(f"residual={residual:.6e}")


def _run_pantograph(args: argparse.Namespace) -> None:
    window = _window(args, 0.0, 2 * math.pi)
    k = args.m - 1
    factor = similarity_factor(k)
    secondary = args.secondary
    if secondary is not None:
        secondary = _parse_number(secondary, "secondary")
    series = solve_series(k, n_max=args.order, secondary=secondary)
    solution = PantographSolution(series)
    curve = solution_curve(solution)
    # The figure's grid passes the gate of `curve` and `caustic` before any line is printed.
    thetas = _resolve_grid(curve, window) if args.out_svg else None
    print(f"m={args.m}")
    print(f"k={k}")
    print(f"a={factor}")
    report = None
    if k >= 0:
        report = mirror_report(solution)
        # Every scalar field, in declaration order: not the label or point arrays.
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if field.name == "label" or isinstance(value, np.ndarray):
                continue
            if isinstance(value, tuple):
                print(f"{field.name}=" + ",".join(f"{v:.12g}" for v in value))
            elif isinstance(value, bool):
                print(f"{field.name}={str(value).lower()}")
            else:
                print(f"{field.name}={value:.12g}")
    if args.out_csv:
        write_coefficient_csv(args.out_csv, zip(series.powers(), series.coefficients))
    if args.out_svg:
        if report is None:
            groups = {"mirror": [reconstruct(curve, thetas).points]}
        else:
            # The report puts the mirror's theta = 0 point at the origin, so
            # the mirror and its reflection caustic are integrated from there.
            # theta = 0 is a cusp of the caustic (R = 0): a NaN row, not drawn.
            caus = caustic_curve(curve, TiltField.reflection(), _union([0.0], thetas))
            nodes = np.searchsorted(caus.source.theta, thetas)
            cpts = caus.points[nodes]
            groups = {
                "mirror": [caus.source.points[nodes]],
                "caustic": [cpts, cpts / float(factor)],
                "cuspline": [report.collinearity_points],
                "cusps": report.mirror_cusp_points,
            }
        write_scene(args.out_svg, **groups)


def _run_verify(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise ValidationError(f"seed must be non-negative, got {args.seed}")
    checks = verify.run(args.suite, args.samples, args.seed)
    width = max(len(name) for name, *_ in checks)
    for name, value, limit, draw in checks:
        verdict = "PASS" if value <= limit else "FAIL"
        line = f"{verdict}  {name:<{width}}  value={value:.3e}  bound={limit:.1e}"
        if verdict == "FAIL" and draw is not None:
            line += f"  draw={draw[0]} params={draw[1]!r}"
        print(line)
    failures = sum(not value <= limit for _, value, limit, _ in checks)
    print(f"checks={len(checks)} failures={failures}")
    if failures:
        raise NumericError(f"{failures} verification check(s) failed")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise ``ValidationError`` instead of exiting."""

    def error(self, message: str):
        raise ValidationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``caustics`` argument parser, built once per process and shared."""
    parser = _Parser(
        prog="caustics",
        description="Plane curves, tilted caustics, self-similar families and mirrors.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-csv", help="write a CSV table to this path")
        p.add_argument("--out-svg", help="write an SVG scene to this path")

    p_curve = sub.add_parser("curve", help="reconstruct a profile from its turning radius")
    p_curve.add_argument("--curve", default="circle", help="name[:key=value,...]")
    p_curve.add_argument("--interval", help="angle window lo:hi (pi literals allowed)")
    p_curve.add_argument("--samples", type=int, default=257)
    add_io(p_curve)
    p_curve.set_defaults(run=_run_curve)

    p_caustic = sub.add_parser("caustic", help="caustic of a profile under a tilt field")
    p_caustic.add_argument("--curve", default="circle")
    p_caustic.add_argument("--tilt", default="evolute", help="evolute | reflection | skew:<phi>")
    p_caustic.add_argument("--interval")
    p_caustic.add_argument("--samples", type=int, default=257)
    add_io(p_caustic)
    p_caustic.set_defaults(run=_run_caustic)

    p_skew = sub.add_parser("skew", help="constant-tilt self-similar family")
    p_skew.add_argument(
        "--case",
        default="point_by_point",
        choices=("point_by_point", "inverse_position", "delay"),
    )
    p_skew.add_argument("--phi0", default="0", help="constant tilt (pi literals allowed)")
    p_skew.add_argument("--a", default="1.2", help="similarity factor")
    p_skew.add_argument("--alpha", default="0", help="angular shift of the delay case")
    p_skew.add_argument("--branches", default="0", help="comma list of root branches")
    p_skew.add_argument(
        "--coefficients", default="1:0", help="A:B pairs, comma separated, one per branch"
    )
    p_skew.add_argument("--interval")
    p_skew.add_argument("--samples", type=int, default=257)
    add_io(p_skew)
    p_skew.set_defaults(run=_run_skew)

    p_pant = sub.add_parser("pantograph", help="self-reproducing mirror for exponent m")
    p_pant.add_argument("--m", type=int, default=2, help="mirror exponent (k = m - 1)")
    p_pant.add_argument("--order", type=int, default=30, help="series truncation order")
    p_pant.add_argument("--secondary", help="free coefficient of the k = -3 family")
    p_pant.add_argument("--interval")
    p_pant.add_argument("--samples", type=int, default=513)
    add_io(p_pant)
    p_pant.set_defaults(run=_run_pantograph)

    p_verify = sub.add_parser("verify", help="run the agreement and residual suites")
    p_verify.add_argument("--suite", required=True, choices=verify.SUITES)
    p_verify.add_argument("--samples", type=int, default=2000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=_run_verify, out_csv=None, out_svg=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
        for fmt, path in (("csv", args.out_csv), ("svg", args.out_svg)):
            if path:
                print(f"wrote_{fmt}={path}")
        sys.stdout.flush()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout: what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
