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
files.  Exit status: 0 success, 2 validation error, 3 numeric error.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .caustic import TiltField, caustic_curve
from .csvio import write_caustic_csv, write_coefficient_csv, write_curve_csv
from .errors import CausticsError, NumericError, ValidationError
from .inclination import (
    AngleInterval,
    CurveSamples,
    InclinationCurve,
    circle,
    cycloid,
    find_cusps,
    frenet_residual,
    log_spiral,
    polynomial_curve,
    reconstruct,
)
from .oracle import (
    envelope_numeric,
    hausdorff_distance,
    rays_from_tilt,
    reflect_horizontal,
)
from .pantograph import (
    PantographSolution,
    mirror_equation_residual,
    mirror_report,
    overlay_caustic_points,
    parabola_mirror,
    similarity_factor,
    solution_curve,
    solve_series,
)
from .quadrature import panel_integrals
from .skew import (
    SkewFamilySpec,
    build_family,
    implied_alpha,
    puiseux_curve,
    skew_equation_residual,
)
from .specfun import lambert_w, tan_coeffs, zeta_even
from .svg import write_scene

__all__ = ["JobSpec", "parse_angle", "parse_interval", "job_from_args", "run", "main"]

_SUBCOMMANDS = ("curve", "caustic", "skew", "pantograph", "verify")

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
        return sign * coef * math.pi / div
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

    try:
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
    except KeyError as exc:
        raise ValidationError(f"curve {name!r} is missing parameter {exc}") from None
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


@dataclass(frozen=True)
class JobSpec:
    """One resolved command-line job."""

    subcommand: str
    params: dict[str, str] = field(default_factory=dict)
    outputs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise ValidationError(
                f"subcommand must be one of {_SUBCOMMANDS}, got {self.subcommand!r}"
            )
        for fmt, _ in self.outputs:
            if fmt not in ("csv", "svg"):
                raise ValidationError(f"unknown output format {fmt!r}")


def job_from_args(args: argparse.Namespace) -> JobSpec:
    params = {
        key: str(value)
        for key, value in vars(args).items()
        if key not in ("subcommand", "out_csv", "out_svg") and value is not None
    }
    outputs = []
    if getattr(args, "out_csv", None):
        outputs.append(("csv", args.out_csv))
    if getattr(args, "out_svg", None):
        outputs.append(("svg", args.out_svg))
    return JobSpec(subcommand=args.subcommand, params=params, outputs=tuple(outputs))


def _out_paths(spec: JobSpec) -> dict[str, str]:
    return {fmt: path for fmt, path in spec.outputs}


def _interval_param(spec: JobSpec, default: AngleInterval) -> AngleInterval:
    n = _parse_number(spec.params.get("samples", default.n_samples), "samples", int)
    if "interval" in spec.params:
        return parse_interval(spec.params["interval"], n)
    return AngleInterval(default.lo, default.hi, n)


def _cusp_positions(
    curve: InclinationCurve, interval: AngleInterval, samples: CurveSamples
) -> np.ndarray:
    """Curve points at the cusps inside the window.

    Each cusp is placed from its left grid neighbour in ``samples`` by one
    more integral of ``R (cos, sin)``, all cusps in one batched quadrature.
    """
    cusps = np.asarray(find_cusps(curve, interval))
    if cusps.size == 0:
        return np.empty((0, 2))
    left = np.searchsorted(samples.theta, cusps, side="right") - 1
    start = samples.theta[left]
    width = cusps - start

    def integrand(u):
        t = start[:, None] + width[:, None] * u[None, :]
        r = np.asarray(curve.radius_fn(t.ravel()), dtype=float).reshape(t.shape)
        return np.concatenate([r * np.cos(t), r * np.sin(t)])

    offsets = panel_integrals(integrand, [0.0, 1.0]).reshape(2, -1).T * width[:, None]
    return samples.points[left] + offsets


def _run_curve(spec: JobSpec) -> None:
    curve = _build_curve(spec.params.get("curve", "circle"))
    interval = _interval_param(spec, _default_window(curve))
    samples = reconstruct(curve, interval)
    outs = _out_paths(spec)
    if "csv" in outs:
        write_curve_csv(outs["csv"], samples)
    if "svg" in outs:
        cusps = _cusp_positions(curve, interval, samples)
        write_scene(outs["svg"], mirror=[samples.points], cusps=cusps)
    print(f"curve={curve.label or 'custom'}")
    print(f"samples={len(samples)}")
    print(f"arclength={samples.arclength[-1] - samples.arclength[0]:.12g}")
    for fmt, path in spec.outputs:
        print(f"wrote_{fmt}={path}")


def _default_window(curve: InclinationCurve) -> AngleInterval:
    lo = max(curve.domain.lo, -2 * math.pi)
    hi = min(curve.domain.hi, 2 * math.pi)
    return AngleInterval(lo, hi, 257)


def _run_caustic(spec: JobSpec) -> None:
    curve = _build_curve(spec.params.get("curve", "circle"))
    tilt = _build_tilt(spec.params.get("tilt", "evolute"))
    interval = _interval_param(spec, _default_window(curve))
    caus = caustic_curve(curve, tilt, interval)
    flagged = int(np.count_nonzero(caus.flag))
    outs = _out_paths(spec)
    if "csv" in outs:
        write_caustic_csv(outs["csv"], caus)
    if "svg" in outs:
        mpts, cpts = caus.source.points, caus.points
        drawn = np.all(np.isfinite(cpts), axis=1)  # flagged nodes are NaN
        rays = np.stack([mpts[drawn], cpts[drawn]], axis=1)
        write_scene(outs["svg"], mirror=[mpts], caustic=[cpts], rays=rays)
    print(f"curve={curve.label or 'custom'}")
    print(f"tilt={spec.params.get('tilt', 'evolute')}")
    print(f"points={len(caus)}")
    print(f"flagged={flagged}")
    for fmt, path in spec.outputs:
        print(f"wrote_{fmt}={path}")


def _parse_coefficient_pairs(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in str(text).split(","):
        a, _, b = chunk.partition(":")
        pairs.append(
            (_parse_number(a, "coefficient"), _parse_number(b, "coefficient") if b else 0.0)
        )
    return tuple(pairs)


def _run_skew(spec: JobSpec) -> None:
    case = spec.params.get("case", "point_by_point")
    phi0 = parse_angle(spec.params.get("phi0", "0"))
    factor = _parse_number(spec.params.get("a", "1.2"), "a")
    alpha = parse_angle(spec.params.get("alpha", "0"))
    branches = tuple(
        _parse_number(b, "branch", int)
        for b in spec.params.get("branches", "0").split(",")
        if b != ""
    )
    coefficients = _parse_coefficient_pairs(spec.params.get("coefficients", "1:0"))
    family = SkewFamilySpec(
        case=case,
        phi0=phi0,
        factor_a=factor,
        alpha=alpha,
        root_indices=branches,
        coefficients=coefficients,
    )
    curve = build_family(family)
    if case == "inverse_position":
        alpha = implied_alpha(coefficients[0][0], coefficients[0][1], factor, phi0)
    elif case == "delay":
        alpha = family.alpha
    else:
        alpha = 0.0
    window = _interval_param(spec, AngleInterval(-math.pi, math.pi, 257))
    residual = skew_equation_residual(
        curve, family.phi0, family.factor_a, case, window, alpha=alpha
    )
    caus = caustic_curve(curve, TiltField.skew(family.phi0), window)
    outs = _out_paths(spec)
    if "csv" in outs:
        write_curve_csv(outs["csv"], caus.source)
    if "svg" in outs:
        write_scene(outs["svg"], mirror=[caus.source.points], caustic=[caus.points])
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
    for fmt, path in spec.outputs:
        print(f"wrote_{fmt}={path}")


def _run_pantograph(spec: JobSpec) -> None:
    m = _parse_number(spec.params.get("m", "2"), "m", int)
    order = _parse_number(spec.params.get("order", "30"), "order", int)
    k = m - 1
    factor = similarity_factor(k)
    secondary = spec.params.get("secondary")
    if secondary is not None:
        secondary = _parse_number(secondary, "secondary")
    series = solve_series(k, n_max=order, secondary=secondary)
    solution = PantographSolution(series)
    print(f"m={m}")
    print(f"k={k}")
    print(f"a={factor}")
    report = None
    if k >= 0:
        report = mirror_report(solution)
        for key, value in report.as_mapping().items():
            if key == "label":
                continue
            if isinstance(value, list):
                print(f"{key}=" + ",".join(f"{v:.12g}" for v in value))
            elif isinstance(value, bool):
                print(f"{key}={str(value).lower()}")
            elif isinstance(value, float):
                print(f"{key}={value:.12g}")
            else:
                print(f"{key}={value}")
    outs = _out_paths(spec)
    if "csv" in outs:
        write_coefficient_csv(
            outs["csv"], zip(series.powers(), series.coefficients), value_label="a_n"
        )
    if "svg" in outs:
        window = _interval_param(spec, AngleInterval(0.0, 2 * math.pi, 513))
        mirror_samples = reconstruct(solution_curve(solution), window)
        groups: dict[str, object] = {"mirror": [mirror_samples.points]}
        if k >= 0:
            cpts = overlay_caustic_points(solution, mirror_samples.theta)
            groups["caustic"] = [cpts, cpts / float(factor)]
        if report is not None:
            line = np.asarray(report.collinearity_points, dtype=float)
            groups["cuspline"] = [line]
            groups["cusps"] = np.asarray(report.mirror_cusp_points, dtype=float)
        write_scene(outs["svg"], **groups)
    for fmt, path in spec.outputs:
        print(f"wrote_{fmt}={path}")


# ---------------------------------------------------------------------------
# verification suites


def _check_circle_focus(n: int) -> tuple[str, float, float]:
    curve = circle(1.0)
    window = AngleInterval(0.05, math.pi - 0.05, n)
    family = rays_from_tilt(curve, TiltField.evolute(), window)
    envelope = envelope_numeric(family)
    # Normal rays of a circle meet one radius away from any of their bases.
    center = family.bases[0] + family.directions[0]
    scatter = float(np.nanmax(np.linalg.norm(envelope.points - center, axis=1)))
    return ("circle_normals_focus_scatter", scatter, 1e-8)


def _envelope_gap(window: AngleInterval) -> float:
    """Hausdorff distance between two caustics of the unit circle under reflection.

    One is the rays' numeric envelope, the other the closed form; disks
    around the caustic's cusps are left out."""
    curve, tilt = circle(1.0), TiltField.reflection()
    envelope = envelope_numeric(rays_from_tilt(curve, tilt, window))
    # Sample the closed form at the envelope's own (midpoint) parameters so
    # the two polylines cover the same arc.  Keeping the window's first node
    # in the grid pins the reconstruction to the same anchor the ray family
    # used; nudging the anchor onto the midpoint grid would translate the
    # whole caustic by half a step.
    grid = np.concatenate(([window.lo], envelope.parameters))
    closed = caustic_curve(curve, tilt, grid)[1:]
    radii, points = closed.caustic_radius, closed.points
    flips = np.flatnonzero(np.sign(radii[:-1]) != np.sign(radii[1:]))
    cusp_centers = 0.5 * (points[flips] + points[flips + 1])
    return hausdorff_distance(envelope.points, points, exclusions=cusp_centers)


def _check_reflection_directions(n: int) -> tuple[str, float, float]:
    curve = circle(1.0)
    window = AngleInterval(0.01, math.pi - 0.01, n)
    samples = reconstruct(curve, window)
    thetas = samples.theta
    family = reflect_horizontal(samples.points, source_thetas=thetas)
    want = np.stack([np.cos(2 * thetas), np.sin(2 * thetas)], axis=1)
    got = family.directions
    interior = slice(1, -1)
    err = float(np.max(np.linalg.norm(got[interior] - want[interior], axis=1)))
    return ("reflection_matches_tilt_field", err, 1e-6)


def _check_step_halving(n: int) -> tuple[str, float, float]:
    coarse = _envelope_gap(AngleInterval(0.2, 1.2, n // 2))
    fine = _envelope_gap(AngleInterval(0.2, 1.2, n))
    return ("step_halving_ratio", fine / coarse, 0.5)


def _check_residual_suite() -> list[tuple[str, float, float]]:
    rows = []
    for k, label in ((0, "cycloid"), (1, "m2")):
        solution = PantographSolution(solve_series(k))
        rows.append(
            (f"pantograph_residual_{label}", mirror_equation_residual(solution), 1e-8)
        )
    pair = ((1.0, 0.5),)
    skew_checks = (
        (
            "skew_point_residual",
            SkewFamilySpec(case="point_by_point", phi0=0.3, factor_a=1.2),
            0.0,
        ),
        (
            "skew_inverse_residual",
            SkewFamilySpec(case="inverse_position", phi0=0.3, factor_a=1.2, coefficients=pair),
            implied_alpha(1.0, 0.5, 1.2, 0.3),
        ),
        (
            "skew_delay_residual",
            SkewFamilySpec(
                case="delay", phi0=0.0, factor_a=1.0, alpha=math.pi / 2,
                root_indices=(1,), coefficients=pair,
            ),
            math.pi / 2,
        ),
    )
    for name, family, alpha in skew_checks:
        residual = skew_equation_residual(
            build_family(family), family.phi0, family.factor_a, family.case,
            AngleInterval(-2, 2, 201), alpha=alpha,
        )
        rows.append((name, residual, 1e-9))
    window = AngleInterval(0.3, math.pi - 0.3, 257)
    rows.append(
        ("frenet_circle_residual", frenet_residual(reconstruct(circle(1.0), window)), 1e-3)
    )
    return rows


def _check_specfun_suite(seed: int, n: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        radius = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        angle = rng.uniform(-math.pi, math.pi)
        z = radius * complex(math.cos(angle), math.sin(angle))
        k = int(rng.integers(-3, 4))
        w = lambert_w(k, z)
        w = complex(w)
        resid = abs(w * np.exp(w) - z) / max(abs(z), 1.0)
        worst = max(worst, resid)
    rows = [("lambert_residual_sweep", worst, 1e-12)]
    t = 1.0
    tail = abs(float(tan_coeffs(30).eval(t)) - math.tan(t))
    rows.append(("tan_series_at_1", tail, 1e-10))
    rows.append(("zeta_2", abs(zeta_even(2) - math.pi**2 / 6.0), 1e-15))
    rows.append(("zeta_10", abs(zeta_even(10) - math.pi**10 / 93555.0), 1e-12))
    return rows


def _run_verify(spec: JobSpec) -> None:
    suite = spec.params.get("suite", "")
    if not suite:
        raise ValidationError("empty suite; pick one of oracle, residuals, specfun, all")
    known = ("oracle", "residuals", "specfun", "all")
    if suite not in known:
        raise ValidationError(f"unknown suite {suite!r}; pick one of {known}")
    n = _parse_number(spec.params.get("samples", "2000"), "samples", int)
    seed = _parse_number(spec.params.get("seed", "0"), "seed", int)
    bound = _parse_number(spec.params.get("tolerance", "1e-3"), "tolerance")
    checks: list[tuple[str, float, float]] = []
    if suite in ("oracle", "all"):
        checks.append(_check_circle_focus(n))
        gap = _envelope_gap(AngleInterval(0.01, math.pi - 0.01, n))
        checks.append(("semicircle_reflection_hausdorff", gap, bound))
        checks.append(_check_reflection_directions(max(n, 4001)))
        checks.append(_check_step_halving(max(n // 2, 500)))
    if suite in ("residuals", "all"):
        checks.extend(_check_residual_suite())
    if suite in ("specfun", "all"):
        checks.extend(_check_specfun_suite(seed, max(50, n // 10)))
    failures = 0
    width = max(len(name) for name, _, _ in checks)
    for name, value, limit in checks:
        ok = value <= limit
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  value={value:.3e}  bound={limit:.1e}")
    print(f"checks={len(checks)} failures={failures}")
    if failures:
        raise NumericError(f"{failures} verification check(s) failed")


def run(spec: JobSpec) -> None:
    """Execute one job; raises on validation or numeric failure."""
    handler = {
        "curve": _run_curve,
        "caustic": _run_caustic,
        "skew": _run_skew,
        "pantograph": _run_pantograph,
        "verify": _run_verify,
    }[spec.subcommand]
    handler(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p_caustic = sub.add_parser("caustic", help="caustic of a profile under a tilt field")
    p_caustic.add_argument("--curve", default="circle")
    p_caustic.add_argument("--tilt", default="evolute", help="evolute | reflection | skew:<phi>")
    p_caustic.add_argument("--interval")
    p_caustic.add_argument("--samples", type=int, default=257)
    add_io(p_caustic)

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

    p_pant = sub.add_parser("pantograph", help="self-reproducing mirror for exponent m")
    p_pant.add_argument("--m", type=int, default=2, help="mirror exponent (k = m - 1)")
    p_pant.add_argument("--order", type=int, default=30, help="series truncation order")
    p_pant.add_argument("--secondary", help="free coefficient of the k = -3 family")
    p_pant.add_argument("--interval")
    p_pant.add_argument("--samples", type=int, default=513)
    add_io(p_pant)

    p_verify = sub.add_parser("verify", help="run the agreement and residual suites")
    p_verify.add_argument("--suite", default="", help="oracle | residuals | specfun | all")
    p_verify.add_argument("--samples", type=int, default=2000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", default="1e-3", help="oracle Hausdorff bound")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run(job_from_args(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
