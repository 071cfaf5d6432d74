"""Seeded job streams of the three workloads, and the checks of their answers.

A workload is an endless sequence of rounds.  Every round holds the same
mix of job kinds and sizes; the seed draws the continuous parameters, the
pairing of sizes with cases and the order of the jobs.  Runs with
different seeds therefore measure comparable work on different inputs.

The checks use closed forms written here, independently of the library,
with the tolerances the repository's tests state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from harness import Job, call_cli

HALF_PI = 0.5 * math.pi

MIRROR_DEADLINE = 120.0
CAUSTIC_DEADLINE = 120.0
SKEW_DEADLINE = 0.2
"""Skew-family jobs take a few milliseconds; a draw that splits without bound is cut here."""
STALL_DEADLINE = 0.02
"""Draws known to split without bound are cut early: how far they get sets
their time and memory, so both should stay small against the rest."""
FAMILIES_DEADLINE = 2.0

# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class Profile:
    """A stock curve: its CLI text, R, R' and, where known, its reconstruction.

    ``track(t, t0)`` returns columns ``x, y, s`` of the curve anchored at the
    origin at angle ``t0``; ``build(lib)`` makes the library's own curve.
    """

    spec: str
    radius: Callable[[np.ndarray], np.ndarray]
    radius_prime: Callable[[np.ndarray], np.ndarray]
    track: Callable[[np.ndarray, float], np.ndarray] | None
    build: Callable[[object], object]


def circle(r: float) -> Profile:
    return Profile(
        f"circle:radius={r!r}",
        lambda t: np.full_like(t, r),
        lambda t: np.zeros_like(t),
        lambda t, t0: np.column_stack(
            [r * (np.sin(t) - math.sin(t0)), r * (math.cos(t0) - np.cos(t)), r * (t - t0)]
        ),
        lambda lib: lib.inclination.circle(r),
    )


def cycloid(a: float) -> Profile:
    return Profile(
        f"cycloid:amplitude={a!r}",
        lambda t: a * np.sin(t),
        lambda t: a * np.cos(t),
        lambda t, t0: a
        * np.column_stack(
            [
                0.5 * (np.sin(t) ** 2 - math.sin(t0) ** 2),
                0.5 * (t - t0) - 0.25 * (np.sin(2 * t) - math.sin(2 * t0)),
                math.cos(t0) - np.cos(t),
            ]
        ),
        lambda lib: lib.inclination.cycloid(a),
    )


def log_spiral(a: float, b: float) -> Profile:
    def track(t, t0):
        def f(u):
            e = a * np.exp(b * u) / (1.0 + b * b)
            return np.column_stack(
                [e * (b * np.cos(u) + np.sin(u)), e * (b * np.sin(u) - np.cos(u)), e * (1.0 + b * b) / b]
            )

        return f(t) - f(np.array([t0]))

    return Profile(
        f"log_spiral:amplitude={a!r},growth={b!r}",
        lambda t: a * np.exp(b * t),
        lambda t: a * b * np.exp(b * t),
        track,
        lambda lib: lib.inclination.log_spiral(a, b),
    )


def puiseux(c: float, gamma: float) -> Profile:
    return Profile(
        f"puiseux:c={c!r},gamma={gamma!r}",
        lambda t: np.exp(c * t) * np.sin(gamma * t),
        lambda t: np.exp(c * t) * (c * np.sin(gamma * t) + gamma * np.cos(gamma * t)),
        None,
        lambda lib: lib.skew.puiseux_curve(c, gamma),
    )


@dataclass(frozen=True)
class Tilt:
    """phi(theta) with constant phi' and phi'' = 0, as the stock tilts have."""

    text: str
    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: float
    build: Callable[[object], object]


EVOLUTE = Tilt("evolute", np.zeros_like, 0.0, lambda lib: lib.caustic.TiltField.evolute())
REFLECTION = Tilt("reflection", lambda t: HALF_PI - t, -1.0,
                  lambda lib: lib.caustic.TiltField.reflection())


def skew_tilt(phi0: float) -> Tilt:
    return Tilt(f"skew:{phi0!r}", lambda t: np.full_like(t, phi0), 0.0,
                lambda lib: lib.caustic.TiltField.skew(phi0))


def caustic_columns(profile: Profile, tilt: Tilt, theta: np.ndarray):
    """theta1, R1 and ray length of the caustic, and the ray offset vector."""
    r = profile.radius(theta)
    rp = profile.radius_prime(theta)
    phi = tilt.phi(theta)
    one = 1.0 - tilt.phi_prime
    r1 = ((1.0 - 2.0 * tilt.phi_prime) * np.sin(phi) * r + np.cos(phi) * rp) / (one * one)
    stretch = np.cos(phi) * r / one
    offset = stretch[:, None] * np.column_stack([np.sin(phi - theta), np.cos(phi - theta)])
    return theta + HALF_PI - phi, r1, np.abs(stretch), offset, r, rp


def _off(got, want, rtol: float, scale: float | None = None) -> str | None:
    """None when ``got`` matches ``want`` to ``rtol`` times the data scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(want), initial=0.0))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= rtol * max(1.0, scale):
        return f"deviation {err:.3e} > {rtol:g} x {max(1.0, scale):.3g}"
    return None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


def _read_csv(path: Path, columns: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != columns:
        raise ValueError(f"{path.name} has {table.shape[1]} columns, expected {columns}")
    return table


def _check_svg(path: Path, groups: tuple[str, ...]) -> str | None:
    text = path.read_text(encoding="ascii")
    if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
        return "SVG file is not a complete document"
    missing = [g for g in groups if f'<g id="{g}"' not in text]
    return f"SVG lacks groups {missing}" if missing else None


def _check_grid(theta: np.ndarray, lo: float, hi: float, n: int) -> str | None:
    if theta.size != n:
        return f"{theta.size} rows, expected {n}"
    return _off(theta, np.linspace(lo, hi, n), 1e-12)


def check_caustic_table(table, profile, tilt, lo, hi, n, flagged) -> str | None:
    """Compare a caustic CSV with the closed-form caustic of a stock curve."""
    theta = table[:, 0]
    bad = _check_grid(theta, lo, hi, n)
    if bad:
        return "theta column: " + bad
    theta1, r1, ray, offset, r, rp = caustic_columns(profile, tilt, theta)
    nan_rows = ~np.all(np.isfinite(table[:, 1:]), axis=1)
    if int(nan_rows.sum()) != flagged:
        return f"{int(nan_rows.sum())} NaN rows but flagged={flagged}"
    if not np.array_equal(nan_rows, r == 0.0):
        return "flagged rows are not the nodes where R vanishes"
    ok = ~nan_rows
    scale = float(np.max(np.abs(r)) + np.max(np.abs(rp)))
    reasons = [
        _off(table[ok, 1], theta1[ok], 1e-12),
        _off(table[ok, 4], r1[ok], 1e-9, scale),
        _off(table[ok, 5], ray[ok], 1e-9, scale),
    ]
    if profile.track is not None:
        pos = profile.track(theta, lo)[:, :2] + offset
        reasons.append(_off(table[ok, 2:4], pos[ok], 1e-8))
    return _first(*reasons)


def check_curve_table(table, profile, lo, hi, n) -> str | None:
    """Compare a curve CSV (theta, x, y, R, s) with a stock curve's closed form."""
    theta = table[:, 0]
    return _first(
        _check_grid(theta, lo, hi, n),
        _off(table[:, 3], profile.radius(theta), 1e-12),
        _off(table[:, 1:3], profile.track(theta, lo)[:, :2], 1e-8),
        _off(table[:, 4], profile.track(theta, lo)[:, 2], 1e-8),
    )


def check_curve_integrals(table) -> str | None:
    """x, y and s must be integrals of R (cos, sin, 1): Simpson over cell pairs."""
    theta, x, y, r, s = table.T
    if len(theta) % 2 == 0 or not np.all(np.isfinite(table)):
        return "curve table is not an odd-length finite grid"
    h = np.diff(theta[::2]) / 6.0
    reasons = []
    for col, weight in ((x, np.cos(theta)), (y, np.sin(theta)), (s, np.ones_like(theta))):
        f = r * weight
        simpson = h * (f[:-2:2] + 4.0 * f[1::2] + f[2::2])
        reasons.append(_off(np.diff(col[::2]), simpson, 1e-5, float(np.max(np.abs(r)))))
    return _first(*reasons)


# ---------------------------------------------------------------------------
# workload: mirror


def _pantograph_cli(work: Path, m: int, order: int, samples: int, window: str = "0:2pi") -> Job:
    k = m - 1
    csv, svg = work / "coeffs.csv", work / "mirror.svg"
    argv = ["pantograph", "--m", str(m), "--order", str(order), "--interval", window,
            "--samples", str(samples), "--out-csv", str(csv), "--out-svg", str(svg)]
    vertical = k == 0

    def check(lib, res):
        f = res.fields()
        a = Fraction(k + 4, 2 ** (k + 3))
        if (f.get("m"), f.get("k"), f.get("a")) != (str(m), str(k), str(a)):
            return f"summary m/k/a = {f.get('m')}/{f.get('k')}/{f.get('a')}"
        flags = (f.get("is_vertical"), f.get("has_occlusion"))
        want = ("true", "false") if vertical else ("false", "true")
        if flags != want:
            return f"is_vertical/has_occlusion = {flags}, expected {want}"
        if vertical:
            devs = [float(v) for v in f.get("zero_deviations", "").split(",") if v]
            if not devs or max(abs(d) for d in devs) > 1e-9:
                return "cycloid zeros are not multiples of pi to 1e-9"
        table = _read_csv(csv, 2)
        powers = np.arange(k, order + 1)
        coeff = table[:, 1]
        return _first(
            None if np.array_equal(table[:, 0], powers) else "coefficient powers",
            None if coeff[0] == 1.0 else "leading coefficient is not 1",
            None if not np.any(coeff[1::2]) else "opposite-parity coefficients are not zero",
            _off(coeff[2], k / (3.0 * (3 * k + 10)), 1e-15),
            _check_svg(svg, ("mirror", "caustic", "cuspline", "cusps")),
        )

    return Job("pantograph_cli", lambda lib: call_cli(lib, argv), check, MIRROR_DEADLINE)


def _series_curve_cli(work: Path, k: int, order: int, n: int = 257) -> Job:
    csv = work / "series.csv"
    lo, hi = 0.0, 4 * math.pi
    argv = ["curve", "--curve", f"series:k={k},order={order}", "--interval", "0:4pi",
            "--samples", str(n), "--out-csv", str(csv)]

    def check(lib, res):
        f = res.fields()
        table = _read_csv(csv, 5)
        if f.get("samples") != str(n):
            return f"samples={f.get('samples')}"
        arclength = float(f.get("arclength", "nan"))
        reasons = [
            _off(arclength, table[-1, 4] - table[0, 4], 1e-9),
            _check_grid(table[:, 0], lo, hi, n),
            check_curve_integrals(table),
        ]
        if k == 0:  # the k = 0 member is the cycloid R = sin(theta)
            reasons.append(check_curve_table(table, cycloid(1.0), lo, hi, n))
        return _first(*reasons)

    return Job("curve_cli", lambda lib: call_cli(lib, argv), check, MIRROR_DEADLINE)


def _resonant_curve_cli(work: Path, secondary: float) -> Job:
    """The k = -3 family with its free coefficient, kept away from the pole at 0."""
    csv = work / "resonant.csv"
    argv = ["curve", "--curve", f"series:k=-3,secondary={secondary!r}",
            "--interval", "0.5:2pi", "--samples", "129", "--out-csv", str(csv)]

    def check(lib, res):
        table = _read_csv(csv, 5)
        return _first(
            None if res.fields().get("samples") == "129" else "samples line",
            _check_grid(table[:, 0], 0.5, 2 * math.pi, 129),
            check_curve_integrals(table),
        )

    return Job(
        "curve_cli", lambda lib: call_cli(lib, argv), check, MIRROR_DEADLINE,
        known_defect="cli _build_curve drops secondary= before reading it (exit 2)",
    )


def _mirror_residual(solution, lo: float, hi: float, n: int) -> Job:
    def call(lib):
        interval = lib.inclination.AngleInterval(lo, hi, n)
        return lib.pantograph.mirror_equation_residual(solution, interval)

    def check(lib, residual):
        return None if residual <= 1e-8 else f"mirror residual {residual:.3e} > 1e-8"

    return Job("mirror_residual", call, check, MIRROR_DEADLINE)


def _continue_batch(solution, angles: np.ndarray) -> Job:
    """R, R' on a batch in [0, 4pi] and R at the doubled angles, up to 8pi."""

    def call(lib):
        r, rp = lib.pantograph.continue_R(solution, angles)
        r2, _ = lib.pantograph.continue_R(solution, 2.0 * angles)
        return r, rp, r2

    def check(lib, res):
        r, rp, r2 = res
        a = solution.series.factor_a
        defect = np.sin(angles) * rp - 4.0 * a * r2 + 3.0 * np.cos(angles) * r
        return _off(defect, 0.0, 1e-8, float(np.max(np.abs(r2))))

    return Job("continue_batch", call, check, MIRROR_DEADLINE)


PANTOGRAPH_SAMPLES = (129, 257, 513)
"""Sizes of the mirror drawn in the SVG overlay, one per m in every round."""


def mirror(lib, work: Path, seed: int) -> tuple[list[Job], Iterator[list[Job]]]:
    """Pantograph mirrors: CLI jobs rebuild solutions, library jobs share one per k."""
    solutions = {
        k: lib.pantograph.PantographSolution(lib.pantograph.solve_series(k, n_max=30))
        for k in (0, 1, 2)
    }
    # Warm-ups are the cheapest job of each kind.  The pantograph one is the
    # m = 0 member, which has no mirror report: a report costs seconds, and
    # every run sets up several times to time set-up.
    warmups = [
        _pantograph_cli(work, 0, 30, 9, "0.5:1"),
        _series_curve_cli(work, 0, 30, 33),
        _mirror_residual(solutions[0], 0.01, 2 * math.pi, 65),
        _continue_batch(solutions[0], np.linspace(0.0, 4 * math.pi, 16)),
    ]

    def rounds():
        for index in itertools.count():
            rng = np.random.default_rng([seed, index])
            jobs = [
                _pantograph_cli(work, m, int(rng.choice([30, 60])), int(samples))
                for m, samples in zip((1, 2, 3), rng.permutation(PANTOGRAPH_SAMPLES))
            ]
            jobs += [_series_curve_cli(work, k, int(rng.choice([30, 60]))) for k in (0, 1, 2)]
            jobs.append(_resonant_curve_cli(work, _u(rng, 0.25, 1.0)))
            # Six residuals and eighteen batches: the median job of the round
            # falls in the middle of the batches, not at the edge of a group.
            for k in (0, 1, 2):
                for n in (65, 129):
                    lo, hi = _u(rng, 0.01, 0.1), _u(rng, 2 * math.pi - 0.2, 2 * math.pi)
                    jobs.append(_mirror_residual(solutions[k], lo, hi, n))
                for _ in range(6):
                    angles = np.sort(rng.uniform(0, 4 * math.pi, 128))
                    jobs.append(_continue_batch(solutions[k], angles))
            yield _shuffled(rng, jobs)

    return warmups, rounds()


# ---------------------------------------------------------------------------
# workload: caustic

CAUSTIC_SIZES = (16385, 32769, 65537)
ORACLE_RAYS = (1025, 2049, 4097)


def _draw_profile(rng, name: str) -> tuple[Profile, float, float]:
    """A stock curve with seeded parameters and a seeded window."""
    if name == "circle":
        lo = _u(rng, -math.pi, 0.0)
        return circle(_u(rng, 0.5, 2.0)), lo, lo + _u(rng, 2 * math.pi, 4 * math.pi)
    if name == "cycloid":
        return cycloid(_u(rng, 0.5, 2.0)), _u(rng, 0.01, 0.5), _u(rng, 1.5 * math.pi, 2 * math.pi)
    if name == "log_spiral":
        lo = _u(rng, -math.pi, 0.0)
        profile = log_spiral(_u(rng, 0.5, 1.5), _u(rng, 0.05, 0.25))
        return profile, lo, lo + _u(rng, 2 * math.pi, 4 * math.pi)
    half = _u(rng, math.pi, 2 * math.pi)
    return puiseux(_u(rng, 0.1, 0.25), _u(rng, 2.0, 4.0)), -half, half


def _caustic_cli(work: Path, profile: Profile, tilt: Tilt, lo: float, hi: float, n: int) -> Job:
    csv, svg = work / "caustic.csv", work / "caustic.svg"
    argv = ["caustic", "--curve", profile.spec, "--tilt", tilt.text,
            f"--interval={lo!r}:{hi!r}", "--samples", str(n), "--out-csv", str(csv)]
    with_svg = n <= CAUSTIC_SIZES[0]
    if with_svg:
        argv += ["--out-svg", str(svg)]

    def call(lib):
        svg.unlink(missing_ok=True)
        return call_cli(lib, argv)

    def check(lib, res):
        f = res.fields()
        if f.get("points") != str(n) or "flagged" not in f:
            return f"summary points={f.get('points')} flagged={f.get('flagged')}"
        table = _read_csv(csv, 6)
        return _first(
            check_caustic_table(table, profile, tilt, lo, hi, n, int(f["flagged"])),
            _check_svg(svg, ("mirror", "caustic", "rays")) if with_svg else None,
        )

    return Job("caustic_cli", call, check, CAUSTIC_DEADLINE)


def _dense_curve_cli(work: Path, profile: Profile, lo: float, hi: float, n: int) -> Job:
    csv = work / "curve.csv"
    argv = ["curve", "--curve", profile.spec, f"--interval={lo!r}:{hi!r}",
            "--samples", str(n), "--out-csv", str(csv)]

    def check(lib, res):
        if res.fields().get("samples") != str(n):
            return "samples line"
        return check_curve_table(_read_csv(csv, 5), profile, lo, hi, n)

    return Job("curve_cli", lambda lib: call_cli(lib, argv), check, CAUSTIC_DEADLINE)


def _oracle_check(profile: Profile, tilt: Tilt, lo: float, hi: float, n: int) -> Job:
    """Rays, their numeric envelope, the closed-form caustic at the envelope's
    midpoints, and the Hausdorff distance between the two, cusps excluded."""

    def call(lib):
        curve, field = profile.build(lib), tilt.build(lib)
        window = lib.inclination.AngleInterval(lo, hi, n)
        family = lib.oracle.rays_from_tilt(curve, field, window)
        envelope = lib.oracle.envelope_numeric(family)
        grid = np.concatenate(([window.lo], envelope.parameters))
        closed = lib.caustic.caustic_curve(curve, field, grid)[1:]
        points = np.array([s.position for s in closed])
        radii = np.array([s.caustic_radius for s in closed])
        flips = np.flatnonzero(np.sign(radii[:-1]) != np.sign(radii[1:]))
        cusps = 0.5 * (points[flips] + points[flips + 1])
        return lib.oracle.hausdorff_distance(envelope.points, points, exclusions=cusps)

    def check(lib, distance):
        # The verify suite's bound, 1e-3 at 2000 rays, scaled with the first-order step.
        bound = 2.0 / n
        return None if distance <= bound else f"Hausdorff {distance:.3e} > {bound:.3e}"

    return Job("oracle_check", call, check, CAUSTIC_DEADLINE)


def _verify_cli(samples: int, seed: int) -> Job:
    argv = ["verify", "--suite", "oracle", "--samples", str(samples), "--seed", str(seed)]

    def check(lib, res):
        passes = sum(line.startswith("PASS") for line in res.stdout.splitlines())
        last = res.stdout.strip().splitlines()[-1]
        return None if (passes, last) == (4, "checks=4 failures=0") else f"verify said {last!r}"

    return Job("verify_cli", lambda lib: call_cli(lib, argv), check, CAUSTIC_DEADLINE)


def _oracle_draw(rng, n: int) -> Job:
    name = ("circle", "cycloid", "log_spiral")[int(rng.integers(3))]
    profile, _, _ = _draw_profile(rng, name)
    if name == "log_spiral":
        return _oracle_check(profile, skew_tilt(_u(rng, -1.2, 1.2)),
                             0.0, _u(rng, 2 * math.pi, 4 * math.pi), n)
    return _oracle_check(profile, REFLECTION, _u(rng, 0.01, 0.3),
                         _u(rng, math.pi - 0.3, math.pi - 0.01), n)


def caustic(lib, work: Path, seed: int) -> tuple[list[Job], Iterator[list[Job]]]:
    """Dense closed-form caustics of the stock curves and their oracle checks."""
    names = ("circle", "cycloid", "log_spiral", "puiseux")
    warm = np.random.default_rng(0)
    warmups = [  # the cheapest job of each kind
        _caustic_cli(work, circle(1.0), EVOLUTE, 0.0, math.pi, 1025),
        _dense_curve_cli(work, log_spiral(1.0, 0.15), 0.0, 4 * math.pi, 1025),
        _oracle_draw(warm, ORACLE_RAYS[0]),
        _verify_cli(500, 0),
    ]

    def rounds():
        for index in itertools.count():
            rng = np.random.default_rng([seed, index])
            # Sizes run along the diagonals of the curve x tilt grid, so every
            # curve gets each size once and every round has the same sizes.
            shift = int(rng.integers(3))
            jobs = []
            for i, name in enumerate(names):
                tilts = (EVOLUTE, REFLECTION, skew_tilt(_u(rng, -1.2, 1.2)))
                for j, tilt in enumerate(tilts):
                    profile, lo, hi = _draw_profile(rng, name)
                    jobs.append(_caustic_cli(work, profile, tilt, lo, hi, CAUSTIC_SIZES[(i + j + shift) % 3]))
            for name in ("log_spiral", "cycloid"):
                profile, lo, hi = _draw_profile(rng, name)
                jobs.append(_dense_curve_cli(work, profile, lo, hi, 65537))
            jobs += [_oracle_draw(rng, n) for n in ORACLE_RAYS]
            jobs.append(_verify_cli(int(rng.choice([1000, 2000])), int(rng.integers(1000))))
            yield _shuffled(rng, jobs)

    return warmups, rounds()


# ---------------------------------------------------------------------------
# workload: families

SKEW_SAMPLES = (33, 65, 129, 257)
PUISEUX_SAMPLES = (129, 257, 513, 1025)
SERIES_ORDERS = (30, 48, 66, 84, 102, 120)
DYNAMIC_RANGE = 8.0
"""Ordinary draws keep |rate x angle| <= 8 on their window, so R spans at most e^8."""
DEEP_PEAK = (3.9, 4.15)
"""log10 of max |R| on the window of a deep delay draw.  Near 1e4 the
absolute tolerance 1e-10 meets rounding noise, so panels refine over
several levels; of 900 probe draws in this band none stalled, while above
it some split without bound."""


@dataclass(frozen=True)
class Family:
    """A constant-tilt family draw, with R and R' in closed form.

    ``rates`` are the real parts of its exponential rates; they bound how
    fast R grows or decays on a window.
    """

    case: str
    phi0: float
    a: float
    alpha: float
    branches: tuple[int, ...]
    coefficients: tuple[tuple[float, float], ...]
    rates: tuple[float, ...]
    radius: Callable[[np.ndarray], np.ndarray]
    radius_prime: Callable[[np.ndarray], np.ndarray]

    def shifted(self, theta: np.ndarray, alpha: float) -> np.ndarray:
        if self.case == "point_by_point":
            return theta
        if self.case == "inverse_position":
            return alpha - theta
        return theta - alpha


def _exp_sum(xi, eta, amp_a, amp_b):
    """R = sum exp(xi t) (A cos(eta t) + B sin(eta t)) and its derivative."""
    xi, eta, amp_a, amp_b = (np.asarray(v, dtype=float) for v in (xi, eta, amp_a, amp_b))

    def radius(t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.sum(np.exp(xi * t) * (amp_a * np.cos(eta * t) + amp_b * np.sin(eta * t)), axis=-1)

    def radius_prime(t):
        t = np.asarray(t, dtype=float)[..., None]
        ca, cb = amp_a * xi + amp_b * eta, amp_b * xi - amp_a * eta
        return np.sum(np.exp(xi * t) * (ca * np.cos(eta * t) + cb * np.sin(eta * t)), axis=-1)

    return radius, radius_prime


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _signed(rng, lo: float, hi: float) -> float:
    return math.copysign(_u(rng, lo, hi), _u(rng, -1.0, 1.0))


def _window(rng, family: Family) -> tuple[float, float]:
    """A seeded window inside [-pi, pi] on which R spans at most e^8."""
    down, up = max(0.0, -min(family.rates)), max(0.0, max(family.rates))
    lo_lim = min(math.pi, DYNAMIC_RANGE / down) if down else math.pi
    hi_lim = min(math.pi, DYNAMIC_RANGE / up) if up else math.pi
    return -lo_lim * _u(rng, 0.5, 1.0), hi_lim * _u(rng, 0.5, 1.0)


def _delay_family(lib, phi0, a, alpha, branches, coefficients) -> Family:
    """Delay family; its rates come from ``delay_roots`` and are verified here."""
    roots = lib.skew.delay_roots(a, alpha, phi0, branches)
    lam = np.array([complex(root.value) for root in roots])
    off = np.abs((lam + math.tan(phi0)) * np.exp(alpha * lam) - a / math.cos(phi0))
    if np.max(off) > 1e-10:
        raise ValueError(f"delay_roots gave rates off the characteristic equation: {off}")
    coeff = np.array(coefficients, dtype=float)
    radius, radius_prime = _exp_sum(lam.real, lam.imag, coeff[:, 0], coeff[:, 1])
    return Family("delay", phi0, a, alpha, tuple(branches), tuple(coefficients),
                  tuple(float(x) for x in lam.real), radius, radius_prime)


def _draw_family(lib, rng, case: str) -> Family:
    if case == "point_by_point":
        phi0, a, amp = _u(rng, -0.9, 0.9), _signed(rng, 0.2, 1.5), _u(rng, 0.5, 2.0)
        b = (a - math.sin(phi0)) / math.cos(phi0)
        radius, radius_prime = _exp_sum([b], [0.0], [amp], [0.0])
        return Family(case, phi0, a, 0.0, (0,), ((amp, 0.0),), (b,), radius, radius_prime)
    if case == "inverse_position":
        # |a| >= 1 keeps the rate w >= 1, so the implied shift |alpha| <= pi
        # and alpha - theta stays inside the curve's domain [-4pi, 4pi].
        phi0 = _u(rng, -0.9, 0.9)
        a = _signed(rng, 1.0, 2.0)
        amp = (_u(rng, 0.3, 1.0), _u(rng, -1.0, 1.0))
        w = math.sqrt((a * a - math.sin(phi0) ** 2) / math.cos(phi0) ** 2)
        radius, radius_prime = _exp_sum([0.0, 0.0], [w, w], [amp[0], 0.0], [0.0, amp[1]])
        return Family(case, phi0, a, 0.0, (0,), (amp,), (0.0,), radius, radius_prime)
    branches = tuple(int(b) for b in rng.choice([0, 1, -1, 2, -2], size=2, replace=False))
    coefficients = tuple((_u(rng, 0.5, 1.5), _u(rng, -0.5, 0.5)) for _ in branches)
    return _delay_family(lib, _u(rng, -0.8, 0.8), _signed(rng, 0.2, 1.5),
                         _u(rng, 0.3, 1.2), branches, coefficients)


def _peak(family: Family, lo: float, hi: float) -> float:
    return math.log10(float(np.max(np.abs(family.radius(np.linspace(lo, hi, 1025))))))


def _deep_delay(lib, rng) -> tuple[Family, float, float]:
    """A delay draw and a window inside [-pi, pi] on which max |R| reaches a
    seeded level in ``DEEP_PEAK``: the window's shape is drawn, its size is
    bisected on the closed form."""
    while True:
        family = _draw_family(lib, rng, "delay")
        target = _u(rng, *DEEP_PEAK)
        left, right = _u(rng, 0.5, 1.0), _u(rng, 0.5, 1.0)
        small, large = 0.0, math.pi / max(left, right)
        if _peak(family, -large * left, large * right) < target:
            continue
        for _ in range(24):
            mid = 0.5 * (small + large)
            if _peak(family, -mid * left, mid * right) < target:
                small = mid
            else:
                large = mid
        return family, -large * left, large * right


def _fast_decaying_family(lib, rng) -> Family:
    """A delay draw with a root decaying faster than e^(-5 theta)."""
    while True:
        family = _draw_family(lib, rng, "delay")
        if min(family.rates) <= -5.0:
            return family


STALL = "panel_integrals splits without bound on a fast-decaying root"


def _check_skew_residual(family: Family, alpha: float, theta: np.ndarray, residual: float) -> str | None:
    """The skew equation's defect against 1e-9 times the size of its terms."""
    r, rp = family.radius(theta), family.radius_prime(theta)
    shifted = family.radius(family.shifted(theta, alpha))
    scale = max(1.0, float(np.max(np.abs(r))), float(np.max(np.abs(rp))),
                abs(family.a) * float(np.max(np.abs(shifted))))
    return None if residual <= 1e-9 * scale else f"skew residual {residual:.3e} > 1e-9 x {scale:.3g}"


def _skew_family(family: Family, lo: float, hi: float, n: int, known_defect: str | None = None,
                 deadline: float = SKEW_DEADLINE) -> Job:
    """build_family, then skew_equation_residual, then caustic_curve under the tilt."""

    def call(lib):
        spec = lib.skew.SkewFamilySpec(
            case=family.case, phi0=family.phi0, factor_a=family.a, alpha=family.alpha,
            root_indices=family.branches, coefficients=family.coefficients,
        )
        curve = lib.skew.build_family(spec)
        alpha = family.alpha
        if family.case == "inverse_position":
            alpha = lib.skew.implied_alpha(*family.coefficients[0], family.a, family.phi0)
        window = lib.inclination.AngleInterval(lo, hi, n)
        residual = lib.skew.skew_equation_residual(
            curve, spec.phi0, spec.factor_a, family.case, window, alpha=alpha
        )
        samples = lib.caustic.caustic_curve(curve, lib.caustic.TiltField.skew(spec.phi0), window)
        return alpha, residual, samples

    def check(lib, res):
        alpha, residual, samples = res
        theta = np.linspace(lo, hi, n)
        if len(samples) != n:
            return f"{len(samples)} caustic samples, expected {n}"
        r, rp = family.radius(theta), family.radius_prime(theta)
        flagged = np.array([s.error is not None for s in samples])
        if not np.array_equal(flagged, r == 0.0):
            return "flagged nodes are not the nodes where R vanishes"
        ok = ~flagged
        r1 = math.sin(family.phi0) * r + math.cos(family.phi0) * rp
        scale = float(np.max(np.abs(r)) + np.max(np.abs(rp)))
        return _first(
            _check_skew_residual(family, alpha, theta, residual),
            _off([s.source_theta for s in samples], theta, 1e-12),
            _off(np.array([s.caustic_theta for s in samples])[ok], theta[ok] + HALF_PI - family.phi0, 1e-12),
            _off(np.array([s.caustic_radius for s in samples])[ok], r1[ok], 1e-9, scale),
        )

    return Job("skew_family", call, check, deadline,
               known_defect=known_defect, error_passes=known_defect is not None)


def _skew_cli(work: Path, family: Family, lo: float, hi: float, n: int) -> Job:
    csv = work / "skew.csv"
    pairs = ",".join(f"{a!r}:{b!r}" for a, b in family.coefficients)
    argv = ["skew", "--case", family.case, f"--phi0={family.phi0!r}", f"--a={family.a!r}",
            f"--alpha={family.alpha!r}", f"--branches={','.join(map(str, family.branches))}",
            f"--coefficients={pairs}", f"--interval={lo!r}:{hi!r}", "--samples", str(n),
            "--out-csv", str(csv)]

    def check(lib, res):
        f = res.fields()
        if f.get("case") != family.case or "residual" not in f:
            return f"summary case={f.get('case')} residual={f.get('residual')}"
        table = _read_csv(csv, 5)
        theta = table[:, 0]
        return _first(
            _check_grid(theta, lo, hi, n),
            _check_skew_residual(family, float(f["alpha"]), theta, float(f["residual"])),
            _off(table[:, 3], family.radius(theta), 1e-12),
        )

    return Job("skew_cli", lambda lib: call_cli(lib, argv), check, FAMILIES_DEADLINE)


def _puiseux(c: float, gamma: float, n: int) -> Job:
    def call(lib):
        window = lib.inclination.AngleInterval(-8 * math.pi, 8 * math.pi, n)
        return lib.skew.puiseux_diagnostics(c, gamma, window)

    def check(lib, report):
        cusps = np.array(report.cusp_thetas)
        placement = np.abs(cusps - np.round(cusps * gamma / math.pi) * math.pi / gamma)
        if len(cusps) < 3:
            return f"{len(cusps)} cusps"
        if report.expected_ratio != math.exp(c * math.pi / gamma):
            return "expected ratio is not exp(c pi / gamma)"
        if not report.max_ratio_deviation < 1e-6:
            return f"ratio deviation {report.max_ratio_deviation:.3e} >= 1e-6"
        return None if np.max(placement) < 1e-9 else f"cusp placement {np.max(placement):.3e}"

    return Job("puiseux", call, check, FAMILIES_DEADLINE)


def _lambert_batch(pairs: list[tuple[int, complex]]) -> Job:
    def call(lib):
        return [lib.specfun.lambert_w(k, z) for k, z in pairs]

    def check(lib, values):
        w = np.array(values, dtype=complex)
        z = np.array([z for _, z in pairs])
        residual = np.abs(w * np.exp(w) - z) / np.maximum(np.abs(z), 1.0)
        worst = float(np.max(residual))
        return None if worst <= 1e-12 else f"relative Lambert residual {worst:.3e} > 1e-12"

    return Job("lambert_batch", call, check, FAMILIES_DEADLINE)


def _solve_series(k: int, order: int, leading: float) -> Job:
    """Exact-rational coefficients, checked against the auxiliary equation
    tan(t) Q'(t) - 8a Q(2t) + 4 Q(t) = 0 near t = 0."""

    def call(lib):
        return lib.pantograph.solve_series(k, n_max=order, leading=leading, exact=True)

    def check(lib, series):
        exact = series.exact
        if len(exact) != order - k + 1 or exact[0] != Fraction(leading):
            return "coefficient count or leading term"
        if any(exact[j] != 0 for j in range(1, len(exact), 2)):
            return "opposite-parity coefficients are not zero"
        if not np.array_equal(series.coefficients, [float(q) for q in exact]):
            return "float coefficients are not the rounded exact ones"
        powers = np.arange(k, order + 1)
        coeff = np.array([float(q) for q in exact])
        a = (k + 4) / 2.0 ** (k + 3)
        t = np.array([0.1, 0.15, 0.2])[:, None]
        q = lambda u: np.sum(coeff * u**powers, axis=1)
        dq = np.sum(coeff * powers * t ** (powers - 1), axis=1)
        defect = np.tan(t[:, 0]) * dq - 8.0 * a * q(2 * t) + 4.0 * q(t)
        return _off(defect, 0.0, 1e-12, float(np.max(np.abs(q(2 * t)))))

    return Job("solve_series", call, check, FAMILIES_DEADLINE)


def _lambert_pairs(rng, size: int) -> list[tuple[int, complex]]:
    radius = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size))
    angle = rng.uniform(-math.pi, math.pi, size)
    branch = rng.integers(-3, 4, size)
    return [(int(k), complex(r * math.cos(p), r * math.sin(p))) for k, r, p in zip(branch, radius, angle)]


def families(lib, work: Path, seed: int) -> tuple[list[Job], Iterator[list[Job]]]:
    """Many millisecond jobs: skew families, spirals, Lambert W, series, skew CLI."""
    cases = ("point_by_point", "inverse_position", "delay")
    warm = np.random.default_rng(0)
    family = _draw_family(lib, warm, "point_by_point")
    warmups = [
        _skew_family(family, *_window(warm, family), SKEW_SAMPLES[0]),
        _skew_cli(work, family, *_window(warm, family), SKEW_SAMPLES[0]),
        _puiseux(0.2, 3.0, PUISEUX_SAMPLES[0]),
        _lambert_batch(_lambert_pairs(warm, 64)),
        _solve_series(1, SERIES_ORDERS[0], 1.0),
    ]
    # Documented draw: roots 0.125 and -7.9-9.1j, still splitting after 10 s.
    known_stall = _delay_family(lib, 0.22, 0.36, 0.44, (0, -1), ((1.0, 0.0), (1.0, 0.5)))

    def rounds():
        for index in itertools.count():
            rng = np.random.default_rng([seed, index])
            jobs = []
            for case in cases:
                for n in SKEW_SAMPLES * 4:
                    family = _draw_family(lib, rng, case)
                    jobs.append(_skew_family(family, *_window(rng, family), n))
                for n in SKEW_SAMPLES * 2:
                    family = _draw_family(lib, rng, case)
                    jobs.append(_skew_cli(work, family, *_window(rng, family), n))
            # Deep draws refine over several quadrature levels and finish;
            # they sit next to the stalling regime, so a stall counts as it.
            for n in SKEW_SAMPLES * 6:
                jobs.append(_skew_family(*_deep_delay(lib, rng), n, STALL))
            jobs.append(_skew_family(known_stall, -math.pi, math.pi, 65, STALL, STALL_DEADLINE))
            jobs.append(_skew_family(_fast_decaying_family(lib, rng), -math.pi, math.pi,
                                     int(rng.choice(SKEW_SAMPLES)), STALL, STALL_DEADLINE))
            for n in PUISEUX_SAMPLES * 4:
                jobs.append(_puiseux(_signed(rng, 0.05, 0.2), _u(rng, 1.5, 5.0), n))
            jobs += [_lambert_batch(_lambert_pairs(rng, 64)) for _ in range(32)]
            for k, order in zip((-2, -1, 0, 1, 2, 3), rng.permutation(SERIES_ORDERS)):
                jobs.append(_solve_series(k, int(order), _u(rng, 0.5, 2.0)))
            yield _shuffled(rng, jobs)

    return warmups, rounds()


def _shuffled(rng, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {"mirror": mirror, "caustic": caustic, "families": families}
