"""Command-line behaviour: parsing, exit codes, deterministic artifacts."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import caustics
from caustics import caustic, cli, inclination, pantograph, quadrature, specfun
from caustics.cli import main, parse_angle, parse_interval
from caustics.caustic import TiltField, caustic_curve
from caustics.csvio import write_curve_csv, write_table
from caustics.errors import ValidationError
from caustics.inclination import AngleInterval, find_cusps, polynomial_curve, reconstruct
from caustics.pantograph import (
    PantographSolution,
    mirror_report,
    parabola_mirror,
    solution_curve,
    solve_series,
)
from caustics.skew import SkewFamilySpec, build_family
from caustics.svg import write_scene


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_literals():
    assert parse_angle("pi") == math.pi
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("-3pi/2") == -3 * math.pi / 2
    assert parse_angle("0.5*pi") == 0.5 * math.pi
    assert parse_angle("1.25") == 1.25
    with pytest.raises(ValidationError):
        parse_angle("pie")
    with pytest.raises(ValidationError):
        parse_angle("")


def test_parse_interval():
    iv = parse_interval("0:2pi", 65)
    assert iv.lo == 0.0 and iv.hi == 2 * math.pi and iv.n_samples == 65
    with pytest.raises(ValidationError):
        parse_interval("0", 65)
    with pytest.raises(ValidationError):
        parse_interval("1:1", 65)


def test_curve_run_writes_deterministic_files(tmp_path, capsys):
    paths = [tmp_path / f"run{i}" for i in (1, 2)]
    for p in paths:
        code, out, err = run_cli(
            capsys,
            "curve",
            "--curve",
            "cycloid:amplitude=1",
            "--interval",
            "0:pi",
            "--samples",
            "65",
            "--out-csv",
            str(p.with_suffix(".csv")),
            "--out-svg",
            str(p.with_suffix(".svg")),
        )
        assert code == 0, err
        assert "curve=cycloid(A=1)" in out
        assert "samples=65" in out
        assert "arclength=2" in out
    first, second = (p.with_suffix(".csv").read_bytes() for p in paths)
    assert first == second
    svg1, svg2 = (p.with_suffix(".svg").read_bytes() for p in paths)
    assert svg1 == svg2
    assert svg1.startswith(b"<?xml")


def test_curve_csv_round_trip(tmp_path, capsys, read_csv):
    path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "curve", "--curve", "circle:radius=1", "--interval", "0:pi",
        "--samples", "33", "--out-csv", str(path),
    )
    assert code == 0
    header, rows = read_csv(path)
    assert header == ("theta", "x", "y", "R", "s")
    again = tmp_path / "again.csv"
    write_table(str(again), header, rows)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("text, curve, label", [
    ("parabola:scale=2", lambda: parabola_mirror(2.0), "parabola(A=2)"),
    ("poly:coefficients=1+pi/4+0.5", lambda: polynomial_curve([1.0, math.pi / 4, 0.5]),
     "poly(1,0.785398,0.5)"),
], ids=["parabola", "poly"])
def test_parabola_and_poly_curves_write_their_reconstruction(tmp_path, capsys, text, curve,
                                                              label):
    path, want = tmp_path / "c.csv", tmp_path / "want.csv"
    code, out, err = run_cli(capsys, "curve", "--curve", text, "--interval", "0.5:2.5",
                             "--samples", "33", "--out-csv", str(path))
    assert code == 0, err
    assert out.splitlines()[:2] == [f"curve={label}", "samples=33"]
    write_curve_csv(want, reconstruct(curve(), AngleInterval(0.5, 2.5, 33)))
    assert path.read_bytes() == want.read_bytes()


def test_curve_svg_reconstructs_the_grid_once(tmp_path, capsys, monkeypatch):
    # The figure draws the grid's own samples; its cusp markers take a second reconstruction
    # over the first node and the cusps only.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(cli, "reconstruct", counted)
    code, _, err = run_cli(
        capsys, "curve", "--curve", "cycloid", "--out-svg", str(tmp_path / "c.svg")
    )
    assert code == 0, err
    curve = cli._build_curve("cycloid")
    grid = cli._default_window(curve)
    cusps = find_cusps(curve, grid)
    assert [args[1] for args in calls] == [grid, [grid.lo, *cusps]]


def _cusps_on_refined_grid(curve, interval):
    """Reference: reconstruct again over the grid plus the cusp angles."""
    cusps = find_cusps(curve, interval)
    samples = reconstruct(curve, np.union1d(interval.grid(), cusps))
    return samples.points[np.searchsorted(samples.theta, cusps)]


@pytest.mark.parametrize("name", ["cycloid", "puiseux"])
def test_curve_cusps_match_refined_grid(tmp_path, capsys, name):
    curve = cli._build_curve(name)
    interval = cli._default_window(curve)
    want = _cusps_on_refined_grid(curve, interval)
    first = reconstruct(curve, interval).theta[0]
    got = reconstruct(curve, [first, *find_cusps(curve, interval)]).points[1:]
    assert len(want) > 0
    assert np.max(np.abs(got - want)) <= 1e-12
    path, ref = tmp_path / "c.svg", tmp_path / "ref.svg"
    code, _, err = run_cli(capsys, "curve", "--curve", name, "--out-svg", str(path))
    assert code == 0, err
    write_scene(ref, mirror=[reconstruct(curve, interval).points], cusps=want)
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("curve, cusps, edges", [
    ("cycloid", 31, []),
    ("poly:coefficients=0.5+-1+0.2", 2, [257, 3]),
], ids=["closed_form", "quadrature"])
def test_curve_cusps_take_the_curves_own_position_path(tmp_path, capsys, monkeypatch, curve,
                                                       cusps, edges):
    # A quadrature curve integrates its grid, then its first node and its cusps.
    calls = []

    def counted(fn, nodes, *args, **kwargs):
        calls.append(len(nodes))
        return quadrature.panel_integrals(fn, nodes, *args, **kwargs)

    monkeypatch.setattr(inclination, "panel_integrals", counted)
    code, _, err = run_cli(capsys, "curve", "--curve", curve, "--interval", "0:100",
                           "--samples", "257", "--out-svg", str(tmp_path / "c.svg"))
    assert (code, err) == (0, "")
    assert calls == edges
    assert (tmp_path / "c.svg").read_text().count("<circle") == cusps


@pytest.mark.parametrize("command", ["curve", "caustic"])
def test_grid_too_narrow_for_its_samples_exits_2(tmp_path, capsys, command):
    csv, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    code, out, err = run_cli(capsys, command, "--curve", "circle", "--interval",
                             "1:1.00000000000000045", "--samples", "9", "--out-csv", str(csv),
                             "--out-svg", str(svg))
    assert (code, out) == (2, "")
    assert err == "error: 9 angles on [1.0, 1.0000000000000004] do not increase\n"
    assert list(tmp_path.iterdir()) == []


def test_pantograph_grid_too_narrow_for_its_samples_exits_2(tmp_path, capsys):
    # The figure's grid passes the gate of `curve` and `caustic`, not a merge of repeated angles.
    code, out, err = run_cli(capsys, "pantograph", "--m", "1", "--interval",
                             "1:1.0000000000000002", "--samples", "3",
                             "--out-csv", str(tmp_path / "d.csv"),
                             "--out-svg", str(tmp_path / "d.svg"))
    assert (code, out) == (2, "")
    assert err == "error: 3 angles on [1.0, 1.0000000000000002] do not increase\n"
    assert list(tmp_path.iterdir()) == []


def test_cusp_bracket_wider_than_half_the_float_range_exits_0_under_warnings_as_errors(
        tmp_path, capsys):
    # R = 1e-300 sin(theta) changes sign once between the two nodes -1.7e308 and -1: the
    # bracket's schedule bound and the sum of two of its ends pass the float range.
    svg = tmp_path / "o.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "curve", "--curve", "cycloid:amplitude=1e-300",
                                 "--samples", "2", "--interval=-1.7e308:-1", "--out-svg", str(svg))
    assert (code, err) == (0, "")
    assert out == ("curve=cycloid(A=1e-300)\nsamples=2\narclength=2.6323375022e-301\n"
                   f"wrote_svg={svg}\n")
    (cusp,) = find_cusps(inclination.cycloid(1e-300), AngleInterval(-1.7e308, -1.0, 2))
    assert -1.7e308 < cusp < -1.0
    assert svg.read_text().count("<circle") == 1


def test_caustic_run_flags_cusps(tmp_path, capsys, read_csv):
    path = tmp_path / "caustic.csv"
    code, out, _ = run_cli(
        capsys,
        "caustic",
        "--curve",
        "cycloid:amplitude=1",
        "--tilt",
        "reflection",
        "--interval",
        "0:pi",
        "--samples",
        "65",
        "--out-csv",
        str(path),
    )
    assert code == 0
    assert "tilt=reflection" in out
    assert "flagged=1" in out  # exact cusp node at theta = 0
    header, _ = read_csv(path)
    assert header == ("theta", "theta1", "x", "y", "R1", "ray_length")


def test_skew_run_reports_residual(capsys):
    code, out, _ = run_cli(
        capsys, "skew", "--case", "point_by_point", "--phi0", "0.4", "--a", "0.8"
    )
    assert code == 0
    residual = float(out.split("residual=")[1].splitlines()[0])
    assert residual < 1e-9


def test_skew_writes_its_mirror_table_and_scene(tmp_path, capsys):
    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    code, _, err = run_cli(capsys, "skew", "--phi0", "0.3", "--samples", "17",
                           "--out-csv", str(csv), "--out-svg", str(svg))
    assert code == 0, err
    curve = build_family(SkewFamilySpec("point_by_point", 0.3, 1.2))
    window = AngleInterval(-math.pi, math.pi, 17)
    caus = caustic_curve(curve, TiltField.skew(0.3), window)
    write_curve_csv(tmp_path / "want.csv", reconstruct(curve, window))
    write_scene(tmp_path / "want.svg", mirror=[caus.source.points], caustic=[caus.points])
    assert csv.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert svg.read_bytes() == (tmp_path / "want.svg").read_bytes()
    assert re.findall(r'<g id="(\w+)"', svg.read_text()) == ["mirror", "caustic"]


def test_skew_delay_with_a_long_shift(capsys):
    # theta - alpha runs over [-30 - pi, pi - 30]; the exponential sums are defined there.
    code, out, err = run_cli(
        capsys, "skew", "--case", "delay", "--phi0", "0.3", "--a", "0.9", "--alpha", "30"
    )
    assert code == 0, err
    residual = float(out.split("residual=")[1].splitlines()[0])
    assert residual <= 1e-9


@pytest.mark.parametrize("argv", [
    ("--phi0", "0.3", "--a", "0.1", "--coefficients", "1:0.5"),
    ("--phi0", "0.3", "--a", "0.29552020666133955"),
], ids=["hyperbolic", "circle"])
def test_skew_inverse_position_off_the_oscillatory_family(capsys, argv):
    code, out, err = run_cli(capsys, "skew", "--case", "inverse_position", *argv)
    assert code == 0, err
    residual = float(out.split("residual=")[1].splitlines()[0])
    assert residual < 1e-12


@pytest.mark.parametrize("argv", [
    ("--case", "inverse_position", "--alpha", "5"),
    ("--case", "point_by_point", "--branches", "3,4", "--coefficients", "1:0,2:0"),
    ("--case", "point_by_point", "--coefficients", "1:5"),
], ids=["inverse_alpha", "point_two_branches", "point_second_amplitude"])
def test_skew_fields_the_case_does_not_use_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "skew", *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: the ")


def test_skew_inverse_position_without_a_real_shift_exits_2(capsys):
    code, out, err = run_cli(capsys, "skew", "--case", "inverse_position", "--phi0", "0.5",
                             "--a=-0.2", "--coefficients", "1:-0.3")
    assert code == 2 and out == ""
    assert "no real shift" in err


def test_skew_delay_normalises_advance(capsys):
    code, out, _ = run_cli(
        capsys,
        "skew",
        "--case",
        "delay",
        "--phi0",
        "0.2",
        "--a",
        "0.9",
        "--alpha",
        "-0.7",
        "--branches",
        "0",
    )
    assert code == 0
    assert "alpha=0.7" in out
    assert "phi0=-0.2" in out
    assert "factor_a=-0.9" in out


def test_pantograph_echoes_exact_factor(tmp_path, capsys, read_csv):
    path = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(
        capsys, "pantograph", "--m", "2", "--order", "12", "--out-csv", str(path)
    )
    assert code == 0
    assert "a=5/16" in out
    assert "is_vertical=false" in out
    assert "collinearity_residual=" in out
    header, rows = read_csv(path)
    assert header == ("n", "a_n")
    assert rows[0][0] == 1.0 and rows[0][1] == 1.0
    assert abs(rows[2][1] - 1.0 / 39.0) < 1e-16


def test_pantograph_resonance_exit_codes(capsys):
    code, _, err = run_cli(capsys, "pantograph", "--m", "-2", "--order", "8")
    assert code == 3
    assert "secondary" in err
    code, out, _ = run_cli(capsys, "pantograph", "--m", "-2", "--order", "8",
                           "--secondary", "0.25")
    assert code == 0
    assert "a=1" in out


def _svg_points(text):
    return np.array(re.findall(r"(-?\d+\.\d+) (-?\d+\.\d+)", text), dtype=float)


def _distance_to_polyline(points, line):
    a, d = line[:-1], np.diff(line, axis=0)
    u = np.clip(((points[:, None] - a) * d).sum(-1) / np.maximum((d * d).sum(-1), 1e-300), 0, 1)
    return np.min(np.linalg.norm(a + u[..., None] * d - points[:, None], axis=-1), axis=1)


def test_pantograph_without_a_report_draws_only_the_mirror(tmp_path, capsys):
    # m = -1 (k = -2) has no mirror report, so its scene is the reconstructed mirror alone.
    path, want = tmp_path / "m.svg", tmp_path / "want.svg"
    code, out, err = run_cli(capsys, "pantograph", "--m", "-1", "--order", "12",
                             "--interval", "0.05:2pi", "--samples", "17", "--out-svg", str(path))
    assert code == 0, err
    assert out.splitlines() == ["m=-1", "k=-2", "a=1", f"wrote_svg={path}"]
    curve = solution_curve(PantographSolution(solve_series(-2, n_max=12)))
    write_scene(want, mirror=[reconstruct(curve, AngleInterval(0.05, 2 * math.pi, 17)).points])
    assert path.read_bytes() == want.read_bytes()
    assert re.findall(r'<g id="(\w+)"', path.read_text()) == ["mirror"]


@pytest.mark.parametrize(
    "m, interval", [("2", "0:2pi"), ("2", "2:4pi"), ("1", "3:4"), ("3", "2:4pi")]
)
def test_pantograph_cusps_sit_on_the_drawn_mirror(tmp_path, capsys, m, interval):
    path = tmp_path / "mirror.svg"
    code, _, err = run_cli(
        capsys, "pantograph", "--m", m, "--interval", interval, "--out-svg", str(path)
    )
    assert code == 0, err
    svg = path.read_text()
    mirror = _svg_points(re.search(r'<g id="mirror".*?</g>', svg, re.S).group(0))
    cusps = np.array(re.findall(r'cx="(-?[\d.]+)" cy="(-?[\d.]+)"', svg), dtype=float)
    zeros = mirror_report(PantographSolution(solve_series(int(m) - 1))).zeros
    lo, hi = (parse_angle(end) for end in interval.split(":"))
    inside = np.array([lo <= z <= hi for z in zeros])
    assert len(cusps) == len(zeros) and inside.any()
    assert np.max(_distance_to_polyline(cusps[inside], mirror)) <= 1.0


def test_series_caustic_continues_each_node_once(capsys, monkeypatch):
    calls = []
    continue_R = pantograph.continue_R

    def counted(solution, theta):
        calls.append(np.size(theta))
        return continue_R(solution, theta)

    monkeypatch.setattr(pantograph, "continue_R", counted)
    code, _, err = run_cli(
        capsys, "caustic", "--curve", "series:k=1", "--tilt", "reflection",
        "--interval", "0.1:3", "--samples", "257",
    )
    assert code == 0, err
    # The doubling law climbs R and R' at the 257 nodes itself; continue_R serves only its
    # quadrature of the series window: the node-jet rule's three inner nodes in each of the
    # 258 cells between the 257 base angles and the seam's w / 2 and w, w = pi/2 - guard.
    assert calls == [3 * 258]


@pytest.mark.parametrize(
    "argv",
    [
        ("pantograph", "--m", "2", "--interval", "0:6pi", "--out-svg", "mirror.svg"),
        ("curve", "--curve", "series:k=1", "--interval", "0:6pi"),
        ("caustic", "--curve", "series:k=1", "--interval", "0:6pi", "--tilt", "reflection"),
    ],
    ids=["pantograph", "curve", "caustic"],
)
def test_series_curves_serve_past_4pi(tmp_path, capsys, monkeypatch, argv):
    # A series curve's domain is the continuation's whole reach, [0, max_theta].
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ("pantograph", "--m", "2", "--order", "60", "--out-csv", "coeffs.csv",
         "--out-svg", "mirror.svg"),
        ("curve", "--curve", "series:k=-3,secondary=0.5", "--interval", "0.5:2pi",
         "--out-csv", "series.csv"),
    ],
)
def test_warm_series_tables_write_the_same_bytes(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(pantograph, "_UNIT_SERIES", {})
    monkeypatch.setattr(specfun, "_TAN_EXACT", [])
    monkeypatch.chdir(tmp_path)
    runs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        runs.append((out, [p.read_bytes() for p in sorted(tmp_path.iterdir())]))
        assert pantograph._UNIT_SERIES and specfun._TAN_EXACT
    assert runs[0] == runs[1]


def test_verify_specfun_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--samples", "200")
    assert code == 0
    assert "FAIL" not in out
    assert "checks=" in out and "failures=0" in out


def test_verify_oracle_suite_rows_are_pinned(capsys):
    # The benchmark's verify job (`_verify_cli` in perfbench/workloads.py)
    # fails unless this suite prints exactly four PASS lines and ends with
    # "checks=4 failures=0".  A new oracle row belongs in a change that also
    # updates that check.
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--samples", "500")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["PASS", "circle_normals_focus_scatter"],
        ["PASS", "semicircle_reflection_hausdorff"],
        ["PASS", "reflection_matches_tilt_field"],
        ["PASS", "step_halving_ratio"],
    ]
    assert lines[-1] == "checks=4 failures=0"


def test_verify_requires_suite(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "suite" in err
    code, _, _ = run_cli(capsys, "verify", "--suite", "everything")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("verify",),
        ("verify", "--suite", "nope"),
        ("curve", "--samples", "x"),
        ("pantograph", "--order", "2.5"),
        ("curve", "--bogus"),
    ],
    ids=["no_subcommand", "no_suite", "unknown_suite", "text_samples", "fractional_order",
         "unknown_option"],
)
def test_argparse_rejections_return_2_through_main(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_negative_seed_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "specfun", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize(
    "phi",
    ["nan", "inf", "-inf", "1" + "0" * 400 + "pi", "pi/0." + "0" * 320 + "1"],
    ids=["nan", "inf", "-inf", "overflowing-multiple", "underflowing-divisor"],
)
def test_non_finite_tilt_is_validation_error(capsys, phi):
    code, out, err = run_cli(
        capsys, "caustic", "--curve", "circle", "--tilt", f"skew:{phi}", "--samples", "5"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith("is not finite")


def test_verify_impossible_tolerance_fails_numerically(capsys):
    # Three rays cannot trace a semicircle's caustic to the Hausdorff row's 1e-3.
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", "--samples", "3")
    assert code == 3
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines if line.startswith("FAIL")] == [
        ["FAIL", "semicircle_reflection_hausdorff"]]
    assert lines[-1] == "checks=4 failures=1"
    assert err == "error: 1 verification check(s) failed\n"


def test_unknown_curve_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "curve", "--curve", "dragon")
    assert code == 2
    assert "error:" in err


def test_bad_angle_literal_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "curve", "--interval", "0:pie")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (("curve", "--interval", "0:pi/0"), "division by zero in angle 'pi/0'"),
    (("curve", "--curve", "series:k=-3,secondary=inf"), "secondary must be finite, got 'inf'"),
    (("curve", "--curve", "circle:radius"), "expected key=value, got 'radius'"),
    (("curve", "--curve", "circle:colour=red"), "curve 'circle' got unknown parameters ['colour']"),
    (("caustic", "--tilt", "sideways"),
     "unknown tilt 'sideways'; use evolute, reflection or skew:<phi>"),
], ids=["zero_divisor", "infinite_secondary", "key_without_value", "unknown_key", "unknown_tilt"])
def test_bad_curve_and_tilt_text_exits_2_and_says_why(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("svg", [False, True], ids=["no_svg", "svg"])
def test_pantograph_bad_window_exits_2_before_any_report(tmp_path, capsys, svg):
    argv = ["pantograph", "--m", "2", "--interval", "foo"]
    if svg:
        argv += ["--out-svg", str(tmp_path / "m.svg")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not (tmp_path / "m.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "--curve", "log_spiral:growth=1000"),
        ("curve", "--curve", "puiseux:c=500"),
        ("caustic", "--curve", "log_spiral:growth=1000"),
    ],
)
def test_overflowing_jet_exits_3_under_warnings_as_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: R is not finite at theta = ")


def test_window_past_the_float_limit_exits_2_under_warnings_as_errors(tmp_path, capsys):
    # The width 2e308 overflows in the linspace; its non-finite nodes do not increase.
    path = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "curve", "--curve", "circle", "--interval=-1e308:1e308",
                                 "--samples", "5", "--out-csv", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 5 angles on [-1e+308, 1e+308] do not increase\n"
    assert not path.exists()


@pytest.mark.parametrize("curve, interval", [("series:k=1", "0.5:2600"), ("series:k=3", "1:1000")])
def test_series_curves_across_many_seams_exit_0(tmp_path, capsys, read_csv, law_gap, curve,
                                                interval):
    # A quadrature of the continued R bisects each cell holding a seam, where the truncated
    # series leaves R a jump, down to rounding width, and misses its budget there; the
    # doubling law integrates the series window only.
    path = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "curve", "--curve", curve, "--interval", interval,
                               "--samples", "9", "--out-csv", str(path))
    assert code == 0, err
    theta, x, y, _, s = read_csv(path)[1].T
    solution = PantographSolution(solve_series(int(curve.split("=")[1])))
    assert law_gap(solution, theta, (x, y, s)) <= 1.0


@pytest.mark.parametrize("curve", ["series:k=-2", "series:k=-3,secondary=0.5"])
def test_series_curves_with_a_pole_take_the_doubling_law(capsys, monkeypatch, curve):
    # One quadrature of the series window: the 129 nodes of [0.5, 2pi] halved into it, with
    # the seam's w / 2 and w, make 131 distinct base angles.
    calls = []

    def counted(fn, edges, *args, **kwargs):
        calls.append(np.size(edges))
        return quadrature.panel_integrals(fn, edges, *args, **kwargs)

    monkeypatch.setattr(inclination, "panel_integrals", counted)
    code, _, err = run_cli(capsys, "curve", "--curve", curve, "--interval", "0.5:2pi",
                           "--samples", "129")
    assert code == 0, err
    assert calls == [131]


@pytest.mark.parametrize("argv", [
    ("--case", "point_by_point", "--a", "1.4", "--interval=-800:800"),
    ("--case", "delay", "--alpha", "1", "--branches", "0,1", "--coefficients", "1:0,1:0.5",
     "--interval=-900:900"),
], ids=["point_by_point", "delay"])
def test_skew_overflowing_jet_exits_3_under_warnings_as_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "skew", *argv, "--samples", "9")
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"error: R, R' or the shifted R is not finite at theta = \S+\n", err), err


def test_skew_delay_with_a_factor_near_the_float_limit(capsys):
    # W_0(1e308) = 702.64...: Halley's step on w e^w - z overflows there, and is taken on
    # w - z e^(-w) instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "skew", "--case", "delay", "--phi0", "0", "--a", "1e308",
                                 "--alpha", "1", "--samples", "3", "--interval=0:0.001")
    assert (code, err) == (0, "")
    assert "branches=0\ncoefficients=1:0\n" in out


@pytest.mark.parametrize("argv, code, message", [
    (("--case", "inverse_position", "--phi0", "0", "--a", "5e-324", "--interval=-0:pi/2",
      "--samples", "2", "--coefficients", "1e5:1e300"), 2,
     "the shift alpha of the inverse-position member A=100000, B=1e+300, a=4.94066e-324, "
     "sin(phi0)=0 exceeds the float range"),
    (("--case", "delay", "--phi0", "-1", "--a", "1e-300", "--interval=1e200:2pi", "--samples",
      "33", "--alpha", "1e16", "--branches", "0", "--coefficients", "2:1e-300"), 3,
     "characteristic residual inf on branch 0 exceeds 1e-10 max(1, |a / cos phi0|) = 1.000e-10"),
], ids=["inverse_position_shift", "delay_residual"])
def test_skew_shift_or_residual_past_the_float_limit_exits_with_one_error_line(
        capsys, argv, code, message):
    # math.ldexp and cmath.exp raise OverflowError there, which main does not catch.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "skew", *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code, message", [
    (("--case", "inverse_position", "--phi0", "0.5", "--a", "1.7e308", "--coefficients",
      "1e-300:0.5", "--interval=-0:1.2", "--samples", "3"), 2,
     "omega of the inverse-position member A=1e-300, B=0.5, a=1.7e+308, sin(phi0)=0.479426 "
     "exceeds the float range"),
    (("--case", "delay", "--phi0", "0.5", "--a", "1e-20", "--alpha", "pi/2", "--branches", "-1",
      "--coefficients", "5e-324:1.7e308", "--interval=-3:0.3", "--samples", "3"), 2,
     "a coefficient of R' of skew_delay(branches=-1, a=1e-20, alpha=1.5708) exceeds the float "
     "range"),
], ids=["inverse_position_omega", "delay_coefficients"])
def test_skew_member_past_the_float_limit_exits_with_one_error_line(capsys, argv, code, message):
    # omega passes the float limit in math.ldexp; B xi and B eta of the delay's R' coefficients
    # overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "skew", *argv) == (code, "", f"error: {message}\n")


def test_pantograph_process_never_imports_numpy_ma(tmp_path):
    # np.union1d and np.unique import numpy.ma on their first call, about 9 ms a process.
    script = ("import sys; from caustics.cli import main; "
              "code = main(['pantograph', '--m', '2', '--out-svg', sys.argv[1]]); "
              "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(caustics.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", script,
                           str(tmp_path / "m.svg")], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "m.svg").is_file()


@pytest.mark.parametrize("argv", [
    ("curve", "--curve", "circle:radius=1e308", "--interval", "0:1"),
    ("skew", "--case", "point_by_point", "--phi0", "0.3", "--a", "1.2",
     "--coefficients", "1e308:0", "--interval=-1:0.05"),
], ids=["circle", "point_by_point"])
def test_radius_near_the_float_limit_takes_the_closed_form(tmp_path, capsys, argv, read_csv):
    # R is finite at every node, and so are the closed-form positions, which the quadrature's
    # node-jet rule could not form.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--samples", "9",
                                 "--out-csv", str(tmp_path / "t.csv"))
    assert (code, err) == (0, "")
    _, table = read_csv(tmp_path / "t.csv")
    assert table.shape == (9, 5) and np.isfinite(table).all()
    assert np.max(np.abs(table[:, 3])) > 1e307


def test_radius_near_the_float_limit_without_a_closed_form_exits_3(capsys):
    # R = 1e308 over the one cell [0, 4]: the arclength 4e308 passes the float limit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "curve", "--curve", "poly:coefficients=1e308",
                                 "--interval", "0:4", "--samples", "2")
    assert (code, out) == (3, "")
    assert err == "error: the integral overflows in the panel at theta = 0.0\n"


@pytest.mark.parametrize("radius", ["9e307", "1e308"])
def test_radius_near_the_float_limit_without_a_closed_form_integrates(tmp_path, capsys, radius,
                                                                      read_csv):
    # Each cell's integral is finite though the node-jet rule's sums of its values are not:
    # the quadrature judges them again scaled down, and agrees with the circle's closed form.
    paths = {}
    for curve in (f"poly:coefficients={radius}", f"circle:radius={radius}"):
        paths[curve] = tmp_path / f"{curve.partition(':')[0]}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "curve", "--curve", curve, "--interval", "0:1",
                                   "--samples", "9", "--out-csv", str(paths[curve]))
        assert (code, err) == (0, "")
    (_, poly), (_, closed) = (read_csv(path) for path in paths.values())
    assert np.isfinite(poly).all()
    assert np.max(np.abs(poly - closed)) <= 1e-15 * float(radius)


def test_series_curve_reads_secondary_coefficient(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--curve", "series:k=-3,secondary=0.5",
        "--interval", "0.5:2pi", "--samples", "129",
    )
    assert code == 0, err
    assert "samples=129" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "--curve", "series:k=abc"),
        ("curve", "--curve", "series:k=-3,secondary="),
        ("curve", "--curve", "series:order=x"),
        ("pantograph", "--m", "-2", "--secondary", "abc"),
        ("skew", "--a", "abc"),
        ("skew", "--coefficients", "1:abc"),
        ("curve", "--interval="),
    ],
)
def test_bad_numeric_text_is_validation_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "--samples", "x"),
        ("pantograph", "--m", "x"),
        ("pantograph", "--order", "2.5"),
        ("verify", "--suite", "specfun", "--samples", "x"),
        ("verify", "--suite", "specfun", "--seed", "x"),
    ],
)
def test_bad_integer_text_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: argument --")
    assert err.rstrip().endswith(f"invalid int value: {argv[-1]!r}")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert caustics.__version__ == tomllib.load(fh)["project"]["version"]


_ADDRESS_CAP = 2 << 30  # bytes of address space for a child CLI process


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_CAP, _ADDRESS_CAP))


def run_cli_process(*argv, cap=False):
    """Run ``python -m caustics`` in a fresh process, optionally address-capped."""
    env = dict(os.environ, COLUMNS="80")
    paths = [str(Path(caustics.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-m", "caustics", *argv], capture_output=True, text=True,
        env=env, timeout=120, preexec_fn=_cap_address_space if cap else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


# R = e^theta to 1e-10 of its size on [0, 12]: its Taylor polynomial to degree 40, which
# reconstruct integrates by quadrature, where the stock log spiral takes its closed form.
_EXP_POLY = "poly:coefficients=" + "+".join(repr(1 / math.factorial(k)) for k in range(41))


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "--curve", "log_spiral", "--interval", "0:12", "--samples", "1025"),
        ("curve", "--curve", "log_spiral", "--interval", "0:12", "--samples", "65537"),
        ("curve", "--curve", "parabola"),
        ("pantograph", "--m", "-2", "--secondary", "0.25", "--out-svg", "m.svg"),
        ("curve", "--curve", _EXP_POLY, "--interval", "0:12", "--samples", "1025"),
        ("curve", "--curve", _EXP_POLY, "--interval", "0:12", "--samples", "65537"),
    ],
)
def test_steep_profiles_finish_or_fail_cleanly_under_memory_cap(tmp_path, argv, read_csv):
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    spiral = argv[2] in ("log_spiral", _EXP_POLY)
    if spiral:
        argv += ["--out-csv", str(tmp_path / "spiral.csv")]
    code, _, err = run_cli_process(*argv, cap=True)
    assert "Traceback" not in err
    assert code == 0 or (code == 3 and err.startswith("error:")), err
    if spiral:
        _, rows = read_csv(tmp_path / "spiral.csv")
        t, x, y = np.asarray(rows)[:, :3].T
        want_x = np.exp(t) * (np.cos(t) + np.sin(t)) / 2 - 0.5
        want_y = np.exp(t) * (np.sin(t) - np.cos(t)) / 2 + 0.5
        scale = np.maximum(1.0, np.hypot(want_x, want_y))
        assert np.max(np.hypot(x - want_x, y - want_y) / scale) <= 1e-9


def test_too_wide_a_window_fails_cleanly_under_memory_cap():
    # One cell of a million radians: refinement reaches the panel cap, not the address cap.
    # A constant polynomial has no closed form in reconstruct, so its positions take the
    # quadrature; the stock circle and cycloid would not.
    code, _, err = run_cli_process(
        "curve", "--curve", "poly:coefficients=1", "--interval", "0:1e6", "--samples", "2",
        cap=True,
    )
    assert "Traceback" not in err
    assert code == 3 and err.startswith("error:") and "panels" in err, err


def test_pantograph_svg_reconstructs_once(tmp_path, capsys, monkeypatch):
    # The report reconstructs its grid once and the figure its window once, so that the
    # drawn caustic is the reflection caustic of the drawn mirror, on the same samples; both
    # take the doubling law.
    sizes, laws = [], []
    law = pantograph._doubling_law

    def counted(*args, **kwargs):
        samples = reconstruct(*args, **kwargs)
        sizes.append(len(samples))
        return samples

    def counted_law(curve, theta):
        laws.append(theta.size)
        return law(curve, theta)

    for module in (cli, caustic, pantograph):
        monkeypatch.setattr(module, "reconstruct", counted)
    monkeypatch.setattr(pantograph, "_doubling_law", counted_law)
    code, _, err = run_cli(
        capsys, "pantograph", "--m", "2", "--samples", "513",
        "--out-svg", str(tmp_path / "mirror.svg"),
    )
    assert code == 0, err
    assert sizes == [2060, 513]
    assert laws == [2060, 513]


# (calls, doublings) of _climb_chains in `pantograph --m M --order N --samples 257 --out-svg`.
MIRROR_CLIMBS = {("1", "30"): (9, 5889), ("1", "60"): (9, 5889), ("2", "30"): (10, 6060),
                 ("2", "60"): (10, 6060), ("3", "30"): (10, 6069), ("3", "60"): (10, 6069)}


@pytest.mark.parametrize("m", ["1", "2", "3"])
@pytest.mark.parametrize("order", ["30", "60"])
def test_mirror_quadrature_does_not_chase_truncation_jumps(tmp_path, capsys, monkeypatch, m, order):
    # Every continuation, from continue_R or from the doubling law, climbs through
    # _climb_chains, which doubles each angle to its depth.  The report and the figure
    # integrate only the series window, so no cell holds a seam; a return to quadrature of
    # the continued R makes 6 900-7 130 doublings in 9-12 calls, and bisects each seam's cell.
    calls, doublings = [], []
    climb = pantograph._climb_chains

    def counted(series, u, depth, levels):
        calls.append(1)
        doublings.append(int(depth.sum()))
        return climb(series, u, depth, levels)

    monkeypatch.setattr(pantograph, "_climb_chains", counted)
    code, _, err = run_cli(
        capsys, "pantograph", "--m", m, "--order", order, "--samples", "257",
        "--out-svg", str(tmp_path / "mirror.svg"),
    )
    assert code == 0, err
    assert (len(calls), sum(doublings)) == MIRROR_CLIMBS[m, order]


def test_reused_parser_matches_fresh_processes(capsys):
    argvs = [("curve",), ("curve", "--samples", "x"), ("verify", "--suite", "specfun")]
    for argv in argvs:
        assert run_cli(capsys, *argv) == run_cli_process(*argv)
    assert cli.build_parser() is cli.build_parser()
