"""The verify table: its rows, the room its bounds leave, its sweep and order rows, and a
closed stdout."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from caustics import specfun, verify
from caustics.cli import main
from caustics.errors import ValidationError
from caustics.skew import SkewFamilySpec, implied_alpha

SRC = Path(__file__).resolve().parents[1] / "src"

ALL_ROWS = [
    "circle_normals_focus_scatter",
    "semicircle_reflection_hausdorff",
    "reflection_matches_tilt_field",
    "step_halving_ratio",
    "pantograph_residual_cycloid",
    "pantograph_residual_m2",
    "skew_point_residual",
    "skew_inverse_residual",
    "skew_delay_residual",
    "frenet_circle_residual",
    "reconstruct_exact_gap",
    "lambert_residual_sweep",
    "tan_series_at_1",
    "zeta_2",
    "zeta_10",
]

# Rows that read exactly 0, with the closed form each is measured against.
ZERO_REFERENCES = {"zeta_2": math.pi**2 / 6.0, "zeta_10": math.pi**10 / 93555.0}


def test_verify_all_rows_are_pinned(capsys):
    code = main(["verify", "--suite", "all"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name] for name in ALL_ROWS]
    assert lines[-1] == "checks=15 failures=0"


def test_every_bound_sits_within_100x_of_its_value():
    # At the CLI defaults (2 000 samples, seed 0), so a regression of 100x fails.
    # The Hausdorff row's bound is the constant 1e-3, not a measured one, and the exact-gap
    # row's is 1, the error bound reconstruct's quadrature states.
    rows = verify.run("all", 2000, 0)
    assert {name for name, value, _, _ in rows if value == 0} == set(ZERO_REFERENCES)
    assert {name for name, _, _, draw in rows if draw is not None} == {
        "lambert_residual_sweep", "reconstruct_exact_gap"}
    for name, value, bound, _ in rows:
        if name == "semicircle_reflection_hausdorff":
            assert value <= bound == 1e-3
        elif name == "reconstruct_exact_gap":
            assert value <= bound == 1.0
        elif value == 0:
            assert bound <= 4 * math.ulp(ZERO_REFERENCES[name]), name
        else:
            assert value <= bound <= 100 * value, (name, value, bound)


def test_every_row_passes_at_every_size_for_seeds_0_to_9(capsys):
    # The benchmark's verify jobs run 500-2000 samples; 4001 is the reflection row's floor.
    for samples in (500, 1000, 2000, 4001):
        for seed in range(10):
            argv = ["verify", "--suite", "all", "--samples", str(samples), "--seed", str(seed)]
            code = main(argv)
            lines = capsys.readouterr().out.splitlines()
            assert code == 0, (argv, lines)
            assert all(re.fullmatch(r"PASS  \w+ +value=\S+  bound=\S+", line)
                       for line in lines[:-1]), (argv, lines)
            assert lines[-1] == f"checks={len(ALL_ROWS)} failures=0", argv


def test_a_failing_sweep_prints_a_draw_that_reruns_to_its_value(capsys, monkeypatch):
    lambert_w = specfun.lambert_w
    monkeypatch.setattr(specfun, "lambert_w", lambda k, z: lambert_w(k, z) * (1 + 1e-10))
    code = main(["verify", "--suite", "all", "--samples", "2000", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    fails = [line for line in lines if not line.startswith("PASS  ")]
    assert fails[1:] == ["checks=15 failures=1"]
    printed = re.fullmatch(r"FAIL  lambert_residual_sweep +value=(\S+)  bound=1\.0e-13  "
                           r"draw=(\d+) params=(.+)", fails[0])
    index, params = int(printed[2]), ast.literal_eval(printed[3])
    value = verify._lambert_residual(params, 2000)
    assert f"{value:.3e}" == printed[1]
    # The row's value is that draw's measure, and the draw is the seed's draw at that index.
    assert [(value, (index, params))] == [
        (row_value, draw) for name, row_value, _, draw in verify.run("specfun", 2000, 3)
        if name == "lambert_residual_sweep"]
    rng = np.random.default_rng(3)
    assert [verify._lambert_draw(rng) for _ in range(index + 1)][-1] == params


def test_sweep_skips_rejected_draws_and_reports_the_first_worst():
    # Seed 7 draws 9, 6, 6, 8, 5, 7, 8, 2, 0, 3, 2, 8, 9, 0, 4, 8, 1, ... from 0-9; multiples
    # of 3 are rejected, and x % 5 first reaches its largest value, 4, at draw 14 (x = 4).
    def draw(rng):
        x = int(rng.integers(0, 10))
        return None if x % 3 == 0 else x

    check = verify._sweep(draw, lambda x, n: x % 5 / n, lambda n: 4 * n)
    assert check(10, 7) == (0.4, (14, 4))
    # A NaN measure is the worst draw, so the row fails: the first x = 7 is draw 5.
    value, worst = verify._sweep(draw, lambda x, n: math.nan if x == 7 else x, lambda n: 40)(1, 7)
    assert math.isnan(value) and worst == (5, 7)


def test_order_row_divides_the_measure_at_two_step_sizes():
    check = verify._order(lambda m: 1.0 / m**2, lambda n: n // 2)
    assert check(2000, 0) == (1.0 / 1000**2) / (1.0 / 500**2) == 0.25


def test_oracle_bounds_grow_with_the_sample_count():
    bounds = {name: bound for _, name, _, bound in verify.TABLE}
    for name in ("circle_normals_focus_scatter", "reflection_matches_tilt_field"):
        assert bounds[name](8002) == 2 * bounds[name](4001)


def test_equation_alpha_follows_the_case():
    pair = ((1.0, 0.5),)
    assert SkewFamilySpec("point_by_point", 0.3, 1.2).equation_alpha() == 0.0
    with pytest.raises(ValidationError, match="alpha = 0"):
        SkewFamilySpec("point_by_point", 0.3, 1.2, alpha=2.0)
    assert SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=pair).equation_alpha() == (
        implied_alpha(1.0, 0.5, 1.2, 0.3))
    # An advance problem is stored in delay form: alpha = -2 becomes 2.
    assert SkewFamilySpec("delay", 0.3, 0.9, alpha=-2.0).equation_alpha() == 2.0


def test_closed_stdout_exits_141_without_a_traceback():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "caustics", "curve", "--samples", "5"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
