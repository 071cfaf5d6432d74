"""The verify table: its rows, the room its bounds leave, and a closed stdout."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from caustics import verify
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
    assert lines[-1] == "checks=14 failures=0"


def test_every_bound_sits_within_100x_of_its_value():
    # At the CLI defaults (2 000 samples, seed 0), so a regression of 100x fails.
    # The Hausdorff row's bound is the constant 1e-3, not a measured one.
    rows = verify.run("all", 2000, 0)
    assert {name for name, value, _ in rows if value == 0} == set(ZERO_REFERENCES)
    for name, value, bound in rows:
        if name == "semicircle_reflection_hausdorff":
            assert value <= bound == 1e-3
        elif value == 0:
            assert bound <= 4 * math.ulp(ZERO_REFERENCES[name]), name
        else:
            assert value <= bound <= 100 * value, (name, value, bound)


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
