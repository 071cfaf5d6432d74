"""Shared fixtures: the continued mirror profiles are expensive, build once;
CSV tables written by the library are read back cell by cell; positions of a
continued mirror are held to the doubling law's accuracy gate."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from caustics import inclination, pantograph
from caustics.pantograph import (
    BASE_GUARD,
    JET_ORDER,
    PantographSolution,
    continue_R,
    mirror_report,
    solve_series,
)


def pytest_configure(config):
    config._suite_started = time.monotonic()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.monotonic() - config._suite_started
    terminalreporter.write_line(
        f"suite wall time: {elapsed:.1f}s (budget 120s)"
    )


@pytest.fixture(scope="session")
def cycloid_solution():
    return PantographSolution(solve_series(0, n_max=30))


@pytest.fixture(scope="session")
def m2_solution():
    return PantographSolution(solve_series(1, n_max=30))


@pytest.fixture(scope="session")
def m3_solution():
    return PantographSolution(solve_series(2, n_max=30))


@pytest.fixture(scope="session")
def cycloid_report(cycloid_solution):
    return mirror_report(cycloid_solution)


@pytest.fixture(scope="session")
def m2_report(m2_solution):
    return mirror_report(m2_solution)


@pytest.fixture(scope="session")
def m3_report(m3_solution):
    return mirror_report(m3_solution)


def _read_csv(path):
    """Header and float rows of a CSV table; a ragged row fails the test."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = tuple(lines[0].split(","))
    cells = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(cells, start=2):
        assert len(row) == len(header), f"{path}: line {number} has {len(row)} cells"
    rows = np.array([[float(cell) for cell in row] for row in cells], dtype=float)
    return header, rows.reshape(len(cells), len(header))


@pytest.fixture
def read_csv():
    return _read_csv


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


SEAMS = (math.pi / 2 - BASE_GUARD) * 2.0 ** np.arange(JET_ORDER)
"""The doubling seams 2^j (pi/2 - guard), where the truncated series leaves R a jump."""


def _law_gap(solution, theta, xys):
    """The largest gap between rows ``xys`` (x, y, arclength from 0 at the first of the increasing
    ``theta``) of ``solution_curve(solution)`` and the quadrature of the continued R
    (``inclination._integrate``) with its cells split at each seam inside, over the doubling
    law's accuracy gate ``RECONSTRUCT_TOL + 32 (d + 1) eps max|x, y, s|``, d the deepest
    doubling level.  A split cell ends one float past its seam, so no cell holds a jump but
    those one float wide."""
    seams = SEAMS[(SEAMS > theta[0]) & (SEAMS < theta[-1])]
    grid = np.union1d(theta, np.concatenate([seams, np.nextafter(seams, np.inf)]))
    r, rp = continue_R(solution, grid)
    ref = inclination._integrate(lambda t: continue_R(solution, t), grid, r, rp)
    got = np.stack(xys)
    depth = int(pantograph._depth(solution, theta).max())
    gate = inclination.RECONSTRUCT_TOL + 32 * (depth + 1) * np.finfo(float).eps * np.max(
        np.abs(got))
    return float(np.max(np.abs(got - ref[:, np.searchsorted(grid, theta)])) / gate)


@pytest.fixture
def law_gap():
    return _law_gap
