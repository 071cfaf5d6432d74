"""Shared fixtures: the continued mirror profiles are expensive, build once;
CSV tables written by the library are read back cell by cell."""

import time
from pathlib import Path

import numpy as np
import pytest

from caustics.pantograph import PantographSolution, mirror_report, solve_series


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
