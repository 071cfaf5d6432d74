"""Job model, deadline runner, library loading and environment record.

A job is one call a user of ``caustics`` would make: a ``caustics.cli.main``
invocation or a short sequence of public library calls.  The runner gives
each job a deadline (``SIGALRM``), times only the call itself, and then
checks the returned answer outside the timed region.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

LIB_MODULES = (
    "caustic",
    "cli",
    "csvio",
    "errors",
    "inclination",
    "oracle",
    "pantograph",
    "quadrature",
    "skew",
    "specfun",
    "svg",
)

BLAS_THREADS = 1
"""One closed-loop client: the process starts no threads, BLAS included."""

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class JobDeadline(BaseException):
    """Raised by the alarm handler when a job overruns its deadline.

    It derives from ``BaseException`` so that no ``except Exception`` in
    the library can swallow it.
    """


class UnexpectedExit(Exception):
    """A CLI job returned an exit status other than 0."""


def _on_alarm(signum, frame):
    raise JobDeadline()


@dataclass
class Job:
    """One unit of work of a workload.

    ``call(lib)`` performs the timed work and returns what ``check`` needs;
    ``check(lib, result)`` returns ``None`` when the answer is right and a
    reason otherwise.  ``error_passes`` accepts a ``CausticsError`` raised
    before the deadline as a pass.  ``known_defect`` names the documented
    defect a job exposes; such a job still counts as failed when it fails.
    """

    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    deadline: float
    known_defect: str | None = None
    error_passes: bool = False


@dataclass
class Outcome:
    kind: str
    seconds: float
    status: str  # "pass", "wrong", "error" or "deadline"
    detail: str
    known_defect: str | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


REFERENCE_S = 0.0017
"""Seconds ``reference_loop`` takes where calibrated seconds equal wall
seconds: about its time during the jobs on a 2-core Intel Xeon host."""
REFERENCE_REPEATS = 3


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work, the
    fastest of ``REFERENCE_REPEATS`` passes, so that caches a job left cold
    do not count.

    The host's speed drifts: the same call can take 1.8 times as long from
    one 5-s window to the next, with no steal time.  Scaling wall time by
    ``REFERENCE_S`` over this loop's time during it cancels most of that
    drift, and no library change can alter the loop.
    """
    import numpy as np

    fastest = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0.0
        for i in range(1, 6000):
            total += math.sqrt(i) * 0.5
        [complex(i, total) for i in range(2000)]
        grid = np.linspace(0.0, 1.0, 40000)
        (np.sin(grid) * grid).sum()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


class HostSpeed:
    """The host's speed over a stretch of work, sampled from inside it.

    While ``sampling`` is active, ``SIGPROF`` runs ``reference_loop`` after
    every ``every`` seconds of process CPU time, in the middle of a job too,
    so a job of many seconds is calibrated by the speed during it.
    ``paused`` is the wall time the samples took; ``run_job`` leaves it out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        try:
            self.samples.append(reference_loop())
        finally:
            self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self, every: float):
        self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self) -> float:
        """Calibrated seconds per wall second; each sample stands for the
        same CPU time, so their mean weights the stretch evenly."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def run_job(job: Job, lib, speed: HostSpeed | None = None) -> Outcome:
    """Run one job under its deadline; time the call, then check it.  The
    time ``speed`` spent sampling during the call is not counted."""
    paused = speed.paused if speed else 0.0
    start = time.perf_counter()
    returned = False
    try:
        signal.setitimer(signal.ITIMER_REAL, job.deadline)
        try:
            result = job.call(lib)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        returned = True
        status, detail = "pass", ""
    except JobDeadline:
        status, detail = "deadline", f"overran {job.deadline:g} s"
    except lib.errors.CausticsError as exc:
        status = "pass" if job.error_passes else "error"
        detail = f"{type(exc).__name__}: {exc}"
    except UnexpectedExit as exc:
        status, detail = "error", str(exc)
    except Exception as exc:  # any other raise is a failed job, reported below
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start - ((speed.paused - paused) if speed else 0.0)
    if returned:
        try:
            reason = job.check(lib, result)
        except Exception as exc:  # a check that cannot read the answer rejects it
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            status, detail = "wrong", reason
    return Outcome(job.kind, seconds, status, detail, job.known_defect)


@dataclass
class CliResult:
    stdout: str

    def fields(self) -> dict[str, str]:
        """The ``key=value`` summary lines of stdout."""
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition("=")
            if sep and " " not in key:
                out[key] = value
        return out


def call_cli(lib, argv: list[str]) -> CliResult:
    """``caustics.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    if code != 0:
        raise UnexpectedExit(f"exit {code}: {err.getvalue().strip()[:200]}")
    return CliResult(out.getvalue())


def load_library(src: Path):
    """Import ``caustics`` and ``caustics.cli`` from ``src``; the result
    exposes each module by its short name."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("caustics")
    importlib.import_module("caustics.cli")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"caustics was imported from {origin}, not from {src}")
    return SimpleNamespace(
        package=package, **{name: sys.modules[f"caustics.{name}"] for name in LIB_MODULES}
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text(encoding="ascii").strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def environment(root: Path) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def load_benchmark(root: Path) -> dict[str, Any]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
