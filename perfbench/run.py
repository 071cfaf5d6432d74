"""Benchmark of the ``caustics`` library and CLI: one workload per process.

    python3 perfbench/run.py --workload mirror --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One closed-loop client issues each job only after the previous
one returned; the process starts no threads (BLAS is pinned to one) and
every job runs under a deadline and an address-space cap.

With ``--trace 0`` the run sets up, replays whole rounds of the workload's
seeded job stream until ``--seconds`` have passed, checks every answer, and
reports the ``end_to_end`` metrics of ``BENCHMARK.json``.  Set-up is timed
from process start, in this process and in ``SETUP_PROBES`` fresh ones that
only set up, after the timed phase; ``setup_s`` is the median.  With
``--trace 1`` it runs whole rounds with every listed layer wrapped and
reports the ``per_layer`` metrics of the first round.

Times are calibrated seconds: wall seconds scaled by the host's speed, as
a fixed reference loop run during the jobs or after set-up measures it
(see ``harness.reference_loop``).  Wall-clock throughput is printed beside.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when any answer was wrong
or any job failed that is not marked as exposing a known defect; jobs that
do expose one still count in ``failed``.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import harness

for _var in harness.BLAS_ENV:
    os.environ[_var] = str(min(harness.BLAS_THREADS, os.cpu_count() or 1))

import workloads  # noqa: E402  (imports numpy after the BLAS pinning)
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2
"""Fresh processes that only set up, so that setup_s is a median of cold set-ups."""
ADDRESS_SPACE_CAP = 2 << 30
"""Bytes of address space; a job that tries to grow past it gets MemoryError."""
P90_MIN_JOBS = 100
SAMPLE_EVERY_S = 0.2
"""CPU seconds between runs of the reference loop, which takes about 5 ms."""
SETUP_REFERENCES = 20


def _cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def set_up(workload: str, seed: int, work: Path):
    """Import the library, generate the jobs, warm up each job kind.  The
    time counts from process start and is calibrated by the median of
    ``SETUP_REFERENCES`` reference loops run after it."""
    lib = harness.load_library(ROOT / "src")
    warmups, rounds = workloads.WORKLOADS[workload](lib, work, seed)
    first = next(rounds)
    for job in warmups:
        harness.run_job(job, lib)
    wall = time.perf_counter() - PROCESS_START
    reference = statistics.median(harness.reference_loop() for _ in range(SETUP_REFERENCES))
    return wall * harness.REFERENCE_S / reference, lib, first, rounds


def probe_setups(args) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh processes, one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.splitlines()[-1].partition("=")[2]))
    return times


def play(rounds, first, lib, seconds: float, speed: harness.HostSpeed):
    """Whole rounds, back to back, until ``seconds`` of wall time have passed;
    yields the outcomes of each round.  ``speed`` samples the host throughout."""
    start, current = time.perf_counter(), first
    with speed.sampling(SAMPLE_EVERY_S):
        while True:
            yield [harness.run_job(job, lib, speed) for job in current]
            if time.perf_counter() - start >= seconds:
                return
            current = next(rounds)


def throughput(outcomes, scale: float) -> tuple[float, float, float]:
    """Jobs per calibrated busy second, jobs per wall busy second, and the
    share of wall busy time left out: known-defect jobs cut at their
    deadline, whose time the clock sets."""
    kept = [o for o in outcomes if not (o.status == "deadline" and o.known_defect is not None)]
    busy = sum(o.seconds for o in kept)
    cut_s = sum(o.seconds for o in outcomes) - busy
    return len(kept) / (busy * scale), len(kept) / busy, cut_s / (busy + cut_s)


def percentile(outcomes, q: float, scale: float) -> float:
    """Nearest-rank percentile of calibrated job latency; failed jobs rank
    as slowest."""
    ranked = sorted(outcomes, key=lambda o: (not o.passed, o.seconds))
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)].seconds * scale


def verdict(outcomes) -> tuple[bool, int]:
    wrong = any(o.status == "wrong" for o in outcomes)
    unexpected = any(not o.passed and o.known_defect is None for o in outcomes)
    return not (wrong or unexpected), sum(not o.passed for o in outcomes)


def report_kinds(outcomes) -> None:
    seconds, count = Counter(), Counter()
    for o in outcomes:
        seconds[o.kind] += o.seconds
        count[o.kind] += 1
    for kind in sorted(count):
        print(f"kind {kind} jobs={count[kind]} busy_s={seconds[kind]:.3f}")


def report_failures(outcomes) -> None:
    groups = Counter((o.kind, o.status, o.known_defect) for o in outcomes if not o.passed)
    first = {}
    for o in outcomes:
        first.setdefault((o.kind, o.status, o.known_defect), o.detail)
    for (kind, status, defect), count in sorted(groups.items(), key=str):
        line = f"failures kind={kind} status={status} count={count} known_defect={json.dumps(defect)}"
        print(line + f" first={json.dumps(first[(kind, status, defect)])}")
        if defect is None:
            print(line, file=sys.stderr)


def emit(outcomes, names_units, values) -> None:
    correct, failed = verdict(outcomes)
    metrics = {}
    for name, unit in names_units:
        value = values[name]
        metrics[name] = {"value": int(value) if unit in ("count", "bytes") else float(value), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))


def untraced_run(args, bench, work: Path) -> None:
    setup, lib, first, rounds = set_up(args.workload, args.seed, work)
    speed = harness.HostSpeed()
    outcomes = [o for played in play(rounds, first, lib, args.seconds, speed) for o in played]
    setups = [setup] + probe_setups(args)
    scale = speed.scale()
    jobs_per_s, wall_jobs_per_s, cut_share = throughput(outcomes, scale)
    values = {
        "jobs_per_s": jobs_per_s,
        "job_p50_s": percentile(outcomes, 0.5, scale),
        "failed_frac": verdict(outcomes)[1] / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    print(f"env {json.dumps(harness.environment(ROOT))}")
    print(f"run workload={args.workload} seed={args.seed} trace=0 jobs={len(outcomes)} "
          f"wall_jobs_per_s={wall_jobs_per_s:.4f} host_scale={scale:.4f} "
          f"host_samples={len(speed.samples)} cut_busy_share={cut_share:.4f}")
    report_kinds(outcomes)
    report_failures(outcomes)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(job_p50_s="s", job_p90_s="s", failed_frac="ratio")
    if len(outcomes) >= P90_MIN_JOBS:
        values["job_p90_s"] = percentile(outcomes, 0.9, scale)
    for name, value in values.items():
        print(f"{name}={value!r} {units.get(name, '')}")
    if "job_p90_s" in values:
        print(f"job_p90_s samples={len(outcomes)}")
    else:
        print(f"job_p90_s undefined: {len(outcomes)} jobs < {P90_MIN_JOBS}")
    print(f"setup_s repeats={json.dumps(setups)}")
    emit(outcomes, [(m["name"], m["unit"]) for m in bench["end_to_end"]], values)


def traced_run(args, bench, work: Path) -> None:
    """Every job runs traced.  Layer metrics come from the first round, so
    their work counts do not depend on how many rounds fit the time.  Self
    times are wall times and include the host-speed samples taken inside
    a span, a few percent spread evenly over time."""
    _, lib, first, rounds = set_up(args.workload, args.seed, work)
    tracer, traced, layers, speed = Tracer(), [], None, harness.HostSpeed()
    with tracer.installed(lib):
        for played in play(rounds, first, lib, args.seconds, speed):
            traced += played
            if layers is None:
                layers = tracer.metrics()
    jobs_per_s, wall_jobs_per_s, _ = throughput(traced, speed.scale())
    print(f"env {json.dumps(harness.environment(ROOT))}")
    print(f"run workload={args.workload} seed={args.seed} trace=1 jobs={len(traced)} "
          f"wall_jobs_per_s={wall_jobs_per_s:.4f}")
    # Compared by suite.py with the untraced run of the same seed.
    print(f"jobs_per_s={jobs_per_s!r} 1/s")
    report_failures(traced)
    names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    # A layer the workload never called reports zero calls, work and time.
    emit(traced, names, {name: layers.get(name, 0.0) for name, _ in names})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bench = harness.load_benchmark(ROOT)
        _cap_address_space()
        harness.install_alarm()
        work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            if args.setup_only:
                print(f"setup_s={set_up(args.workload, args.seed, work)[0]!r}")
            else:
                (traced_run if args.trace else untraced_run)(args, bench, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
