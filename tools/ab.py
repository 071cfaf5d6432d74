"""Compare this tree's library with REF's under the same benchmark, in alternating pairs.

    python tools/ab.py REF                                   # 10 pairs of each workload
    python tools/ab.py REF --workloads families --pairs 10 --seconds 8 --seeds 1001-1010

The script extracts REF with ``git archive`` and builds two run directories, ``a`` (this tree)
and ``b`` (REF).  Each holds a copy of this tree's ``perfbench/`` and ``BENCHMARK.json`` beside
its own tree's ``src/``, so only the library differs.  Pair i runs seed A + i of a workload once
in each directory, each run a fresh ``perfbench/run.py`` process; this tree runs first in the
even pairs and REF in the odd ones.

Per workload it prints the median and quartiles of ``jobs_per_s`` on both sides, the pairs this
tree won (higher ``jobs_per_s``), the medians of ``peak_rss_mb`` and ``setup_s``, and whether
every run read ``correct: true`` with 0 failed.  The last line of stdout is one JSON record:
REF, the seeds, the bytecode setting and every run's metrics.  It exits 1 if a run fails or
reads incorrect.  Needs git and nothing outside the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import extract

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("families", "mirror", "caustic")
METRICS = ("jobs_per_s", "peak_rss_mb", "setup_s")


def _seeds(text: str) -> tuple[int, int]:
    first, _, last = text.partition("-")
    return int(first), int(last or first)


def _side(work: Path, name: str, src: Path) -> Path:
    """A run directory: this tree's benchmark beside ``src``."""
    side = work / name
    side.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    shutil.copytree(ROOT / "perfbench", side / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", side)
    shutil.copytree(src, side / "src", ignore=ignore)
    return side


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metrics, ``correct`` and ``failed``, or its error."""
    argv = [sys.executable, str(side / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(workload: str, pairs: list[dict]) -> tuple[list[str], bool]:
    """The report lines of one workload's pairs, and whether every run was correct."""
    runs = [run for pair in pairs for run in (pair["a"], pair["b"])]
    if any("error" in run for run in runs):
        return [f"{workload}: " + next(run["error"] for run in runs if "error" in run)], False
    lines = []
    for side, label in (("a", "this tree"), ("b", "ref")):
        q1, median, q3 = _quartiles([pair[side]["jobs_per_s"] for pair in pairs])
        rss, setup = (statistics.median(pair[side][name] for pair in pairs)
                      for name in ("peak_rss_mb", "setup_s"))
        lines.append(f"{workload} {label:9}  jobs_per_s median {median:.2f} "
                     f"(quartiles {q1:.2f}-{q3:.2f})  peak_rss_mb {rss:.2f}  setup_s {setup:.3f}")
    won = sum(pair["a"]["jobs_per_s"] > pair["b"]["jobs_per_s"] for pair in pairs)
    correct = all(run["correct"] and run["failed"] == 0 for run in runs)
    lines.append(f"{workload} this tree won {won} of {len(pairs)} pairs; "
                 f"{'all runs correct, 0 failed' if correct else 'SOME RUNS INCORRECT OR FAILED'}")
    return lines, correct


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seeds", type=_seeds, default=(1001, 1001), help="A-B: pair i runs A + i")
    opts = parser.parse_args(args)
    workloads = opts.workloads.split(",")
    first, last = opts.seeds
    if last != first and last - first + 1 != opts.pairs:
        parser.error(f"--seeds {first}-{last} is not {opts.pairs} seeds")
    record = {"ref": opts.ref, "seconds": opts.seconds, "seeds": [first, first + opts.pairs - 1],
              "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        work = Path(scratch)
        error = extract(opts.ref, work / "ref")
        if error:
            print(error, file=sys.stderr)
            return 2
        sides = {"a": _side(work, "a", ROOT / "src"), "b": _side(work, "b", work / "ref" / "src")}
        for workload in workloads:
            pairs = []
            for i in range(opts.pairs):
                order = ("a", "b") if i % 2 == 0 else ("b", "a")
                pair = {side: _run(sides[side], workload, first + i, opts.seconds)
                        for side in order}
                pairs.append({"seed": first + i, "first": order[0], **pair})
            lines, correct = summary(workload, pairs)
            ok &= correct
            print("\n".join(lines), flush=True)
            record["workloads"][workload] = pairs
    print(json.dumps(record))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
