"""Run every workload, each in its own fresh process, and print one table.

    python3 perfbench/suite.py                    # one run of each workload
    python3 perfbench/suite.py --seeds 1,2,3,4,5 --sets 2 --trace

Each run is ``run.py`` in a new process, so ``peak_rss_mb`` and ``setup_s``
belong to one workload.  The table gives, per workload and metric, the
median over the seeds and the spread (interquartile range over median).
With ``--sets 2`` the same seeds run twice and the table says whether the
two medians agree within the metric's bound in ``BENCHMARK.json``; with
``--trace`` one traced run per workload and set (first seed) also checks
that every work count repeats exactly, and gives the tracing overhead,
1 - traced jobs_per_s / untraced jobs_per_s of the same seed and set.
Run length and workloads come from ``BENCHMARK.json``.  The environment record and all
results are written to ``.perfbench/suite-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
REPORTED = ("jobs_per_s", "job_p50_s", "job_p90_s", "failed_frac", "peak_rss_mb", "setup_s")
LINE = re.compile(r"^(\w+)=(\S+) (\S*)$")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode}
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr.strip()[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    record["values"] = {}
    for line in lines[:-1]:
        if line.startswith("env "):
            record["env"] = json.loads(line[4:])
        match = LINE.match(line)
        if match and match.group(1) in REPORTED:
            record["values"][match.group(1)] = {"value": float(match.group(2)), "unit": match.group(3)}
    record["failures"] = [line for line in lines if line.startswith("failures ")]
    return record


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def pct(x: float | None) -> str:
    return "-" if x is None else f"{100 * x:.1f}%"


def summarize(runs: list[dict], bench: dict, sets: int) -> tuple[list[dict], bool]:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows, agree_all = [], True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for name in REPORTED:
            per_set = []
            for s in range(sets):
                values = [r["values"][name]["value"] for r in runs
                          if r["workload"] == workload and r["set"] == s and name in r.get("values", {})]
                per_set.append(values)
            if not all(per_set):
                continue
            unit = next(r["values"][name]["unit"] for r in runs
                        if r["workload"] == workload and name in r.get("values", {}))
            row = {"workload": workload, "metric": name, "unit": unit,
                   "median": [statistics.median(v) for v in per_set],
                   "spread": [spread(v) for v in per_set], "bound": bounds.get(name)}
            if sets == 2:
                first, second = row["median"]
                if name == "failed_frac":
                    row["agree"] = first == second
                elif row["bound"] is not None:
                    row["diff"] = (second - first) / first
                    row["agree"] = abs(row["diff"]) <= row["bound"]
                agree_all &= row.get("agree", True)
            rows.append(row)
    return rows, agree_all


def compare_counts(traced: list[dict], bench: dict) -> dict[str, list[str]]:
    """Per workload, the count metrics that differ between the traced runs."""
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in traced):
        results = [r["result"]["metrics"] for r in traced if r["workload"] == workload and "result" in r]
        out[workload] = [name for name in counted
                         if len({res[name]["value"] for res in results}) != 1] if len(results) > 1 else []
    return out


def trace_overhead(runs: list[dict], traced: list[dict], seed: int) -> list[tuple[str, int, float]]:
    """Per traced run: 1 - its jobs_per_s / that of the untraced run of its seed and set."""
    out = []
    for record in traced:
        plain = next((r for r in runs if (r["workload"], r["seed"], r["set"]) ==
                      (record["workload"], seed, record["set"]) and "values" in r), None)
        if plain is not None and "jobs_per_s" in record.get("values", {}):
            ratio = record["values"]["jobs_per_s"]["value"] / plain["values"]["jobs_per_s"]["value"]
            out.append((record["workload"], record["set"], 1.0 - ratio))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, run in each set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload and set")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    runs, traced = [], []
    for s in range(args.sets):
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in seeds:
                record = run_once(workload, seed, bench["run_seconds"], 0)
                record["set"] = s
                runs.append(record)
                res = record.get("result", {})
                print(f"set={s + 1} workload={workload} seed={seed} exit={record['exit']} "
                      f"correct={res.get('correct')} attempted={res.get('attempted')} "
                      f"failed={res.get('failed')}", flush=True)
            if args.trace:
                record = run_once(workload, seeds[0], bench["run_seconds"], 1)
                record["set"] = s
                traced.append(record)
                print(f"set={s + 1} workload={workload} seed={seeds[0]} traced exit={record['exit']}",
                      flush=True)
    env = next((r["env"] for r in runs if "env" in r), None)
    print(f"env {json.dumps(env)}")
    rows, agree = summarize(runs, bench, args.sets)
    header = f"{'workload':9} {'metric':12} {'unit':6}"
    for s in range(args.sets):
        header += f" {'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
    print(header + ("  diff    bound  agree" if args.sets == 2 else ""))
    for row in rows:
        line = f"{row['workload']:9} {row['metric']:12} {row['unit']:6}"
        for median, sp in zip(row["median"], row["spread"]):
            line += f" {median:12.6g} {pct(sp):>8}"
        if args.sets == 2:
            line += f" {pct(row.get('diff')):>7} {pct(row['bound']):>6}  {row.get('agree', '-')}"
        print(line)
    for record in runs + traced:
        for failure in record.get("failures", []):
            print(f"{record['workload']} seed={record['seed']} {failure}")
    overhead = trace_overhead(runs, traced, seeds[0])
    for workload, s, frac in overhead:
        print(f"trace overhead {workload} set={s + 1}: {pct(frac)}")
    counts = compare_counts(traced, bench) if args.trace and args.sets == 2 else {}
    for workload, differing in counts.items():
        print(f"work counts {workload}: " + ("identical" if not differing else "DIFFER " + ", ".join(differing)))
    out = ROOT / ".perfbench" / time.strftime("suite-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"env": env, "args": vars(args), "rows": rows, "runs": runs,
                               "traced": traced, "trace_overhead": overhead,
                               "count_differences": counts}, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    ok = all("result" in r and r["result"]["correct"] for r in runs + traced)
    return 0 if ok and agree and not any(counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
