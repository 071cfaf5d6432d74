"""``tools/ab.py`` without its benchmark runs: the report and verdicts of synthetic pairs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # ab.py imports same_bytes beside it
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)
sys.path.remove(str(ROOT / "tools"))


def _pairs(**columns):
    """Ten pairs: each keyword names a metric and gives (this tree's, REF's) ten values."""
    return [{side: {"correct": True, "failed": 0,
                    **{name: values[i][j] for name, values in columns.items()}}
             for i, side in enumerate("ab")} for j in range(10)]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def _verdicts(lines):
    return {line.split()[1].rstrip(":"): line.rsplit(": ", 1)[1].split(" (")[0]
            for line in lines[:-1]}


def test_every_end_to_end_metric_gets_each_of_the_four_verdicts():
    assert [m["name"] for m in ab._end_to_end()] == ["jobs_per_s", "peak_rss_mb", "setup_s"]
    lines, correct = ab.summary("mirror", _pairs(
        jobs_per_s=([x * 1.1 for x in STEADY], STEADY),  # higher is better: +10 %, all won
        peak_rss_mb=([x * 1.3 for x in STEADY], STEADY),  # lower is better: 30 % past 20 %
        setup_s=(STEADY, [x * (1 + (i % 2)) for i, x in enumerate(STEADY)]),  # REF spreads 2x
    ))
    assert correct and lines[-1] == "mirror: all runs correct, 0 failed"
    assert _verdicts(lines) == {
        "jobs_per_s": "better", "peak_rss_mb": "worse", "setup_s": "unresolved"}
    lines, _ = ab.summary("caustic", _pairs(
        jobs_per_s=([x * 0.9 for x in STEADY], STEADY),  # 10 % slower: within the 25 % bound
        peak_rss_mb=(STEADY, STEADY),
        setup_s=([x * 0.5 for x in STEADY], STEADY),  # lower is better: half, all won
    ))
    assert _verdicts(lines) == {
        "jobs_per_s": "no worse", "peak_rss_mb": "no worse", "setup_s": "better"}
    assert lines[0] == ("caustic jobs_per_s: this tree 90 (quartiles 89.44-90.56), ref 100 "
                        "(quartiles 99.38-100.6), won 0 of 10: no worse (bound 25%, higher is "
                        "better)")
