"""Run the reference commands in two trees and compare every byte they produce.

    python tools/same_bytes.py          # this tree twice: every output is deterministic
    python tools/same_bytes.py REF      # this tree against a `git archive` of REF

Each row of ``ROWS`` runs as a fresh ``python -X dev -W error`` process with ``PYTHONPATH``
set to the tree's ``src``, in its own empty directory, and writes relative paths.  A CLI row
runs ``-m caustics`` with its argv.  A demo row copies its script from the tree's ``demos/``
into the directory and runs it there, so its figures land in ``out/``.  Both passes run a row
at the same absolute path, so nothing printed depends on the tree.  Capped rows run under a
2 GiB address-space limit.

The script compares each row's stdout and every file it wrote, byte for byte, between the
passes.  It prints one line per file, ``identical``, ``differs at byte N`` (the offset of the
first differing byte, from 0) or ``only in a`` / ``only in b`` (a is this tree), then a
summary line.  It exits 1 if a file differs or a row fails: a row fails when it exits non-zero
or does not write a file it names, in either tree (so the exit codes of two passing trees
agree), or when a CSV it writes in the first pass holds a cell below the header that is not
``"%.17g"`` of its float.  Needs git for REF and nothing outside the standard library.
"""
from __future__ import annotations

import io
import os
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_CAP = 2 * 1024**3  # bytes: `ulimit -v 2097152`

FIGURES = {  # demo script -> the figures it writes to out/, 7 in all
    "01_reconstructed_curves.py": ("curves.svg",),
    "02_nephroid_reflection.py": ("nephroid.svg",),
    "03_skew_families.py": ("skew_families.svg",),
    "04_delay_and_spirals.py": ("puiseux.svg",),
    "05_pantograph_mirrors.py": ("mirror_k0.svg", "mirror_k1.svg", "mirror_k2.svg"),
}

# (name, argv, capped).  A name is the row's directory; an argv that is a demo script runs
# that demo, any other runs `python -m caustics` with it.
ROWS = [(name, command.split(), capped) for name, command, capped in [
    # The largest oracle envelope comparison the CLI runs.
    ("verify_oracle_4001", "verify --suite oracle --samples 4001", False),
    # Every row past seed 0, the Lambert sweep at 400 draws.
    ("verify_all_4001_seed9", "verify --suite all --samples 4001 --seed 9", False),
    # Deep mirror doublings, and the deepest continuation (doubling depth 11).
    ("pantograph_m3_deep", "pantograph --m 3 --order 60 --interval 0:6pi --samples 513"
                           " --out-svg deep.svg", False),
    ("series_depth_11", "curve --curve series:k=1 --interval 0.1:3214 --samples 16385"
                        " --out-csv series-deep.csv --out-svg series-deep.svg", False),
    ("series_order_60", "curve --curve series:k=1,order=60 --interval 0:4pi --samples 257"
                        " --out-csv series.csv --out-svg series.svg", False),
    # The mirror workload's costliest series curve when it took the quadrature.
    ("series_k2", "curve --curve series:k=2 --interval 0:4pi --samples 257 --out-csv series.csv",
     False),
    # The pole side: k < 0 continued from near the pole at 0, and the resonant k = -3 member.
    ("series_pole_k-2", "curve --curve series:k=-2,order=60 --interval 0.05:4pi --samples 257"
                        " --out-csv s.csv", False),
    ("series_resonant", "curve --curve series:k=-3,secondary=0.5 --interval 0.5:2pi"
                        " --samples 129 --out-csv r.csv", False),
    ("pantograph_m-1", "pantograph --m -1 --order 60 --interval 0.05:2pi --samples 257"
                       " --out-csv m.csv --out-svg m.svg", False),
    # The mirror report lines and files, then every m and order pair.
    ("pantograph_m2", "pantograph --m 2 --out-csv mirror.csv --out-svg mirror.svg", False),
    *((f"pantograph_m{m}_order{order}",
       f"pantograph --m {m} --order {order} --out-csv coeffs.csv --out-svg mirror.svg", False)
      for m in (1, 2, 3) for order in (30, 60)),
    # A cold exact series to order 120.
    ("pantograph_m4_order120", "pantograph --m 4 --order 120 --out-csv coeffs.csv", False),
    # Windows past 4pi.
    ("cycloid_wide", "curve --curve cycloid --interval 0:100 --samples 4097"
                     " --out-csv cycloid-wide.csv --out-svg cycloid-wide.svg", False),
    ("cycloid_wide_65537", "curve --curve cycloid --interval 0:100 --samples 65537"
                           " --out-csv cycloid-wide.csv --out-svg cycloid-wide.svg", False),
    # The three skew cases at their defaults (delay needs a shift), a long delay shift, and the
    # hyperbolic and circle-involute inverse-position members.
    ("skew_point_by_point", "skew --case point_by_point --out-csv skew.csv", False),
    ("skew_inverse_position", "skew --case inverse_position --out-csv skew.csv", False),
    ("skew_delay", "skew --case delay --alpha 1 --out-csv skew.csv", False),
    ("skew_delay_long", "skew --case delay --phi0 0.3 --a 0.9 --alpha 30"
                        " --out-csv delay-long.csv", False),
    # A two-root delay jet through all three quadrature rungs.
    ("skew_delay_two_roots", "skew --case delay --phi0 0.3 --a 0.9 --alpha 0.8 --branches 0,2"
                             " --coefficients 1:0.2,0.8:-0.3 --interval=-2:2 --samples 33"
                             " --out-csv skew.csv", False),
    ("skew_inverse_hyperbolic", "skew --case inverse_position --phi0 0.3 --a 0.1"
                                " --coefficients 1:0.5 --out-csv inverse-hyp.csv", False),
    ("skew_inverse_circle", "skew --case inverse_position --phi0 0.3 --a 0.29552020666133955"
                            " --out-csv inverse-circle.csv", False),
    # A steep profile under the address cap, and its skew caustic below it.
    ("spiral_65537", "curve --curve log_spiral --interval 0:12 --samples 65537"
                     " --out-csv spiral.csv", True),
    ("spiral_skew_65537", "caustic --curve log_spiral --tilt skew:0.4 --interval 0:12"
                          " --samples 65537 --out-csv spiral-skew.csv --out-svg spiral-skew.svg",
     True),
    ("spiral_skew_16385", "caustic --curve log_spiral --tilt skew:0.4 --interval 0:12"
                          " --samples 16385 --out-csv spiral-skew.csv --out-svg spiral-skew.svg",
     False),
    # Multi-block caustic tables; evolute's R1 column is all zeros.
    ("cycloid_reflection_65537", "caustic --curve cycloid --tilt reflection --interval=-2pi:2pi"
                                 " --samples 65537 --out-csv cycloid.csv --out-svg cycloid.svg",
     False),
    ("cycloid_reflection_16385", "caustic --curve cycloid --tilt reflection --interval=-2pi:2pi"
                                 " --samples 16385 --out-csv cycloid.csv --out-svg cycloid.svg",
     False),
    ("circle_evolute_65537", "caustic --curve circle --tilt evolute --samples 65537"
                             " --out-csv evolute.csv --out-svg evolute.svg", False),
    # A caustic at the skew families' grid size with a flagged row: theta = 0 is a node, a
    # cusp of the cycloid, and its stdout reads flagged=1.
    ("cycloid_reflection_33", "caustic --curve cycloid --tilt reflection --interval=-1:1"
                              " --samples 33 --out-csv c.csv --out-svg c.svg", False),
    # The cusp refinement of a cusp chain, and the cusps drawn from it.
    ("puiseux_cusps", "curve --curve puiseux:c=0.15,gamma=3 --interval=-8pi:8pi --samples 129"
                      " --out-csv p.csv --out-svg p.svg", False),
    # README's "Command line" examples; its pantograph one is pantograph_m2_order30.
    ("readme_curve", "curve --curve log_spiral:amplitude=1,growth=0.15 --interval 0:4pi"
                     " --samples 257 --out-csv spiral.csv --out-svg spiral.svg", False),
    ("readme_caustic", "caustic --curve cycloid:amplitude=1 --tilt reflection"
                       " --interval 0.01:pi --out-csv neph.csv --out-svg neph.svg", False),
    ("readme_skew", "skew --case delay --phi0 0.3 --a 0.9 --alpha 0.8 --branches 0,-1"
                    " --coefficients 1:0,0.5:0.2", False),
    ("readme_verify", "verify --suite all --samples 2000 --seed 0", False),
    *((f"demo_{script[:2]}", script, False) for script in FIGURES),
]]


def expected_files(argv: list[str]) -> list[str]:
    """The files a row names: its ``--out-csv`` and ``--out-svg`` paths, or a demo's figures."""
    if argv[0] in FIGURES:
        return [f"out/{figure}" for figure in FIGURES[argv[0]]]
    return [path for flag, path in zip(argv, argv[1:]) if flag in ("--out-csv", "--out-svg")]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def _run_pass(tree: Path, work: Path, side: str) -> list[tuple[str, str]]:
    """Run every row with ``tree``'s code under ``work/run``, then move that to ``work/side``;
    return ``(name, message)`` for each failed row."""
    run = work / "run"
    failures = []
    for name, argv, capped in ROWS:
        directory = run / name
        directory.mkdir(parents=True)
        demo = argv[0] in FIGURES
        if demo:
            shutil.copy(tree / "demos" / argv[0], directory)
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", *([] if demo else ["-m", "caustics"]),
             *argv],
            cwd=directory, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, preexec_fn=_cap_address_space if capped else None)
        if demo:
            (directory / argv[0]).unlink()
        (directory / "stdout").write_bytes(done.stdout)
        missing = [path for path in expected_files(argv) if not (directory / path).is_file()]
        if done.returncode or missing:
            stderr = done.stderr.decode(errors="replace").strip().splitlines()[-5:]
            head = f"{name} failed in {side}: exit {done.returncode}" + "".join(
                f", no {path}" for path in missing)
            failures.append((name, "\n    ".join([head, *stderr])))
    run.rename(work / side)
    return failures


def _is_17g(cell: bytes) -> bool:
    try:
        return cell == b"%.17g" % float(cell)
    except ValueError:
        return False


def bad_cells(root: Path) -> list[tuple[str, str]]:
    """``(row, message)`` for each CSV under ``root/row`` with a cell below its header that is
    not ``"%.17g"`` of its float, naming the file, the first such cell and its line (from 1)."""
    failures = []
    for path in sorted(root.rglob("*.csv")):
        lines = path.read_bytes().splitlines()[1:]
        bad = next(((number, cell) for number, line in enumerate(lines, start=2)
                    for cell in line.split(b",") if not _is_17g(cell)), None)
        if bad:
            where = path.relative_to(root)
            failures.append((where.parts[0], f"{where.as_posix()} line {bad[0]}: cell "
                                             f"{bad[1].decode(errors='replace')!r} is not %.17g"))
    return failures


def extract(ref: str, dest: Path) -> str | None:
    """Extract a ``git archive`` of ``ref`` into ``dest``; git's error if it fails, else None."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True)
    if archive.returncode:
        return archive.stderr.decode(errors="replace").strip()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return None


def _first_difference(x: bytes, y: bytes) -> int:
    """The length of the longest common prefix of ``x`` and ``y``, by bisection."""
    lo, hi = 0, min(len(x), len(y))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[:mid] == y[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def compare(a: Path, b: Path) -> list[tuple[str, str]]:
    """``(path, verdict)`` for every file under ``a`` or ``b``, sorted by path: ``identical``,
    ``differs at byte N`` or ``only in a`` / ``only in b``."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    verdicts = []
    for path in sorted(files[0] | files[1]):
        if path not in files[1]:
            verdicts.append((path, "only in a"))
        elif path not in files[0]:
            verdicts.append((path, "only in b"))
        else:
            x, y = (a / path).read_bytes(), (b / path).read_bytes()
            verdicts.append((path, "identical" if x == y
                             else f"differs at byte {_first_difference(x, y)}"))
    return verdicts


def main(args: list[str]) -> int:
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as scratch:
        work = Path(scratch)
        other = work / "ref" if args else ROOT
        error = extract(args[0], other) if args else None
        if error:
            print(error, file=sys.stderr)
            return 2
        failures = _run_pass(ROOT, work, "a")
        failures += bad_cells(work / "a") + _run_pass(other, work, "b")
        verdicts = compare(work / "a", work / "b")
    for path, verdict in verdicts:
        print(f"{path}: {verdict}")
    for _, message in failures:
        print(message)
    failed = len({name for name, _ in failures})
    differ = sum(verdict != "identical" for _, verdict in verdicts)
    print(f"same_bytes: {len(verdicts)} files compared, {differ} differ, {failed} rows failed")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
