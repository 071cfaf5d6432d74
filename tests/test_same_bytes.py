"""``tools/same_bytes.py`` without running its table: the byte comparison on small trees, and
every row against the CLI's parser, the demos and README's command-line examples."""

import importlib.util
from pathlib import Path

import pytest

from caustics.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

CLI_ROWS = [(name, argv) for name, argv, _ in same_bytes.ROWS if argv[0] not in same_bytes.FIGURES]


def _tree(root, files):
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)
    return root


FILES = {"row/stdout": b"points=5\n", "row/out/figure.svg": b"<svg>\n</svg>\n", "other/t.csv": b""}


def test_identical_trees_pass(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", FILES)
    assert same_bytes.compare(a, b) == [
        ("other/t.csv", "identical"), ("row/out/figure.svg", "identical"),
        ("row/stdout", "identical")]


@pytest.mark.parametrize("changed, offset", [
    (b"<svg>\n</svG>\n", 10),     # one byte changed
    (b"<svg>\n</svg>", 12),       # a prefix: the shorter file ends first
    (b"<svg>\n</svg>\n\n", 13),   # one byte appended
    (b"x", 0),
])
def test_a_changed_byte_reports_its_file_and_offset(tmp_path, changed, offset):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", dict(FILES, **{"row/out/figure.svg": changed}))
    verdicts = dict(same_bytes.compare(a, b))
    assert verdicts.pop("row/out/figure.svg") == f"differs at byte {offset}"
    assert set(verdicts.values()) == {"identical"}


def test_a_file_on_one_side_is_reported(tmp_path):
    a = _tree(tmp_path / "a", dict(FILES, **{"row/extra.csv": b"x\n"}))
    b = _tree(tmp_path / "b", dict(FILES, **{"other/new.svg": b""}))
    verdicts = dict(same_bytes.compare(a, b))
    assert verdicts["row/extra.csv"] == "only in a"
    assert verdicts["other/new.svg"] == "only in b"
    assert len(verdicts) == 5


def test_csv_cells_that_are_17g_of_their_float_pass(tmp_path):
    root = _tree(tmp_path, {"row/t.csv": b"x,y\n0,-1.5\n0.10000000000000001,nan\n",
                            "row/stdout": b"1.50\n", "other/empty.csv": b"x\n"})
    assert same_bytes.bad_cells(root) == []


@pytest.mark.parametrize("cell", [b"1.50", b"0.1", b"1e+300x", b"", b"+1"])
def test_a_csv_cell_not_17g_of_its_float_fails_its_row(tmp_path, cell):
    rows = b"theta,x\n0,1\n2,%s\n3,4\n" % cell
    root = _tree(tmp_path, {"row/out/t.csv": rows, "other/t.csv": b"x\n1\n"})
    assert same_bytes.bad_cells(root) == [
        ("row", f"row/out/t.csv line 3: cell {cell.decode()!r} is not %.17g")]


@pytest.mark.parametrize("argv", [argv for _, argv in CLI_ROWS], ids=[n for n, _ in CLI_ROWS])
def test_cli_row_parses(argv):
    build_parser().parse_args(argv)


def test_rows_name_distinct_directories_and_every_demo_figure():
    names = [name for name, _, _ in same_bytes.ROWS]
    assert len(set(names)) == len(names)
    assert sorted(same_bytes.FIGURES) == sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
    figures = [path for _, argv, _ in same_bytes.ROWS if argv[0] in same_bytes.FIGURES
               for path in same_bytes.expected_files(argv)]
    assert len(set(figures)) == 7
    assert same_bytes.expected_files(["caustic", "--out-csv", "c.csv", "--out-svg", "c.svg"]) == [
        "c.csv", "c.svg"]


def test_the_steep_spiral_rows_run_under_the_address_cap():
    capped = {" ".join(argv) for _, argv, capped in same_bytes.ROWS if capped}
    assert capped == {
        "curve --curve log_spiral --interval 0:12 --samples 65537 --out-csv spiral.csv",
        "caustic --curve log_spiral --tilt skew:0.4 --interval 0:12 --samples 65537"
        " --out-csv spiral-skew.csv --out-svg spiral-skew.svg"}
    assert same_bytes.ADDRESS_CAP == 2097152 * 1024


def test_readme_command_line_examples_are_rows():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    examples = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("caustics ")]
    assert len(examples) == 5
    argvs = [argv for _, argv in CLI_ROWS]
    for argv in examples:
        assert argv in argvs, argv
