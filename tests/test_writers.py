"""CSV and SVG writers: byte-equal to one-cell-at-a-time and one-point-at-a-time references."""

import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from caustics import _digits, csvio
from caustics.caustic import Caustic, TiltField, caustic_curve
from caustics.csvio import (
    CAUSTIC_HEADER, CURVE_HEADER, write_caustic_csv, write_coefficient_csv, write_curve_csv,
    write_table)
from caustics.inclination import AngleInterval, CurveSamples, cycloid
from caustics.errors import ValidationError
from caustics.svg import GROUP_ORDER, _STYLE, write_scene

# ---------------------------------------------------------------------------
# CSV


def _reference_cell(value) -> str:
    """One cell as the writer formatted it cell by cell: integers verbatim, reals %.17g."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return "%.17g" % float(value)


def _reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


SPECIAL = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    2.2250738585072009e-308,
    -1.5e-310,
    1.7976931348623157e308,
    0.1,
    1 / 3,
    -2.5,
    1e16,
    123456789.0,
]


def test_csv_special_values_match_per_cell_reference(tmp_path, rng, read_csv):
    values = np.array(SPECIAL + list(rng.normal(size=22) * 10.0 ** rng.integers(-30, 30, 22)))
    table = values.reshape(-1, 6)
    header = ("a", "b", "c", "d", "e", "f")
    path = tmp_path / "t.csv"
    write_table(path, header, table)
    assert path.read_bytes() == _reference_csv(header, table.tolist())
    write_table(path, header, table.tolist())
    assert path.read_bytes() == _reference_csv(header, table.tolist())
    _, back = read_csv(path)
    assert np.array_equal(back, table, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(table))


def test_coefficient_csv_writes_integer_column_verbatim(tmp_path):
    pairs = [(0, 1.0), (2, -0.0), (7, 1e-300), (10**15 + 1, math.nan), (-(2**53), 0.25)]
    path = tmp_path / "coeffs.csv"
    write_coefficient_csv(path, pairs)
    want = _reference_csv(("n", "a_n"), [(int(n), float(v)) for n, v in pairs])
    assert path.read_bytes() == want
    assert path.read_text().splitlines()[4].startswith("1000000000000001,")


@pytest.mark.parametrize("rows", [[], np.empty((0, 3)), iter(())], ids=["list", "array", "iterator"])
def test_csv_header_without_rows(tmp_path, rows):
    path = tmp_path / "empty.csv"
    write_table(path, ("x", "y", "z"), rows)
    assert path.read_bytes() == b"x,y,z\n"


@pytest.mark.parametrize(
    "rows",
    [[(1.0, 2.0), (3.0,)], [(1.0, 2.0, 3.0)], [(), ()], np.zeros((2, 3)), np.zeros(4)],
    ids=["short_row", "long_row", "empty_rows", "wide_array", "flat_array"],
)
def test_csv_ragged_rows_are_rejected(tmp_path, rows):
    with pytest.raises(ValidationError):
        write_table(tmp_path / "bad.csv", ("x", "y"), rows)


def _assert_matches_reference(tmp_path, table):
    header = tuple(f"c{j}" for j in range(table.shape[1]))
    path = tmp_path / "t.csv"
    write_table(path, header, table)
    assert path.read_bytes() == _reference_csv(header, table.tolist())


def test_csv_random_bit_patterns_match_reference(tmp_path, rng):
    bits = rng.integers(0, 2**64, size=1_000_002, dtype=np.uint64)
    bits[:4096] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormals of both signs
    values = bits.view(np.float64)
    values[4096 : 4096 + len(SPECIAL)] = SPECIAL
    _assert_matches_reference(tmp_path, values.reshape(-1, 6))


def _decimal_edge_values(rng):
    tens = 10.0 ** np.arange(-323, 309)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    ints = np.concatenate([np.arange(-3000, 3000), rng.integers(-(2**53), 2**53, 20_000)])
    ints = np.concatenate([ints, [2**53, -(2**53), 2**53 - 1, 10**15 + 1, 10**16 - 1]])
    scales = rng.normal(size=20_000) * 10.0 ** rng.integers(-25, 25, 20_000)
    rounded = [round(float(v), int(d)) for v, d in zip(scales, rng.integers(0, 18, 20_000))]
    # Exact ties at the 17th digit: 18 significant digits ending in 5.
    quarters = rng.integers(10**15, 2 * 10**15, 2000) + rng.choice([0.25, 0.75], 2000)
    eighths = rng.integers(10**14, 10**15, 2000) + rng.choice([0.125, 0.375, 0.625, 0.875], 2000)
    below = [float(f"9.99999999999999{d}e{k}") for k in range(-320, 308) for d in (5, 7, 8, 9)]
    values = np.concatenate(
        [
            tens,
            np.nextafter(tens, 0.0),
            np.nextafter(tens, np.inf),
            twos,
            np.nextafter(twos, 0.0),
            ints.astype(float),
            rounded,
            quarters,
            eighths,
            below,
        ]
    )
    return np.concatenate([values, -values])


def test_csv_decimal_edges_match_reference(tmp_path, rng):
    values = _decimal_edge_values(rng)
    _assert_matches_reference(tmp_path, np.resize(values, (math.ceil(values.size / 5), 5)))


# Doubles whose 17-digit rounding is within 2**-55 of a tie (|x| * 10**(16 - p)
# lies that close to a half-integer), found by lattice reduction; the kernel
# cannot certify their rounding and must hand them to ``%``.
NEAR_TIES = [
    8.086735352096132e-38,
    1.6173470704192264e-37,
    1.8649541076200962e-32,
    8.252823116800268e-27,
    9.774753399126217e-26,
    1.6599880982394496e-24,
    1.3055059111721069e-21,
    1.3055059111721069e-20,
    8.839990188244671e-15,
    8.839990188244671e-14,
    6.83280278535067e-12,
    6.83280278535067e-11,
    5.566121104799939e50,
    4.120025266639389e51,
    4.120025266639389e52,
    5.045526603062141e53,
    1.3052657482677088e55,
    3.9157972448031265e55,
    1.3052657482677088e56,
    1.7035209261461023e61,
    1.0221125556876614e62,
    1.7035209261461023e62,
    6.538311315939327e64,
    1.3076622631878654e65,
]


def test_csv_normal_draws_and_zeros_are_certified(tmp_path, rng):
    values = rng.normal(size=100_000) * 10.0 ** rng.integers(-8, 9, 100_000)
    values[:2] = 0.0, -0.0
    _assert_matches_reference(tmp_path, values.reshape(-1, 5))
    # The kernel spells every one of them itself; ``%`` is only its fallback.
    assert _digits._fill_general(values, np.empty((len(values), 32), np.uint8)).all()


def test_csv_near_ties_match_reference(tmp_path):
    for x in NEAR_TIES:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert 0 < abs(scaled % 1 - Fraction(1, 2)) < Fraction(1, 2**55)
    values = np.array(NEAR_TIES + [-x for x in NEAR_TIES])
    _assert_matches_reference(tmp_path, values.reshape(-1, 6))


@pytest.mark.parametrize("width", [1, 2, 5, 6])
def test_csv_block_boundaries_match_reference(tmp_path, rng, width):
    block = _digits.BLOCK_CELLS // width
    size = (block + 1) * width
    values = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size)
    values[::97] = np.nan
    values[5::89] = 0.0
    table = values.reshape(-1, width)
    for n in (0, 1, block - 1, block, block + 1):
        _assert_matches_reference(tmp_path, table[:n])


def _write_record(path, columns):
    """Write ``columns`` through the writer of their width: a record's, or the column path."""
    if len(columns) == 2:
        csvio._write_columns(path, ("a", "b"), columns)
        return ("a", "b")
    theta, *rest = columns
    source = CurveSamples(theta, *rest[:3], np.full(theta.size, 7.0), rest[-1])
    if len(columns) == 5:
        write_curve_csv(path, source)
        return CURVE_HEADER
    write_caustic_csv(path, Caustic(*rest, np.zeros(theta.size, int), source=source))
    return CAUSTIC_HEADER


@pytest.mark.parametrize("blocks", [1, 2, 5])
@pytest.mark.parametrize("width", [2, 5, 6])
def test_record_writers_match_write_table_on_the_stacked_table(tmp_path, rng, width, blocks):
    # One block, a block and one row, or four blocks and seven rows.
    n = {1: 1, 2: 1, 5: 4}[blocks] * (_digits.BLOCK_CELLS // width) + {1: 0, 2: 1, 5: 7}[blocks]
    columns = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n) for _ in range(width)]
    columns[-1] = np.repeat(columns[-1], 3)[::3]  # a strided column
    for k, column in enumerate(columns):
        column[k % 4 :: 11] = (0.0, -0.0, math.inf, -math.inf)[k % 4]
        column[1::7] *= -1.0
        if k:
            column[3::13] = math.nan  # flagged rows: NaN past the first column
    assert not columns[-1].flags.c_contiguous
    header = _write_record(tmp_path / "record.csv", columns)
    table = np.column_stack(columns)
    write_table(tmp_path / "table.csv", header, table)
    got = (tmp_path / "record.csv").read_bytes()
    assert got == (tmp_path / "table.csv").read_bytes()
    assert got == _reference_csv(header, table.tolist())


def test_caustic_writer_copies_no_table(tmp_path):
    # The 65 537-node reflected cycloid: its six columns stacked would take 3 MiB.
    caus = caustic_curve(cycloid(1.3), TiltField.reflection(),
                         AngleInterval(-2 * math.pi, 2 * math.pi, 65_537))
    write_caustic_csv(tmp_path / "warm.csv", caus)
    tracemalloc.start()
    try:
        write_caustic_csv(tmp_path / "c.csv", caus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_csv_writer_raises_no_numpy_warnings(tmp_path, rng):
    values = np.concatenate([SPECIAL, [1e-300, -1e300, 1e-320, -np.inf], rng.normal(size=60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_table(tmp_path / "w.csv", ("a", "b", "c", "d", "e", "f"), values.reshape(-1, 6))


def test_csv_writer_peak_memory_is_bounded(tmp_path, rng):
    table = rng.normal(size=(65_537, 6)) * 10.0 ** rng.integers(-5, 5, (65_537, 6))
    tracemalloc.start()
    try:
        write_table(tmp_path / "big.csv", ("a", "b", "c", "d", "e", "f"), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Fixed-point layout ("%.3f", the SVG coordinates)


def _fixed_text(values) -> bytes:
    """``values`` one to a line, through the kernel's fixed-point layout."""
    buf = io.BytesIO()
    column = np.asarray(values, dtype=float).reshape(1, -1)
    _digits.write_cells(buf, column, _digits.FIXED, np.zeros(1, np.int8), _digits.separators(b"\n"))
    return buf.getvalue()


def _assert_fixed_matches_format(values):
    values = np.asarray(values, dtype=float)
    want = "".join(format(v, ".3f") + "\n" for v in values.tolist()).encode("ascii")
    assert _fixed_text(values) == want


def test_fixed_thousandths_and_neighbours_match_format():
    grid = np.arange(704_001) / 1000.0
    _assert_fixed_matches_format(np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1e4)]))


def test_fixed_exact_ties_round_half_to_even():
    # 1000 x lies exactly halfway between integers for the odd multiples of 1/16.
    ties = np.arange(1, 704 * 16, 2) / 16.0
    assert (ties * 1000 % 1 == 0.5).all()
    _assert_fixed_matches_format(np.concatenate([ties, [0.0625, 2.0625, 640.4375]]))
    assert _fixed_text([0.0625, 2.0625, 640.4375]) == b"0.062\n2.062\n640.438\n"


def test_fixed_carries_lengthen_the_integer_part():
    values = [0.9996, 9.9996, 99.9996, 999.9996, 9999.9994, 9999.9996, 9999.9999999]
    _assert_fixed_matches_format(values)
    assert _fixed_text([9.9996, 999.9996]) == b"10.000\n1000.000\n"


def test_fixed_signs_and_non_finite_cells_match_format():
    values = [0.0, -0.0, -0.0004, -0.0005, -0.0006, -123.4567, 1e4, 12345.6789, 1e300,
              -1e300, 5e-324, math.nan, math.inf, -math.inf]
    _assert_fixed_matches_format(values)
    assert _fixed_text([-0.0, -0.0004]) == b"-0.000\n-0.000\n"


def test_fixed_uniform_draws_match_format(rng):
    values = rng.uniform(0.0, 704.0, 100_000)
    _assert_fixed_matches_format(values)
    # The kernel spells every one of them itself; ``%`` is only its fallback.
    assert _digits._fill_fixed(values, np.empty((len(values), 8), np.uint8)).all()


# ---------------------------------------------------------------------------
# SVG


def _reference_scene(path, mirror=None, caustic=None, rays=None, cusps=None, cuspline=None):
    """The writer as it was: one Python step per point."""
    fmt = lambda x: format(x, ".3f")  # noqa: E731
    size, margin_fraction = 640.0, 0.05

    def as_polylines(data):
        if data is None:
            return []
        if isinstance(data, np.ndarray) and data.ndim == 2:
            data = [data]
        return [np.asarray(poly, dtype=float) for poly in data]

    groups = {
        "mirror": as_polylines(mirror),
        "caustic": as_polylines(caustic),
        "rays": as_polylines(rays),
        "cusps": [np.asarray(cusps, dtype=float).reshape(-1, 2)]
        if cusps is not None and len(cusps) else [],
        "cuspline": as_polylines(cuspline),
    }
    allpts = np.concatenate([arr for polys in groups.values() for arr in polys], axis=0)
    finite = allpts[np.all(np.isfinite(allpts), axis=1)]
    lo, hi = finite.min(axis=0), finite.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    margin = margin_fraction * span
    scale = size / (span + 2 * margin)
    width = (hi[0] - lo[0] + 2 * margin) * scale
    height = (hi[1] - lo[1] + 2 * margin) * scale

    def transform(p):
        return ((p[0] - lo[0] + margin) * scale, (hi[1] - p[1] + margin) * scale)

    stroke = max(1.0, size / 640.0)
    style_args = {
        "w": fmt(1.5 * stroke),
        "thin": fmt(0.75 * stroke),
        "dash": f"{fmt(6 * stroke)} {fmt(4 * stroke)}",
    }
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fmt(width)} {fmt(height)}" '
        f'width="{fmt(width)}" height="{fmt(height)}">',
    ]
    for name in GROUP_ORDER:
        polys = groups[name]
        if not polys:
            continue
        lines.append(f'<g id="{name}" {_STYLE[name].format(**style_args)}>')
        for poly in polys:
            if name == "cusps":
                for point in poly:
                    if np.all(np.isfinite(point)):
                        cx, cy = transform(point)
                        lines.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(0.006 * size)}"/>')
                continue
            parts, pen_down = [], False
            for point in poly:
                if not np.all(np.isfinite(point)):
                    pen_down = False
                    continue
                px, py = transform(point)
                parts.append(f"{'L' if pen_down else 'M'}{fmt(px)} {fmt(py)}")
                pen_down = True
            if parts:
                lines.append(f'<path d="{"".join(parts)}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _scene_groups(rng):
    t = np.linspace(0.0, 2 * math.pi, 61)
    mirror = np.column_stack([np.cos(t), np.sin(3 * t)])
    mirror[[0, 1, 20, 21, 22, 40, -1]] = np.nan  # leading, interior (a run) and trailing NaN rows
    caustic = 0.5 * mirror[::-1] + 0.25
    hidden = np.full((5, 2), np.nan)  # drawn by nothing, so omitted
    single = np.array([[0.1, -0.7]])
    bases = rng.uniform(-1.0, 1.0, size=(40, 2))
    tips = bases + rng.normal(scale=0.3, size=(40, 2))
    rays = np.stack([bases, tips], axis=1)
    rays[7, 1] = np.nan  # a ray whose tip did not resolve
    cusps = np.array([[0.2, 0.3], [np.nan, np.nan], [-0.5, 0.9]])
    cuspline = np.array([[-1.0, -1.0], [1.2, 1.1]])
    return dict(
        mirror=[mirror, hidden, single], caustic=[caustic], rays=rays, cusps=cusps, cuspline=[cuspline]
    )


@pytest.mark.parametrize("rays_as", ["array", "list"])
def test_svg_matches_per_point_reference(tmp_path, rng, rays_as):
    groups = _scene_groups(rng)
    if rays_as == "list":
        groups["rays"] = list(groups["rays"])
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_scene(got, **groups)
    _reference_scene(want, **groups)
    assert got.read_bytes() == want.read_bytes()
    assert b'<path d="' in got.read_bytes() and b"<circle" in got.read_bytes()


@pytest.mark.parametrize(
    "groups",
    [
        dict(mirror=np.array([[0.0, 0.0], [1.0, 2.0], [np.nan, 0.0], [3.0, -1.0]])),
        dict(caustic=[np.full((3, 2), np.nan), np.array([[0.0, 0.0], [0.0, 1e-12]])]),
        dict(rays=np.zeros((0, 2, 2)), cusps=np.array([[1.0, 1.0]])),
        dict(mirror=[np.empty((0, 2)), np.array([[2.0, 1.0], [4.0, 1.0]])], cusps=[]),
        dict(mirror=np.array([[0.0, 0.0], [1.0, 2.0]]), cusps=np.array([[0.5, 0.25]])),
        dict(mirror=np.full((4, 2), np.nan),
             cusps=np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])),
        dict(mirror=np.array([[0.0, 0.0], [1.0, 2.0]]), caustic=[np.full((3, 2), np.nan)],
             rays=np.array([[[0.0, 1.0], [1.0, 0.0]]])),
    ],
    ids=["one_array", "all_nan_polyline", "no_rays", "empty_polyline", "one_cusp",
         "only_cusps_finite", "all_nan_group_between"],
)
def test_svg_edge_cases_match_reference(tmp_path, groups):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_scene(got, **groups)
    _reference_scene(want, **groups)
    assert got.read_bytes() == want.read_bytes()


def test_svg_rejects_bad_polylines(tmp_path):
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", rays=np.zeros((3, 2, 3)))
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", mirror=[np.zeros(4)])
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", mirror=[])
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", mirror=[[["a", "b"]]])
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", mirror=[[[1.0, 2.0], [3.0]]])
    with pytest.raises(ValidationError):
        write_scene(tmp_path / "bad.svg", cusps=[["x", 1]])


@pytest.mark.parametrize("corner", [-1e308, 0.0], ids=["span", "span_with_margins"])
def test_svg_rejects_an_overflowing_extent(tmp_path, corner):
    mirror = [np.array([[corner, 0.0], [1.7e308, 1.0]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            write_scene(tmp_path / "huge.svg", mirror=mirror)
    assert not (tmp_path / "huge.svg").exists()


def _dense_scene(n):
    """Mirror, caustic and rays of a cycloid-like curve at ``n`` samples."""
    t = np.linspace(-2 * math.pi, 2 * math.pi, n)
    mirror = np.column_stack([t + np.sin(t), 1.0 - np.cos(t)])
    caustic = np.column_stack([t - np.sin(t) / 3, (1.0 - np.cos(t)) / 3 - 1.0])
    return mirror, caustic, np.stack([mirror, caustic], axis=1)


def test_svg_dense_scene_matches_per_point_reference(tmp_path, rng):
    n = 16_385
    mirror, caustic, rays = _dense_scene(n)
    block = _digits.BLOCK_CELLS // 2  # points a block
    mirror[[0, block - 1, block, 5000, 5001, n - 1]] = np.nan  # pen lifts
    caustic[block - 3 : block + 3, 1] = np.nan
    rays[17, 1] = np.nan  # a ray whose tip did not resolve
    cuspline = rng.uniform(-1.0, 1.0, size=(2 * block + 7, 2))  # crosses a block boundary
    cusps = np.array([[0.0, 0.0], [np.nan, 1.0], [math.pi, 2.0], [-math.pi, 2.0]])
    groups = dict(mirror=[mirror], caustic=[caustic, caustic[:9] + 0.5], rays=rays, cusps=cusps,
                  cuspline=[cuspline])
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_scene(got, **groups)
    _reference_scene(want, **groups)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_svg_groups_meeting_at_block_edges_match_reference(tmp_path, shift):
    # Drawn points are formatted a block at a time across groups, so group
    # tags and circle leads fall at, just before and just after block edges.
    block = _digits.BLOCK_CELLS // 2
    mirror, caustic, _ = _dense_scene(2 * block)
    groups = dict(mirror=[mirror[: block + shift]], caustic=[caustic[: block - shift]],
                  cusps=mirror[:3] + 0.25, cuspline=[caustic[:2]])
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_scene(got, **groups)
    _reference_scene(want, **groups)
    assert got.read_bytes() == want.read_bytes()


def test_svg_writer_peak_memory_is_bounded(tmp_path):
    mirror, caustic, rays = _dense_scene(65_537)
    tracemalloc.start()
    try:
        write_scene(tmp_path / "big.svg", mirror=[mirror], caustic=[caustic], rays=rays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
