"""Tilted coframes, caustic radii and the self-similarity residual."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from caustics.caustic import (
    AT_INFINITY,
    CUSP,
    FLAT_TILT,
    FLAT_TILT_GUARD,
    OK,
    Caustic,
    SimilaritySpec,
    TiltField,
    caustic_curve,
    caustic_radius,
    coframe,
    similarity_residual,
)
from caustics.errors import (
    DomainError,
    EvaluationError,
    ValidationError,
)
from caustics.csvio import write_caustic_csv
from caustics.inclination import (
    AngleInterval, circle, cycloid, log_spiral, polynomial_curve, reconstruct)
from caustics.oracle import envelope_gap, rays_from_tilt
from caustics.skew import SkewFamilySpec, build_family, implied_alpha


def test_reflection_tilt_of_unit_circle_gives_three_quarter_cosine():
    t = np.linspace(0.0, math.pi, 1000)
    tilt = TiltField.reflection()
    r1 = caustic_radius(np.ones_like(t), np.zeros_like(t), *tilt(t))
    assert np.max(np.abs(r1 - 0.75 * np.cos(t))) < 1e-12


def test_evolute_tilt_radius_is_radius_derivative():
    t = np.linspace(-2.0, 2.0, 101)
    r = 1.0 + 0.3 * t**2
    rp = 0.6 * t
    tilt = TiltField.evolute()
    r1 = caustic_radius(r, rp, *tilt(t))
    assert np.max(np.abs(r1 - rp)) < 1e-14


def test_constant_tilt_radius_combines_radius_and_slope():
    t = np.linspace(0.0, 2.0, 101)
    r = np.exp(0.4 * t)
    rp = 0.4 * r
    phi0 = 0.35
    tilt = TiltField.skew(phi0)
    r1 = caustic_radius(r, rp, *tilt(t))
    assert np.max(np.abs(r1 - (math.sin(phi0) * r + math.cos(phi0) * rp))) < 1e-13


def test_circle_evolute_is_center():
    curve = circle(1.0)
    samples = caustic_curve(curve, TiltField.evolute(), AngleInterval(0.0, 2 * math.pi, 129))
    pts = np.array([s.position for s in samples])
    assert np.max(np.linalg.norm(pts - np.array([0.0, 1.0]), axis=1)) < 1e-9
    assert all(abs(s.ray_length - 1.0) < 1e-12 for s in samples)


def test_caustic_theta_doubles_under_reflection():
    samples = caustic_curve(
        cycloid(1.0), TiltField.reflection(), AngleInterval(0.1, 3.0, 57)
    )
    for s in samples:
        assert s.error is None
        assert abs(s.caustic_theta - 2.0 * s.source_theta) < 1e-12


def test_cycloid_reflection_caustic_overlays_scaled_copy():
    # with the mirror translated onto its closed form, the caustic is the
    # half-scale mirror at the doubled angle: (sin^2(2t)/4, t/2 - sin(4t)/8)
    lo = 0.05
    offset = np.array([math.sin(lo) ** 2 / 2, lo / 2 - math.sin(2 * lo) / 4])
    interval = AngleInterval(lo, math.pi / 2, 65)
    samples = caustic_curve(cycloid(1.0), TiltField.reflection(), interval)
    for s in samples:
        t = s.source_theta
        x, y = s.position + offset
        assert abs(x - math.sin(2 * t) ** 2 / 4) < 1e-9
        assert abs(y - (t / 2 - math.sin(4 * t) / 8)) < 1e-9


def test_cusp_nodes_are_flagged_not_dropped():
    samples = caustic_curve(
        cycloid(1.0), TiltField.reflection(), AngleInterval(0.0, 1.0, 11)
    )
    assert len(samples) == 11
    views = list(samples)
    assert views[0].error is not None and "Cusp" in views[0].error
    assert math.isnan(samples.x[0])
    assert all(s.error is None for s in views[1:])


def test_caustic_record_contract(tmp_path, read_csv):
    interval = AngleInterval(-2 * math.pi, 2 * math.pi, 257)
    caus = caustic_curve(cycloid(1.0), TiltField.reflection(), interval)
    assert len(caus) == 257
    tail = caus[1:]
    assert isinstance(tail, Caustic) and len(tail) == 256
    assert np.array_equal(tail.source.theta, caus.source.theta[1:])
    for key in (0, -1, np.int64(3)):
        with pytest.raises(TypeError, match="column"):
            caus[key]

    views = list(caus)
    columns = {
        "source_theta": caus.source.theta,
        "caustic_theta": caus.caustic_theta,
        "caustic_radius": caus.caustic_radius,
        "ray_length": caus.ray_length,
    }
    for name, column in columns.items():
        np.testing.assert_array_equal([getattr(v, name) for v in views], column)
    np.testing.assert_array_equal([v.position for v in views], caus.points)

    flagged = caus.flag != OK
    assert flagged.any()
    assert np.array_equal(flagged, caus.source.radius == 0.0)
    assert [v.error is not None for v in views] == flagged.tolist()
    assert all(views[i].error.startswith("CuspError: ") for i in np.flatnonzero(flagged))
    table = np.column_stack([caus.source.theta, caus.caustic_theta, caus.points,
                             caus.caustic_radius, caus.ray_length])
    assert np.all(np.isfinite(table[~flagged]))

    write_caustic_csv(tmp_path / "caustic.csv", caus)
    _, rows = read_csv(tmp_path / "caustic.csv")
    assert np.all(np.isnan(rows[flagged, 1:]))
    np.testing.assert_array_equal(rows[:, 0], caus.source.theta)


@pytest.mark.parametrize(
    "tilt",
    [TiltField.evolute(), TiltField.reflection(), TiltField.skew(0.4)],
    ids=["evolute", "reflection", "skew"],
)
def test_tiny_radius_is_the_cusp_limit(tilt):
    # R = sin(1e-300) = 1e-300 is no cusp: the caustic point is the limit
    # of its neighbours, on the mirror point, one ray length of at most |R| away.
    caus = caustic_curve(cycloid(1.0), tilt, np.array([-0.5, 1e-300, 0.5]))
    assert caus.source.radius[1] == 1e-300
    assert caus.flag[1] == OK
    assert (caus.x[1], caus.y[1]) == (caus.source.x[1], caus.source.y[1])
    assert caus.ray_length[1] <= abs(caus.source.radius[1])


def test_flat_tilt_is_an_error():
    flat = TiltField(jet=lambda t: (t, np.ones_like(t), np.zeros_like(t)))
    caus = caustic_curve(circle(), flat, AngleInterval(0.0, 1.0, 9))
    assert caus.flag[3] == FLAT_TILT
    assert list(caus)[3].error.startswith("FlatCausticError: ")


def test_caustic_curve_columns_are_the_public_kernels_on_ok_nodes(rng):
    # R = t^3 - t/4 vanishes exactly at the nodes -0.5, 0 and 0.5.  Five nodes, 0 among them,
    # get a flat tilt with phi'' = +-1e300 (one with phi' = 1 exactly), so the formulas
    # overflow and divide by zero there; warnings are errors.
    grid = np.linspace(-1.0, 1.0, 33)
    phi, p1, p2 = rng.uniform(-1.2, 1.2, 33), rng.uniform(-2.0, 0.9, 33), rng.normal(size=33)
    flat = np.array([3, 11, 16, 20, 29])
    p1[flat] = 1.0 + rng.uniform(-0.9, 0.9, 5) * FLAT_TILT_GUARD
    p1[flat[1]] = 1.0
    p2[flat] = 1e300 * rng.choice([-1.0, 1.0], 5)
    tilt = TiltField(lambda t: (phi, p1, p2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caus = caustic_curve(polynomial_curve([0.0, -0.25, 0.0, 1.0]), tilt, grid)
        src = caus.source
        nu, chi = coframe(src.theta, src.radius, phi, p1)
        want = np.select([src.radius == 0.0, np.abs(1.0 - p1) < FLAT_TILT_GUARD, chi == 0.0],
                         [CUSP, FLAT_TILT, AT_INFINITY], OK)
        ok = want == OK
        radius1 = caustic_radius(src.radius[ok], src.radius_prime[ok], phi[ok], p1[ok], p2[ok])
    assert np.array_equal(src.theta, grid)
    assert caus.flag.dtype == want.dtype and np.array_equal(caus.flag, want)
    assert np.flatnonzero(want == CUSP).tolist() == [8, 16, 24]
    assert np.flatnonzero(want == FLAT_TILT).tolist() == [3, 11, 20, 29]
    stretch = np.cos(phi[ok]) / chi[ok]
    for got, value in [
        (caus.caustic_theta, src.theta[ok] + math.pi / 2 - phi[ok]),
        (caus.x, src.x[ok] + stretch * nu[ok, 0]),
        (caus.y, src.y[ok] + stretch * nu[ok, 1]),
        (caus.caustic_radius, radius1),
        (caus.ray_length, np.abs(stretch)),
    ]:
        assert (got[ok] == value).all()
        assert np.isnan(got[~ok]).all()


def test_scalar_valued_tilt_broadcasts():
    # A tilt whose jet returns plain numbers acts like the stock skew tilt.
    constant = TiltField(lambda t: (0.3, 0.0, 0.0))
    interval = AngleInterval(0.0, 1.0, 9)
    got = caustic_curve(circle(1.0), constant, interval)
    want = caustic_curve(circle(1.0), TiltField.skew(0.3), interval)
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.caustic_radius, want.caustic_radius)
    theta = np.array([0.1, 0.2])
    phi, p1, _ = constant(theta)
    assert phi.shape == p1.shape == (2,)
    nu, _ = coframe(theta, np.ones(2), phi, p1)
    assert nu.shape == (2, 2)


def test_coframe_state_matches_reflection_identities():
    phi, p1, _ = TiltField.reflection()(0.7)
    nu, chi = coframe(0.7, circle(1.0).jet(0.7)[0], phi, p1)
    # nu = (cos 2 theta, sin 2 theta) for the unit circle under reflection
    assert abs(nu[0] - math.cos(1.4)) < 1e-12
    assert abs(nu[1] - math.sin(1.4)) < 1e-12
    assert abs(chi - 2.0) < 1e-12


def test_caustic_curve_evaluates_the_tilt_jet_once():
    stock, shapes = TiltField.reflection(), []

    def counted(t):
        shapes.append(t.shape)
        return stock.jet(t)

    interval = AngleInterval(0.1, 3.0, 57)
    got = caustic_curve(cycloid(1.0), TiltField(counted), interval)
    assert shapes == [(57,)]
    want = caustic_curve(cycloid(1.0), stock, interval)
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.caustic_radius, want.caustic_radius)


def _array_twin(tilt):
    """The tilt with every part of its jet broadcast to a full array of the angles' shape."""
    return TiltField(lambda t: tuple(np.broadcast_to(part, t.shape).copy()
                                     for part in tilt.jet(t)))


SCALAR_TILTS = {
    "evolute": TiltField.evolute(),
    "skew": TiltField.skew(0.4),
    "flat": TiltField(lambda t: (0.3, 1.0, 0.0)),
}


@pytest.mark.parametrize("tilt", SCALAR_TILTS.values(), ids=SCALAR_TILTS.keys())
def test_scalar_tilt_gives_the_record_of_its_array_twin(tilt):
    # [0, pi] starts on the cycloid's cusp; the flat tilt flags all the other nodes.
    for curve, interval in ((log_spiral(1.0, 0.2), AngleInterval(-3.0, 3.0, 33)),
                            (cycloid(1.0), AngleInterval(0.0, math.pi, 65))):
        got = caustic_curve(curve, tilt, interval)
        want = caustic_curve(curve, _array_twin(tilt), interval)
        for name in ("caustic_theta", "x", "y", "caustic_radius", "ray_length", "flag"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.flag[0] == CUSP


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", range(3))
def test_non_finite_scalar_tilt_raises_as_its_array_twin(bad, part):
    parts = [0.2, 0.0, 0.0]
    parts[part] = bad
    tilt, interval = TiltField(lambda t: tuple(parts)), AngleInterval(0.5, 1.0, 5)
    messages = []
    for field in (tilt, _array_twin(tilt)):
        with pytest.raises(EvaluationError) as caught:
            caustic_curve(circle(1.0), field, interval)
        messages.append(str(caught.value))
    assert messages == ["tilt is not finite at theta = 0.5"] * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tilt_is_an_error(bad):
    with pytest.raises(ValidationError, match="phi0"):
        TiltField.skew(bad)
    # A custom jet's bad phi' is caught at its first bad angle, by each reader of the jet.
    interval = AngleInterval(0.0, 1.0, 5)
    late = TiltField(lambda t: (0.0, np.where(t > 0.5, bad, 0.0), 0.0))
    for call in (
        lambda: caustic_curve(circle(1.0), late, interval),
        lambda: rays_from_tilt(circle(1.0), late, interval),
        lambda: similarity_residual(circle(1.0), late, SimilaritySpec(1.0, 0.0), interval),
    ):
        with pytest.raises(EvaluationError, match=r"tilt is not finite at theta = 0\.75$"):
            call()


@pytest.mark.parametrize(
    "curve",
    [circle(1.0), log_spiral(1.0, 0.2), cycloid(1.0)],
    ids=["circle", "log_spiral", "cycloid"],
)
def test_curved_tilt_radius_uses_the_second_tilt_derivative(curve):
    # phi = 0.3 sin(theta) has phi'' != 0, which no stock tilt has.
    tilt = TiltField(lambda t: (0.3 * np.sin(t), 0.3 * np.cos(t), -0.3 * np.sin(t)))
    caus = caustic_curve(curve, tilt, AngleInterval(0.3, 2.5, 20001))
    assert np.all(caus.flag == OK)
    # The caustic's arclength speed d s1 / d theta is R1 d theta1 / d theta.
    velocity = np.gradient(caus.points, caus.source.theta, axis=0, edge_order=2)
    theta1 = caus.caustic_theta
    speed = velocity[:, 0] * np.cos(theta1) + velocity[:, 1] * np.sin(theta1)
    want = caus.caustic_radius * (1.0 - tilt(caus.source.theta)[1])
    assert np.max(np.abs(speed - want)) <= 1e-7 * np.max(np.abs(want))
    gap = envelope_gap(curve, tilt, AngleInterval(0.3, 2.5, 2001)).distance
    assert gap <= 1e-6


def test_similarity_spec_validation():
    with pytest.raises(ValidationError):
        SimilaritySpec(0.5, 0.0, sign=2)


@pytest.mark.parametrize(
    "spec, alpha, sign",
    [
        (SkewFamilySpec("point_by_point", 0.3, 1.2), 0.0, 1),
        (
            SkewFamilySpec("inverse_position", 0.3, 1.2, coefficients=((1.0, 0.5),)),
            implied_alpha(1.0, 0.5, 1.2, 0.3),
            -1,
        ),
        (
            SkewFamilySpec(
                "delay", 0.3, 0.9, alpha=0.8, root_indices=(0, -1),
                coefficients=((1.0, 0.0), (0.5, 0.2)),
            ),
            0.8,
            1,
        ),
    ],
    ids=["point_by_point", "inverse_position", "delay"],
)
def test_skew_families_obey_the_general_similarity_law(spec, alpha, sign):
    # Under the constant tilt phi0 the general law's argument
    # sign * (theta + pi/2 - phi0 - beta) is the family's theta, alpha - theta
    # or theta - alpha exactly when beta = alpha + pi/2 - phi0.
    curve, tilt = build_family(spec), TiltField.skew(spec.phi0)
    window = AngleInterval(-1.0, 1.0, 201)
    beta = alpha + math.pi / 2 - spec.phi0
    law = SimilaritySpec(spec.factor_a, beta, sign)
    assert similarity_residual(curve, tilt, law, window) <= 1e-12
    # Leaving out the tilt's -phi0 breaks the law.
    shifted = SimilaritySpec(spec.factor_a, beta + spec.phi0, sign)
    assert similarity_residual(curve, tilt, shifted, window) > 1e-3


def test_cycloid_reflection_similarity():
    res = similarity_residual(
        cycloid(1.0),
        TiltField.reflection(),
        SimilaritySpec(0.5, 0.0),
        AngleInterval(0.0, 2 * math.pi, 257),
    )
    assert res < 1e-10


def test_log_spiral_evolute_similarity():
    b = 0.5
    res = similarity_residual(
        log_spiral(1.0, b),
        TiltField.evolute(),
        SimilaritySpec(b, math.pi / 2),
        AngleInterval(-2.0, 2.0, 101),
    )
    assert res < 1e-10


def test_similarity_argument_domain_check():
    narrow = dataclasses.replace(cycloid(1.0), domain=(0.0, math.pi))
    with pytest.raises(DomainError, match=r"leaves the curve domain \[0\.0, 3\.14159"):
        similarity_residual(
            narrow,
            TiltField.reflection(),
            SimilaritySpec(0.5, 0.0),
            AngleInterval(0.0, math.pi, 65),
        )


@pytest.mark.parametrize("stage, mib", [
    (lambda curve, grid: reconstruct(curve, grid), 8.0),
    (lambda curve, grid: caustic_curve(curve, TiltField.reflection(), grid), 11.0),
], ids=["reconstruct", "caustic_curve"])
def test_dense_reflected_cycloid_peak_memory(stage, mib):
    # 65 537 nodes: a float column is 0.5 MiB.  The record holds six columns, the caustic five
    # more; the closed form's complex terms take 3 MiB while they are summed.
    curve, grid = cycloid(1.3), AngleInterval(-2 * math.pi, 2 * math.pi, 65_537)
    stage(curve, grid)
    tracemalloc.start()
    try:
        stage(curve, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20
