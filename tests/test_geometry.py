import numpy as np
import pytest
from util_geom import (
    erode_support_oracle,
    gift_wrap,
    minkowski_cloud,
    polygon_signed_margin,
    random_2d_polytope,
)

from tubenet.geometry import (
    GeometryError,
    HPolytope,
    VAggregate,
    VPolytope,
    box_vertices,
    erode_by_ball,
    erode_by_vpolytope,
    linear_image,
    member_aggregate,
    minkowski_hull,
    vertices_of,
)

UNIT_SQUARE = VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
CROSS_2D = VPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]])


# ---------------------------------------------------------------- linear_image

def test_linear_image_identity():
    out = linear_image(np.eye(2), UNIT_SQUARE)
    assert np.array_equal(out.vertices, UNIT_SQUARE.vertices)


def test_linear_image_zero_map_keeps_duplicates():
    out = linear_image(np.zeros((2, 2)), UNIT_SQUARE)
    assert out.n_vertices == 4
    assert np.allclose(out.vertices, 0.0)


def test_linear_image_diagonal_stretch():
    out = linear_image(np.array([[2.0, 0.0], [0.0, 1.0]]), UNIT_SQUARE)
    expect = {(2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)}
    assert {tuple(v) for v in out.vertices} == expect


def test_linear_image_dimension_mismatch():
    with pytest.raises(GeometryError):
        linear_image(np.eye(3), UNIT_SQUARE)


# -------------------------------------------------------------- minkowski_hull

def hull_sum(*polys) -> VPolytope:
    return VPolytope(minkowski_hull([P.vertices for P in polys])[0])


def test_minkowski_segment_sum_is_square():
    P = VPolytope([[0, 0], [1, 0]])
    Q = VPolytope([[0, 0], [0, 1]])
    out = hull_sum(P, Q)
    assert {tuple(v) for v in out.vertices} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_minkowski_identity_element():
    out = hull_sum(UNIT_SQUARE, VPolytope.origin(2))
    assert {tuple(v) for v in out.vertices} == {tuple(v) for v in UNIT_SQUARE.vertices}


def test_minkowski_cross_sum_supports():
    # support of a sum equals the sum of supports; compare against 2*cross
    out = hull_sum(CROSS_2D, CROSS_2D)
    rng = np.random.default_rng(1)
    for _ in range(16):
        d = rng.normal(size=2)
        assert out.support(d) == pytest.approx(2.0 * CROSS_2D.support(d), abs=1e-12)


def test_minkowski_reduce_keeps_hull_vertices():
    out = hull_sum(UNIT_SQUARE, CROSS_2D)
    assert {tuple(v) for v in out.vertices} == {
        (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)}
    segment = VPolytope([[0.0], [1.0], [0.5]])
    assert hull_sum(segment, segment).vertices.ravel().tolist() == [0.0, 2.0]
    flat = VPolytope([[0, 0], [1, 1]])
    with pytest.raises(GeometryError, match="qhull"):
        hull_sum(flat, flat)


def test_minkowski_hull_tracks_summands_and_caps_the_cloud():
    blocks = [UNIT_SQUARE.vertices, CROSS_2D.vertices, np.zeros((1, 2))]
    verts, picks, hull = minkowski_hull(blocks)
    assert np.array_equal(verts, sum(b[picks[:, s]] for s, b in enumerate(blocks)))
    assert verts.shape[0] == 8 and hull.vertices.shape[0] == 8
    with pytest.raises(GeometryError, match="cap"):
        minkowski_hull(blocks, max_points=15)


# --------------------------------------------------------------- erode_by_ball

def test_erode_ball_box():
    X = HPolytope.symmetric_box([1.0, 1.0])
    out = erode_by_ball(X, 0.5)
    assert np.allclose(out.d, 0.5)
    assert np.array_equal(out.C, X.C)


def test_erode_ball_zero_radius():
    X = random_2d_polytope(np.random.default_rng(5))
    out = erode_by_ball(X, 0.0)
    assert np.array_equal(out.d, X.d)


def test_erode_ball_matches_grid_oracle():
    # oracle: x belongs to X (-) ball(0.1) iff every point of the ball around x
    # is in X, tested on a dense ring of directions
    rng = np.random.default_rng(42)
    X = random_2d_polytope(rng)
    beta = 0.1
    out = erode_by_ball(X, beta)
    angles = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    ring = beta * np.column_stack([np.cos(angles), np.sin(angles)])
    xs = np.linspace(-2.0, 2.0, 100)
    for gx in xs[::7]:
        for gy in xs[::7]:
            x = np.array([gx, gy])
            margin = float(np.min(out.d - out.C @ x))
            if abs(margin) < 1e-4:
                continue  # boundary band: ring under-approximates the disc
            ball_inside = all(X.contains(x + r, tol=1e-12) for r in ring)
            assert (margin > 0) == ball_inside


def test_erode_ball_empty_result_detected():
    X = HPolytope.symmetric_box([0.2, 0.2])
    out = erode_by_ball(X, 1.0)
    assert out.is_empty()


def test_erode_ball_retained_row_norms_stay_bounded():
    # origin-normalized form: retained rows of a nonempty-interior erosion
    # satisfy beta * ||a_r|| < 1
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = random_2d_polytope(rng)
        A = X.C / X.d[:, None]  # rows scaled so rhs is 1
        beta = 0.05
        out = erode_by_ball(HPolytope(A, np.ones(len(X.d))), beta)
        if out.is_empty() or not out.has_origin_interior():
            continue
        assert np.all(beta * np.linalg.norm(A, axis=1) < 1.0)


# ---------------------------------------------------------- erode_by_vpolytope

def test_erode_vpoly_box_minus_cross():
    X = HPolytope.symmetric_box([2.0, 2.0])
    out = erode_by_vpolytope(X, CROSS_2D, 1.0)
    assert out.support([1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert out.support([0, -1]) == pytest.approx(1.0, abs=1e-9)


def test_erode_vpoly_by_origin_is_identity():
    X = random_2d_polytope(np.random.default_rng(2))
    out = erode_by_vpolytope(X, VPolytope.origin(2), 1.0)
    assert np.allclose(out.d, X.d)


def test_erode_vpoly_box_minus_box():
    X = HPolytope.symmetric_box([1.0, 1.0])
    P = VPolytope(box_vertices([-0.3, -0.3], [0.3, 0.3]))
    out = erode_by_vpolytope(X, P, 1.0)
    for d in (np.array([1.0, 0]), np.array([0, 1.0]), np.array([-1.0, 0]), np.array([0, -1.0])):
        assert out.support(d) == pytest.approx(0.7, abs=1e-9)


def _hexagon_witness():
    """Non-box case where dropping rows redundant at an intermediate vertex
    leaves a set larger than X (-) P (by 0.052 along some direction)."""
    a = np.array([1.0301, 2.2345, 4.17, 4.331, 4.7121, 5.7499])
    X = HPolytope(np.column_stack([np.cos(a), np.sin(a)]),
                  [1.2515, 0.7737, 1.438, 0.5252, 0.6848, 0.7419])
    P = VPolytope([[-0.2389, 0.0951], [0.3114, 0.3627], [0.0194, 0.1787], [0.1816, -0.1385]])
    return X, P


def _erosion_cases(rng):
    for _ in range(5):
        yield random_2d_polytope(rng), VPolytope(rng.normal(size=(4, 2)) * 0.15)
    yield _hexagon_witness()


def test_erode_vpoly_matches_support_oracle_random():
    rng = np.random.default_rng(17)
    for X, P in _erosion_cases(rng):
        mine = erode_by_vpolytope(X, P, 1.0)
        oracle = erode_support_oracle(X, P.vertices)
        if oracle.is_empty():
            assert mine.is_empty()
            continue
        for _ in range(32):
            d = rng.normal(size=2)
            assert mine.support(d) == pytest.approx(oracle.support(d), abs=1e-7)


def test_erosion_inflation_duality():
    # (X (-) P) (+) P is contained in X, checked through support values
    rng = np.random.default_rng(31)
    for _ in range(5):
        X = random_2d_polytope(rng)
        P = VPolytope(rng.normal(size=(5, 2)) * 0.2)
        eroded = erode_by_vpolytope(X, P, 1.0)
        if eroded.is_empty():
            continue
        for _ in range(32):
            d = rng.normal(size=2)
            assert eroded.support(d) + P.support(d) <= X.support(d) + 1e-9


# -------------------------------------------------------------------- contains

def test_contains_origin_interior():
    X = random_2d_polytope(np.random.default_rng(8))
    assert X.contains(np.zeros(2))


def test_contains_boundary_vertex():
    X = HPolytope.symmetric_box([1.0, 1.0])
    assert X.contains([1.0, 1.0], tol=1e-9)


def test_contains_outside_by_margin():
    X = HPolytope.symmetric_box([1.0, 1.0])
    assert not X.contains([1.0 + 1e-3, 0.0], tol=1e-6)


# ------------------------------------------------------------ member_aggregate

def _aggregate_with_zero_vertex(rng, n_blocks=3, dim=2, sigma=1.3):
    blocks = []
    for _ in range(n_blocks):
        verts = rng.normal(size=(4, dim))
        verts[0] = 0.0  # vertex 1 pinned at the origin, as the RCI blocks are
        blocks.append(VPolytope(verts))
    return VAggregate(blocks, sigma)


def test_member_origin_always_feasible():
    rng = np.random.default_rng(21)
    Z = _aggregate_with_zero_vertex(rng)
    cert = member_aggregate(Z, np.zeros(2))
    assert cert.feasible
    assert cert.residual < 1e-9


def test_member_outside_bounding_box_infeasible():
    rng = np.random.default_rng(22)
    Z = _aggregate_with_zero_vertex(rng)
    _, hi = Z.bounds()
    cert = member_aggregate(Z, hi + 1.0)
    assert not cert.feasible


def test_member_random_constructed_points_feasible():
    rng = np.random.default_rng(23)
    Z = _aggregate_with_zero_vertex(rng)
    for _ in range(1000):
        x = Z.sample(rng)
        cert = member_aggregate(Z, x)
        assert cert.feasible
        assert cert.residual < 1e-7


def test_member_matches_giftwrap_hull_oracle():
    rng = np.random.default_rng(24)
    Z = _aggregate_with_zero_vertex(rng, n_blocks=2)
    hull = gift_wrap(minkowski_cloud(Z.blocks, Z.sigma))
    lo, hi = Z.bounds()
    checked = 0
    while checked < 200:
        x = rng.uniform(lo - 0.5, hi + 0.5)
        margin = polygon_signed_margin(hull, x)
        if abs(margin) < 1e-7:
            continue
        cert = member_aggregate(Z, x)
        assert cert.feasible == (margin > 0)
        checked += 1


# --------------------------------------------------------------------- support

def test_support_unit_box_axis():
    assert UNIT_SQUARE.support([1.0, 0.0]) == pytest.approx(1.0)


def test_support_zero_direction():
    assert UNIT_SQUARE.support([0.0, 0.0]) == 0.0


def test_support_aggregate_of_boxes():
    agg = VAggregate([UNIT_SQUARE, UNIT_SQUARE], sigma=2.0)
    assert agg.support([1.0, 1.0]) == pytest.approx(8.0)


def test_support_additivity_under_sum():
    rng = np.random.default_rng(40)
    P = VPolytope(rng.normal(size=(5, 2)))
    Q = VPolytope(rng.normal(size=(6, 2)))
    S = hull_sum(P, Q)
    for _ in range(100):
        d = rng.normal(size=2)
        assert S.support(d) == pytest.approx(P.support(d) + Q.support(d), abs=1e-10)


# ------------------------------------------------------------------- misc ops

def test_box_vertices_count_and_order():
    v = box_vertices([-1.0, -2.0], [1.0, 2.0])
    assert v.shape == (4, 2)
    assert np.array_equal(v[0], [-1.0, -2.0])
    assert np.array_equal(v[-1], [1.0, 2.0])


def test_vertices_of_square():
    X = HPolytope.symmetric_box([1.0, 2.0])
    V = vertices_of(X)
    assert {tuple(np.round(v, 9)) for v in V.vertices} == {
        (1.0, 2.0), (1.0, -2.0), (-1.0, 2.0), (-1.0, -2.0)}


def test_vertices_of_interval():
    X = HPolytope([[2.0], [-1.0]], [4.0, 1.0])
    V = vertices_of(X)
    assert np.allclose(sorted(V.vertices[:, 0]), [-1.0, 2.0])


def test_vertices_of_dimension_guard():
    X = HPolytope.symmetric_box([1.0] * 4)
    with pytest.raises(GeometryError):
        vertices_of(X)


def test_hpolytope_validation():
    with pytest.raises(GeometryError):
        HPolytope([[0.0, 0.0]], [1.0])
    with pytest.raises(GeometryError):
        HPolytope([[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(GeometryError):
        VAggregate([UNIT_SQUARE], sigma=0.0)


def test_duplicate_vertices_are_legal():
    P = VPolytope([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    assert P.n_vertices == 3
