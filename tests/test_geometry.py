import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    DegenerateSegment,
    SegmentDelta,
    pitch_angle,
    point_to_cuboid_distance,
    segment_delta,
    segment_length,
    turn_angle,
)
from skygrid.geometry import (
    CuboidObstacle,
    ObstacleKind,
    Point3,
    obstacle_arrays,
    points_to_cuboids_distance,
    segments_intersect_cuboids,
)
from skygrid.sampling import flatten_obstacles, point_free, segment_free

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)

# Module-level twin of the reference_obstacle fixture for hypothesis tests
# (function-scoped fixtures are not reset between generated inputs).
REF_OB = CuboidObstacle(anchor=Point3(2.0, 2.0, 0.0), len_x=2.0, len_y=3.0, len_z=4.0)


# -- points and deltas -------------------------------------------------------


def test_point_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        Point3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Point3(0.0, math.inf, 0.0)


def test_point_is_a_float_triple():
    p = Point3(1.0, 2.0, 3.0)
    assert p == (1.0, 2.0, 3.0) and tuple(p) == (1.0, 2.0, 3.0)
    assert repr(p) == "Point3(x=1.0, y=2.0, z=3.0)"
    assert all(type(v) is float for v in Point3(1, 2, np.float64(3.0)))
    boxes = flatten_obstacles([REF_OB])
    assert not point_free(Point3(3.0, 3.0, 1.0), boxes) and point_free(p, boxes)
    assert not segment_free(p, Point3(5.0, 4.0, 2.0), boxes)
    assert segment_free(p, Point3(1.0, 9.0, 3.0), boxes)


def test_segment_delta_identity():
    assert segment_delta(Point3(0, 0, 0), Point3(0, 0, 0)) == SegmentDelta(0, 0, 0)


def test_segment_delta_subtraction():
    assert segment_delta(Point3(1, 2, 3), Point3(4, 6, 3)) == SegmentDelta(3, 4, 0)
    assert segment_delta(Point3(2, 2, 0), Point3(2, 2, 4)) == SegmentDelta(0, 0, 4)


def test_segment_length_values():
    assert segment_length(SegmentDelta(0, 0, 0)) == 0.0
    assert segment_length(SegmentDelta(3, 4, 0)) == pytest.approx(5.0)
    assert segment_length(SegmentDelta(0, 0, 4)) == pytest.approx(4.0)


# -- angles ------------------------------------------------------------------


def test_turn_angle_values():
    assert turn_angle(SegmentDelta(1, 0, 2), SegmentDelta(1, 0, -3)) == pytest.approx(0.0)
    assert turn_angle(SegmentDelta(1, 0, 0), SegmentDelta(0, 1, 0)) == pytest.approx(90.0)
    assert turn_angle(SegmentDelta(1, 0, 0), SegmentDelta(1, 1, 0)) == pytest.approx(45.0)


def test_turn_angle_vertical_segment_is_degenerate():
    with pytest.raises(DegenerateSegment):
        turn_angle(SegmentDelta(0, 0, 5), SegmentDelta(1, 0, 0))
    with pytest.raises(DegenerateSegment):
        turn_angle(SegmentDelta(1, 0, 0), SegmentDelta(0, 0, -5))


def test_pitch_angle_values():
    assert pitch_angle(SegmentDelta(5, 0, 0)) == pytest.approx(0.0)
    assert pitch_angle(SegmentDelta(0, 0, 5)) == pytest.approx(90.0)
    assert pitch_angle(SegmentDelta(3, 0, 4)) == pytest.approx(math.degrees(math.asin(0.8)))


def test_pitch_angle_zero_length_is_degenerate():
    with pytest.raises(DegenerateSegment):
        pitch_angle(SegmentDelta(0, 0, 0))


@given(
    qx=finite, qy=finite, qz=finite,
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
# Nearly vertical: asin(qz / length) gave 89.99999879 here and 90.0 scaled.
@example(qx=0.0, qy=1e-5, qz=631.6853191745588, scale=1.25)
def test_angles_invariant_under_positive_scaling(qx, qy, qz, scale):
    d = SegmentDelta(qx, qy, qz)
    scaled = SegmentDelta(qx * scale, qy * scale, qz * scale)
    if math.hypot(qx, qy) > 1e-6:
        ref = SegmentDelta(1.0, 0.0, 0.0)
        assert turn_angle(d, ref) == pytest.approx(turn_angle(scaled, ref), abs=1e-6)
    if segment_length(d) > 1e-6:
        assert pitch_angle(d) == pytest.approx(pitch_angle(scaled), abs=1e-6)


@given(qx=finite, qy=finite, qz=finite)
def test_pitch_antisymmetric_under_horizontal_mirror(qx, qy, qz):
    d = SegmentDelta(qx, qy, qz)
    mirrored = SegmentDelta(qx, qy, -qz)
    if segment_length(d) > 1e-9:
        assert pitch_angle(d) == pytest.approx(-pitch_angle(mirrored), abs=1e-9)


# -- point-to-cuboid distance ------------------------------------------------


def brute_force_cuboid_distance(p, ob, n=12):
    """Oracle: minimum distance over a dense grid of surface points (zero if
    the query point is inside)."""
    q = np.array(p)
    lo, hi = np.array(ob.box[:3]), np.array(ob.box[3:])
    if np.all(q >= lo) and np.all(q <= hi):
        return 0.0
    best = math.inf
    lin = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    for axis in range(3):
        u, v = [i for i in range(3) if i != axis]
        uu, vv = np.meshgrid(lin[u], lin[v])
        for plane in (lo[axis], hi[axis]):
            pts = np.empty((uu.size, 3))
            pts[:, axis] = plane
            pts[:, u] = uu.ravel()
            pts[:, v] = vv.ravel()
            best = min(best, float(np.linalg.norm(pts - q, axis=1).min()))
    return best


def test_distance_worked_examples(reference_obstacle):
    assert point_to_cuboid_distance(Point3(3, 3, 1), reference_obstacle) == 0.0
    assert point_to_cuboid_distance(Point3(0, 0, 0), reference_obstacle) == pytest.approx(
        math.sqrt(8)
    )
    assert point_to_cuboid_distance(Point3(5, 2, 0), reference_obstacle) == pytest.approx(1.0)


@given(px=finite, py=finite, pz=finite)
def test_distance_matches_surface_sampling_oracle(px, py, pz):
    p = Point3(px, py, pz)
    exact = point_to_cuboid_distance(p, REF_OB)
    sampled = brute_force_cuboid_distance(p, REF_OB)
    # Surface sampling can only overestimate, by at most the grid diagonal.
    resolution = math.hypot(3.0 / 11, 4.0 / 11)
    assert exact <= sampled + 1e-9
    assert sampled - exact <= resolution


def test_batched_distance_agrees_with_scalar(rng, reference_obstacle):
    pts = rng.uniform(-5, 10, size=(50, 3))
    lo, hi = obstacle_arrays([reference_obstacle])
    batched = points_to_cuboids_distance(pts, lo, hi)[:, 0]
    for p, d in zip(pts, batched):
        assert d == pytest.approx(point_to_cuboid_distance(Point3(*p.tolist()), reference_obstacle))


# -- segment-cuboid intersection ---------------------------------------------


def dense_segment_hits(a, b, ob, step=0.01):
    """Oracle: sample the segment densely and test containment (closed box)."""
    av, bv = np.array(a), np.array(b)
    n = max(2, int(np.ceil(np.linalg.norm(bv - av) / step)) + 1)
    t = np.linspace(0, 1, n)[:, None]
    pts = av * (1 - t) + bv * t
    return bool(((pts >= ob.box[:3]) & (pts <= ob.box[3:])).all(axis=1).any())


def slab_hits(a, b, ob, margin=0.0):
    """Does segment a-b hit ob inflated by margin? The verdicts of both slab
    kernels: `sampling.segment_free` and `segments_intersect_cuboids`."""
    lo, hi = obstacle_arrays([ob])
    return (
        not segment_free((a.x, a.y, a.z), (b.x, b.y, b.z), flatten_obstacles([ob], margin)),
        bool(segments_intersect_cuboids(np.array(a)[None], np.array(b)[None], lo, hi, margin)[0]),
    )


def test_segment_intersection_examples(reference_obstacle):
    assert slab_hits(Point3(0, 0, 1), Point3(1, 0, 1), reference_obstacle) == (False, False)
    assert slab_hits(Point3(1, 3, 1), Point3(5, 3, 1), reference_obstacle) == (True, True)
    inside = Point3(3, 3, 1)
    assert slab_hits(inside, inside, reference_obstacle) == (True, True)


@given(
    ax=finite, ay=finite, az=finite, bx=finite, by=finite, bz=finite,
)
def test_segment_intersection_matches_dense_sampling(ax, ay, az, bx, by, bz):
    step = 0.01
    a, b = Point3(ax, ay, az), Point3(bx, by, bz)
    sampled = dense_segment_hits(a, b, REF_OB, step)
    if sampled:
        # Sampling found a contained point: both slab tests must agree.
        assert slab_hits(a, b, REF_OB) == (True, True)
    elif any(slab_hits(a, b, REF_OB)):
        # The sampling stepped over the crossing; the clamp distance is
        # 1-Lipschitz along the segment, so the nearest sample must still be
        # within half a step of the box.
        av, bv = np.array(a), np.array(b)
        n = max(2, int(np.ceil(np.linalg.norm(bv - av) / step)) + 1)
        t = np.linspace(0, 1, n)[:, None]
        pts = av * (1 - t) + bv * t
        dists = [point_to_cuboid_distance(Point3(*p.tolist()), REF_OB) for p in pts]
        assert min(dists) <= step / 2 + 1e-9


def test_segment_intersection_respects_margin(reference_obstacle):
    a, b = Point3(0, 0, 1), Point3(1, 0, 1)  # passes ~2.2 m from the box
    assert slab_hits(a, b, reference_obstacle, margin=1.0) == (False, False)
    assert slab_hits(a, b, reference_obstacle, margin=3.0) == (True, True)


def test_path_collision_check(reference_obstacle):
    def verdicts(path, obstacles):
        boxes = flatten_obstacles(obstacles)
        lo, hi = obstacle_arrays(obstacles)
        return (
            all(segment_free(a, b, boxes) for a, b in zip(path[:-1], path[1:])),
            not segments_intersect_cuboids(path[:-1], path[1:], lo, hi).any(),
        )

    free = np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=float)
    assert verdicts(free, [reference_obstacle]) == (True, True)
    hitting = np.array([[1, 3, 1], [5, 3, 1]], dtype=float)
    assert verdicts(hitting, [reference_obstacle]) == (False, False)
    assert verdicts(hitting, []) == (True, True)


# -- obstacle invariants -----------------------------------------------------


def test_static_obstacle_must_be_grounded():
    with pytest.raises(ValueError):
        CuboidObstacle(anchor=Point3(0, 0, 5), len_x=1, len_y=1, len_z=1)
    floating = CuboidObstacle(
        anchor=Point3(0, 0, 5), len_x=1, len_y=1, len_z=1, kind=ObstacleKind.SUDDEN
    )
    assert floating.anchor.z == 5


def test_obstacle_edge_lengths_positive():
    with pytest.raises(ValueError):
        CuboidObstacle(anchor=Point3(0, 0, 0), len_x=0, len_y=1, len_z=1)


def test_obstacle_box_corners_and_centre_must_be_finite():
    # The far corner overflows, or the corner sum the centre halves does.
    with pytest.raises(ValueError, match="finite"):
        CuboidObstacle(anchor=Point3(1e308, 0, 0), len_x=1e308, len_y=1, len_z=1)
    with pytest.raises(ValueError, match="finite"):
        CuboidObstacle(anchor=Point3(1e308, 0, 0), len_x=10, len_y=10, len_z=10, kind=ObstacleKind.SUDDEN)
    with pytest.raises(ValueError, match="finite"):
        CuboidObstacle(anchor=Point3(0, 0, 0), len_x=math.nan, len_y=1, len_z=1)


def test_obstacle_corner_properties(reference_obstacle):
    assert reference_obstacle.box == (2.0, 2.0, 0.0, 4.0, 5.0, 4.0)
    c = reference_obstacle.center
    assert (c.x, c.y, c.z) == (3.0, 3.5, 2.0)
