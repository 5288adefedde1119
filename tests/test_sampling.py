import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_float_triples, dense_sample_penetrates, path_length
from skygrid.geometry import CuboidObstacle, Point3
from skygrid.sampling import (
    PlanningFailed,
    RrtParams,
    SMOOTH_WINDOW,
    Waypath,
    birrt_plan,
    flatten_obstacles,
    moving_average_smooth,
    point_free,
    resample_polyline,
    rrt_plan,
    segment_free,
    shortcut,
    smooth_and_resample,
    straight_points,
)
from skygrid.scenario import single_cell_scenario

BOUNDS = (np.zeros(3), np.array([200.0, 200.0, 50.0]))
CELL_OBS = list(single_cell_scenario().obstacles)
START = Point3(10.0, 90.0, 10.0)
GOAL = Point3(190.0, 130.0, 10.0)


def misses_cell_obstacles(path) -> bool:
    """Every segment of the path passes `segment_free` against CELL_OBS."""
    boxes = flatten_obstacles(CELL_OBS)
    return all(segment_free(a, b, boxes) for a, b in zip(path[:-1], path[1:]))


# -- low-level predicates ----------------------------------------------------


def test_flatten_and_point_free():
    boxes = flatten_obstacles(CELL_OBS)
    assert len(boxes) == 3
    assert not point_free((45.0, 55.0, 10.0), boxes)  # inside first building
    assert point_free((0.0, 0.0, 0.0), boxes)
    inflated = flatten_obstacles(CELL_OBS, margin=10.0)
    assert not point_free((35.0, 45.0, 10.0), inflated)


def test_segment_free_agrees_with_dense_sampling(rng):
    boxes = flatten_obstacles(CELL_OBS)
    for _ in range(300):
        a = rng.uniform((0, 0, 0), (200, 200, 50))
        b = rng.uniform((0, 0, 0), (200, 200, 50))
        free = segment_free(a, b, boxes)
        pierced = dense_sample_penetrates(np.array([a, b]), CELL_OBS, step=0.01)
        if pierced:
            assert not free
        # A graze shorter than the step can be missed by sampling; free paths
        # must never be contradicted by it.
        if free:
            assert not pierced


# -- waypath -----------------------------------------------------------------


def test_waypath_shape_validation():
    with pytest.raises(ValueError):
        Waypath(waypoints=np.zeros((3, 2)))
    wp = Waypath(waypoints=np.array([[0, 0, 0], [3, 4, 0]]))
    assert wp.waypoints.dtype == float
    assert path_length(wp.waypoints) == pytest.approx(5.0)


def test_straight_points_equally_spaced():
    wp = np.array(straight_points(Point3(0, 0, 0), Point3(9, 0, 0), count=10))
    assert wp.shape == (10, 3)
    assert np.allclose(wp[:, 0], np.arange(10.0))
    assert np.allclose(wp[:, 1:], 0.0)


# -- planners ----------------------------------------------------------------


@pytest.mark.parametrize("planner", [rrt_plan, birrt_plan])
def test_planner_connects_and_avoids_obstacles(planner, rng):
    raw = planner(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), rng)
    assert np.allclose(raw[0], np.array(START))
    assert np.allclose(raw[-1], np.array(GOAL))
    assert misses_cell_obstacles(raw)
    assert not dense_sample_penetrates(raw, CELL_OBS)


@pytest.mark.parametrize("planner", [rrt_plan, birrt_plan])
def test_planner_rejects_endpoint_inside_obstacle(planner, rng):
    inside = Point3(45.0, 55.0, 10.0)
    with pytest.raises(PlanningFailed):
        planner(BOUNDS, CELL_OBS, inside, GOAL, RrtParams(), rng)


@pytest.mark.parametrize("planner", [rrt_plan, birrt_plan])
def test_planner_fails_when_goal_sealed(planner, rng):
    # Box around the goal with no gap: nothing can connect.
    seal = CuboidObstacle(anchor=Point3(170.0, 110.0, 0.0), len_x=40.0, len_y=40.0, len_z=50.0)
    with pytest.raises(PlanningFailed):
        planner(BOUNDS, [seal], START, Point3(190.0, 130.0, 10.0), RrtParams(max_iterations=300), rng)


@pytest.mark.parametrize("planner", [rrt_plan, birrt_plan])
def test_planner_deterministic_per_seed(planner):
    a = planner(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), np.random.default_rng(3))
    b = planner(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_planner_short_hop_is_direct(rng):
    a, b = Point3(10, 10, 10), Point3(15, 10, 10)
    raw = rrt_plan(BOUNDS, CELL_OBS, a, b, RrtParams(step_size=10.0), rng)
    assert len(raw) == 2


@pytest.mark.parametrize("planner", [rrt_plan, birrt_plan])
def test_planner_outputs_are_float_triples(planner, rng):
    """Every planner output is a list of plain tuples of Python floats, so no
    `np.float64` and no `Point3` reaches a route."""
    raw = planner(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), rng)
    assert_float_triples(raw)
    assert_float_triples(smooth_and_resample(raw, CELL_OBS, count=20))
    # The trivial paths: a short hop, and coinciding endpoints.
    assert_float_triples(planner(BOUNDS, CELL_OBS, START, Point3(15.0, 90.0, 10.0), RrtParams(), rng))
    assert planner(BOUNDS, CELL_OBS, START, START, RrtParams(), rng) == [(10.0, 90.0, 10.0)]
    assert_float_triples(straight_points(START, GOAL, 7))
    assert_float_triples(resample_polyline([(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], 4))
    one = resample_polyline([START], 3)
    assert one == [(10.0, 90.0, 10.0)] * 3
    assert_float_triples(one)


def test_rrt_params_validation():
    with pytest.raises(ValueError):
        RrtParams(step_size=0)
    with pytest.raises(ValueError):
        RrtParams(goal_bias=1.5)
    with pytest.raises(ValueError):
        RrtParams(max_iterations=0)


# -- smoothing and resampling ------------------------------------------------


def test_shortcut_straightens_collinear_chain():
    path = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0)]
    assert shortcut(path, []) == [path[0], path[3]]


def test_shortcut_preserves_collision_freedom(rng):
    boxes = flatten_obstacles(CELL_OBS)
    raw = rrt_plan(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), rng)
    cut = shortcut(raw, boxes)
    assert len(cut) <= len(raw)
    assert misses_cell_obstacles(cut)
    assert np.allclose(cut[0], raw[0]) and np.allclose(cut[-1], raw[-1])


def test_moving_average_keeps_endpoints_and_freedom(rng):
    raw = rrt_plan(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), rng)
    smoothed = moving_average_smooth(raw, flatten_obstacles(CELL_OBS), 5)
    assert np.allclose(smoothed[0], raw[0]) and np.allclose(smoothed[-1], raw[-1])
    assert misses_cell_obstacles(smoothed)


def test_resample_two_point_line_equally_spaced():
    out = np.array(resample_polyline([(0.0, 0.0, 0.0), (90.0, 0.0, 0.0)], 10))
    assert np.allclose(out[:, 0], np.arange(10) * 10.0)


def test_resample_preserves_vertices():
    path = np.array([[0, 0, 0], [10, 0, 0], [10, 30, 0]], dtype=float)
    out = resample_polyline(path, 7)
    assert len(out) == 7
    for v in path:
        assert (np.linalg.norm(out - v, axis=1) < 1e-9).any()
    # Geometry unchanged: total length identical.
    assert np.linalg.norm(np.diff(out, axis=0), axis=1).sum() == pytest.approx(40.0)


def test_resample_rejects_too_many_vertices():
    path = np.array([[i, 0, 0] for i in range(10)], dtype=float)
    with pytest.raises(ValueError):
        resample_polyline(path, 5)
    with pytest.raises(ValueError):
        resample_polyline(path, 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=3, max_value=12),
    planner=st.sampled_from([rrt_plan, birrt_plan]),
)
def test_smooth_and_resample_contract(seed, count, planner):
    """Either `count` collision-free points through every smoothed vertex, or
    PlanningFailed when those vertices do not fit in `count` points."""
    rng = np.random.default_rng(seed)
    raw = planner(BOUNDS, CELL_OBS, START, GOAL, RrtParams(), rng)
    boxes = flatten_obstacles(CELL_OBS)
    smoothed = moving_average_smooth(shortcut(raw, boxes), boxes, SMOOTH_WINDOW)
    vertices = shortcut(smoothed, boxes)
    if len(vertices) > count:
        with pytest.raises(PlanningFailed, match=f"more than {count} waypoints"):
            smooth_and_resample(raw, CELL_OBS, count=count)
        return
    wp = np.array(smooth_and_resample(raw, CELL_OBS, count=count))
    assert wp.shape == (count, 3)
    assert np.allclose(wp[0], np.array(START))
    assert np.allclose(wp[-1], np.array(GOAL))
    for v in vertices:
        assert (np.linalg.norm(wp - v, axis=1) < 1e-9).any()
    assert misses_cell_obstacles(wp)
    assert not dense_sample_penetrates(wp, CELL_OBS)
    assert path_length(wp) <= np.linalg.norm(np.diff(raw, axis=0), axis=1).sum() + 1e-6


cell_point = st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0), st.floats(0.0, 50.0))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(cell_point, min_size=3, max_size=15))
def test_shortcut_neighbours_of_a_kept_vertex_never_see_each_other(points):
    """Each kept vertex is the farthest one its predecessor sees, so no kept
    vertex could be removed by bridging its two neighbours."""
    boxes = flatten_obstacles(CELL_OBS)
    out = shortcut(points, boxes)
    assert out[0] == points[0] and out[-1] == points[-1]
    for k in range(1, len(out) - 1):
        assert not segment_free(out[k - 1], out[k + 1], boxes)
