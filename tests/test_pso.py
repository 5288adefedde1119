import numpy as np
import pytest

from conftest import path_length, point_to_cuboid_distance
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3
from skygrid.pso import (
    VIOLATION_PENALTY,
    ConstraintParams,
    CostParams,
    SwarmParams,
    build_seed_population,
    feasibility_penalty,
    optimize,
    penalized_cost,
    trajectory_cost,
)
from skygrid.sampling import PlanningFailed, RrtParams, Waypath, straight_points
from skygrid.scenario import single_cell_scenario

BOUNDS = ((0.0, 0.0, 0.0), (200.0, 200.0, 50.0))
CELL_OBS = list(single_cell_scenario().obstacles)
START = Point3(10.0, 90.0, 10.0)
GOAL = Point3(190.0, 130.0, 10.0)
CONSTRAINTS = ConstraintParams()


def level_path(xs, y=0.0, z=10.0):
    return np.array([[x, y, z] for x in xs], dtype=float)


def straight(start, goal, count):
    return np.array(straight_points(start, goal, count))


# -- cost --------------------------------------------------------------------


def test_cost_is_pure_length_with_no_obstacles():
    wp = straight(Point3(0, 0, 10), Point3(100, 0, 10), 10)
    cp = CostParams()
    assert trajectory_cost(wp, [], [], cp) == pytest.approx(cp.k4 * 100.0)


def test_cost_adds_clearance_terms_per_obstacle_kind():
    wp = straight(Point3(0, 0, 10), Point3(100, 0, 10), 10)
    cp = CostParams()
    static = [CuboidObstacle(anchor=Point3(40, 30, 0), len_x=10, len_y=10, len_z=30)]
    sudden = [
        CuboidObstacle(
            anchor=Point3(60, 40, 5), len_x=8, len_y=8, len_z=8, kind=ObstacleKind.SUDDEN
        )
    ]
    d_static = sum(
        point_to_cuboid_distance(Point3(*p.tolist()), static[0]) for p in wp
    )
    d_sudden = sum(
        point_to_cuboid_distance(Point3(*p.tolist()), sudden[0]) for p in wp
    )
    expected = cp.k3 * (cp.k5 / d_static + cp.k6 / d_sudden) + cp.k4 * path_length(wp)
    assert trajectory_cost(wp, static, sudden, cp) == pytest.approx(expected)


def test_cost_infinite_when_summed_clearance_is_zero():
    static = [CuboidObstacle(anchor=Point3(40, 0, 0), len_x=10, len_y=10, len_z=30)]
    wp = level_path([41, 45, 49], y=5.0)  # every waypoint inside the box
    assert trajectory_cost(wp, static, [], CostParams()) == np.inf
    # A single contact keeps the sum positive, hence a finite cost.
    partial = level_path([0, 45, 90], y=5.0)
    assert np.isfinite(trajectory_cost(partial, static, [], CostParams()))


def test_cost_closer_paths_cost_more():
    static = [CuboidObstacle(anchor=Point3(40, 100, 0), len_x=10, len_y=10, len_z=30)]
    near = straight(Point3(0, 90, 10), Point3(100, 90, 10), 10)
    far = straight(Point3(0, 20, 10), Point3(100, 20, 10), 10)
    cp = CostParams()
    assert trajectory_cost(near, static, [], cp) > trajectory_cost(far, static, [], cp)


# -- constraints -------------------------------------------------------------


def test_feasible_path_has_zero_penalty():
    wp = straight(Point3(0, 0, 10), Point3(100, 0, 10), 10)
    assert feasibility_penalty(wp, CONSTRAINTS, []) == 0.0


def test_segment_length_violation():
    wp = level_path([0, 50, 100])  # two 50 m segments > l_max 40
    assert feasibility_penalty(wp, CONSTRAINTS, []) == 2 * VIOLATION_PENALTY


def test_total_length_violation():
    # 11 segments of 39 m: each under l_max but total 429 > L_max 400.
    wp = level_path([39.0 * i for i in range(12)])
    # Stretch bounds so the length limits are the only violations.
    c = ConstraintParams(bounds_hi=np.array([500.0, 200.0, 50.0]))
    assert feasibility_penalty(wp, c, []) == VIOLATION_PENALTY


def test_turn_angle_violation():
    wp = np.array([[0, 0, 10], [10, 0, 10], [12, 10, 10]], dtype=float)  # ~79 degree turn
    assert feasibility_penalty(wp, CONSTRAINTS, []) == VIOLATION_PENALTY


def test_vertical_segment_counts_as_violation():
    wp = np.array([[0, 0, 10], [10, 0, 10], [10, 0, 20], [20, 0, 20]], dtype=float)
    # The purely vertical middle segment breaks both turn junctions and the
    # pitch limit.
    penalty = feasibility_penalty(wp, CONSTRAINTS, [])
    assert penalty == 3 * VIOLATION_PENALTY


def test_pitch_violation():
    wp = np.array([[0, 0, 0], [10, 0, 0], [14, 0, 5], [24, 0, 5]], dtype=float)
    # Segment (10,0,0)->(14,0,5): pitch arcsin(5/sqrt(41)) ~ 51.3 degrees.
    assert feasibility_penalty(wp, CONSTRAINTS, []) == VIOLATION_PENALTY


def test_out_of_bounds_interior_waypoint():
    wp = np.array([[0, 0, 10], [10, 0, 60], [20, 0, 10]], dtype=float)
    c = ConstraintParams(l_max=100.0, ta_max=179.0, pa_max=89.0)
    assert feasibility_penalty(wp, c, []) == VIOLATION_PENALTY


def test_endpoints_exempt_from_bounds():
    wp = np.array([[-5, 0, 10], [10, 0, 10], [20, 0, 10]], dtype=float)
    assert feasibility_penalty(wp, CONSTRAINTS, []) == 0.0


def test_colliding_segment_penalized():
    ob = CuboidObstacle(anchor=Point3(40, 0, 0), len_x=10, len_y=20, len_z=30)
    wp = level_path([0, 30, 60, 90], y=5.0)  # segment 30->60 crosses the box
    assert feasibility_penalty(wp, CONSTRAINTS, [ob]) == VIOLATION_PENALTY


def test_constraint_params_validation():
    with pytest.raises(ValueError):
        ConstraintParams(l_max=0)
    with pytest.raises(ValueError):
        ConstraintParams(bounds_lo=np.array([0, 0, 0]), bounds_hi=np.array([0, 1, 1]))


# -- optimizer ---------------------------------------------------------------


def test_optimize_requires_consistent_seeds(rng):
    a = straight(Point3(0, 0, 10), Point3(100, 0, 10), 10)
    b = straight(Point3(0, 0, 10), Point3(100, 10, 10), 10)
    with pytest.raises(ValueError, match="share their endpoints"):
        optimize(np.array([a, b]), [], CostParams(), CONSTRAINTS, SwarmParams(), rng)
    with pytest.raises(ValueError, match="non-empty"):
        optimize(np.empty((0, 10, 3)), [], CostParams(), CONSTRAINTS, SwarmParams(), rng)
    with pytest.raises(ValueError, match="non-empty"):  # the last axis is not xyz
        optimize(np.array([a[:, :2]]), [], CostParams(), CONSTRAINTS, SwarmParams(), rng)
    with pytest.raises(ValueError):  # ragged: numpy refuses to build the array
        optimize([a, a[:5]], [], CostParams(), CONSTRAINTS, SwarmParams(), rng)


def test_optimize_never_worse_than_best_seed(rng):
    seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng)
    seed_costs = [penalized_cost(Waypath(s), CELL_OBS, CostParams(), CONSTRAINTS) for s in seeds]
    best, history = optimize(seeds, CELL_OBS, CostParams(), CONSTRAINTS, SwarmParams(), rng)
    final = penalized_cost(Waypath(best), CELL_OBS, CostParams(), CONSTRAINTS)
    assert final <= min(seed_costs) + 1e-9
    assert history[0] == pytest.approx(min(seed_costs))


def test_optimize_history_monotone_and_endpoints_fixed(rng):
    seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng)
    best, history = optimize(seeds, CELL_OBS, CostParams(), CONSTRAINTS, SwarmParams(), rng)
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert best.shape == (10, 3)
    assert np.array_equal(best[0], np.array(START))
    assert np.array_equal(best[-1], np.array(GOAL))


def test_optimize_deterministic_per_seed():
    def run():
        rng = np.random.default_rng(11)
        seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng)
        best, history = optimize(seeds, CELL_OBS, CostParams(), CONSTRAINTS, SwarmParams(), rng)
        return best, list(history)

    (wa, ha), (wb, hb) = run(), run()
    assert np.array_equal(wa, wb) and ha == hb


def test_optimize_early_stop_on_stall(rng):
    # A single straight feasible seed in an empty cell is already optimal:
    # the run should stop at the stall budget, well under max_iterations.
    seeds = straight(Point3(0, 0, 10), Point3(100, 0, 10), 10)[None]
    params = SwarmParams(max_iterations=100, stall_iterations=20)
    _, history = optimize(seeds, [], CostParams(), CONSTRAINTS, params, rng)
    assert len(history) <= 30


# -- seed population ---------------------------------------------------------


def test_seed_population_composition(rng):
    seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng)
    sp = SwarmParams()
    assert seeds.shape == (sp.n_rrt + sp.n_birrt + 1, 10, 3)
    for s in seeds:
        assert np.allclose(s[0], np.array(START))
        assert np.allclose(s[-1], np.array(GOAL))


def test_straight_seed_included_even_when_colliding(rng):
    # The default start/goal straight line passes through the first building.
    seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng)
    line = straight(START, GOAL, 10)
    assert any(np.allclose(s, line) for s in seeds)
    assert feasibility_penalty(line, CONSTRAINTS, CELL_OBS) > 0


def test_seed_that_cannot_be_smoothed_to_count_is_a_failure():
    # A 60 m thick wall leaves a 30 m gap at the far side of the cell: every
    # path around it needs a vertex at each of its two far corners, so no
    # smoothed path fits in 3 points.
    wall = CuboidObstacle(anchor=Point3(70.0, 0.0, 0.0), len_x=60.0, len_y=170.0, len_z=50.0)
    start, goal = Point3(10.0, 20.0, 10.0), Point3(190.0, 20.0, 10.0)
    swarm = SwarmParams(n_rrt=2, n_birrt=2)
    # Smoothing draws nothing, so both calls plan the same four raw paths.
    seeds = build_seed_population(
        BOUNDS, [wall], start, goal, np.random.default_rng(0), swarm=swarm, count=10
    )
    assert len(seeds) == 5
    with pytest.raises(PlanningFailed, match="fit 3 waypoints"):
        build_seed_population(
            BOUNDS, [wall], start, goal, np.random.default_rng(0), swarm=swarm, count=3
        )
