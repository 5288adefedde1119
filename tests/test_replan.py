import numpy as np
import pytest

from conftest import assert_float_triples, dense_sample_penetrates, make_sudden
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3
from skygrid.pso import ConstraintParams
from skygrid.replan import detect_conflicts, repair
from skygrid.sampling import PlanningFailed, straight_points
from skygrid.scenario import single_cell_scenario

CELL_OBS = list(single_cell_scenario().obstacles)
CONSTRAINTS = ConstraintParams()


def level_path(n=10, y=20.0, z=10.0, x_max=180.0):
    """A straight level route as float triples, the form routes are kept in."""
    return straight_points(Point3(0.0, y, z), Point3(x_max, y, z), n)


def midpoint(a, b):
    return tuple((p + q) / 2 for p, q in zip(a, b))


# -- conflict detection ------------------------------------------------------


def test_no_conflicts_when_far():
    path = level_path()
    ob = make_sudden((100.0, 150.0, 40.0))
    assert detect_conflicts(path, ob) == set()


def test_contained_waypoint_flags_only_itself():
    path = level_path()
    ob = make_sudden(path[5])
    assert detect_conflicts(path, ob) == {5}


def test_crossing_segment_flags_both_endpoints():
    # Obstacle straddles the midpoint of segment 3-4 without containing
    # either waypoint (segment length 20 m, cube side 6 m).
    path = level_path()
    ob = make_sudden(midpoint(path[3], path[4]))
    assert detect_conflicts(path, ob) == {3, 4}


def test_detection_requires_sudden_kind():
    static = CuboidObstacle(anchor=Point3(0, 0, 0), len_x=1, len_y=1, len_z=1)
    with pytest.raises(ValueError):
        detect_conflicts(level_path(), static)


# -- repair ------------------------------------------------------------------


def test_repair_requires_conflicts(rng):
    """A route clear of the obstacle has nothing to repair."""
    path = level_path()
    ob = make_sudden((100.0, 150.0, 40.0))
    assert repair(path, ob, CELL_OBS, CONSTRAINTS, rng) is None


def test_repair_preserves_outside_bracket_bitwise(rng):
    path = level_path()
    ob = make_sudden(path[5])
    repaired = repair(path, ob, CELL_OBS, CONSTRAINTS, rng)
    assert_float_triples(repaired)
    assert repaired[:5] == path[:5]
    tail = path[6:]
    assert repaired[-len(tail):] == tail


def test_repair_result_collision_free(rng):
    path = level_path()
    ob = make_sudden(path[5])
    repaired = repair(path, ob, CELL_OBS, CONSTRAINTS, rng)
    assert not dense_sample_penetrates(repaired, CELL_OBS + [ob])
    # Idempotence: the repaired path no longer conflicts.
    assert detect_conflicts(repaired, ob) == set()
    assert repair(repaired, ob, CELL_OBS, CONSTRAINTS, rng) is None


def test_repair_crossing_segment_brackets_with_flagged_endpoints(rng):
    path = level_path()
    ob = make_sudden(midpoint(path[3], path[4]))
    repaired = repair(path, ob, CELL_OBS, CONSTRAINTS, rng)
    assert repaired[:4] == path[:4]
    tail = path[4:]
    assert repaired[-len(tail):] == tail
    assert detect_conflicts(repaired, ob) == set()


def test_repair_widens_bracket_past_contained_neighbors(rng):
    path = level_path()
    # Large obstacle swallowing waypoints 4-6: bracket must widen to (3, 7).
    ob = make_sudden(path[5], side=42.0)
    conflicts = detect_conflicts(path, ob)
    assert {4, 5, 6} <= conflicts
    repaired = repair(path, ob, CELL_OBS, CONSTRAINTS, rng)
    assert repaired[:4] == path[:4]
    tail = path[7:]
    assert repaired[-len(tail):] == tail
    assert detect_conflicts(repaired, ob) == set()


def test_repair_fails_when_endpoint_engulfed(rng):
    path = level_path(n=4)
    # Obstacle covering the final waypoint: no free bracket on the right.
    ob = make_sudden(path[-1], side=30.0)
    with pytest.raises(PlanningFailed, match="no collision-free bracketing waypoints remain"):
        repair(path, ob, CELL_OBS, CONSTRAINTS, rng)


def test_repair_fails_in_sealed_corridor(rng):
    # A corridor cell 20 m tall, obstacle slab sealing it wall to wall between
    # the bracket points: Bi-RRT cannot connect.
    slab_cell = ConstraintParams(bounds_lo=np.zeros(3), bounds_hi=np.array([100.0, 20.0, 20.0]))
    path = straight_points(Point3(0, 10, 10), Point3(100, 10, 10), 6)
    seal = CuboidObstacle(
        anchor=Point3(45.0, 0.0, 0.0), len_x=10.0, len_y=20.0, len_z=20.0,
        kind=ObstacleKind.SUDDEN, id="seal",
    )
    from skygrid.sampling import RrtParams

    with pytest.raises(PlanningFailed, match="Bi-RRT failed to connect within 200 iterations"):
        repair(path, seal, [], slab_cell, rng, RrtParams(max_iterations=200))


def test_repair_deterministic_per_seed():
    path = level_path()
    ob = make_sudden(path[5])

    def run():
        return repair(path, ob, CELL_OBS, CONSTRAINTS, np.random.default_rng(9))

    assert run() == run()
