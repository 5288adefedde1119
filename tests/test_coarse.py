import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exhaustive_min_cost
from skygrid.coarse import (
    CoarsePlan,
    SspParams,
    attraction_region,
    node_costs,
    plan_coarse,
    select_exit_point,
    sliding_window_replan,
)
from skygrid.grid import AirspaceGrid

GRID = AirspaceGrid(extent=(1000.0, 1000.0, 250.0), counts=(5, 5, 5))
EMPTY = np.zeros(125, dtype=int)
ZERO_COSTS = node_costs(SspParams(), EMPTY, EMPTY)


# -- parameters and node cost ------------------------------------------------


def test_ssp_params_validation():
    with pytest.raises(ValueError):
        SspParams(k1=0.5, k2=0.6)
    with pytest.raises(ValueError):
        SspParams(k1=0.0, k2=1.0)
    with pytest.raises(ValueError):
        SspParams(window_length=0)


def cell_cost(params, o_n, aec_n):
    """The cost of a one-cell plan whose cell holds o_n obstacles and aec_n UAVs."""
    counts, occupancy = EMPTY.copy(), EMPTY.copy()
    counts[6], occupancy[6] = o_n, aec_n
    return plan_coarse(GRID, node_costs(params, occupancy, counts), 7, 7).total_cost


def test_node_cost_blends_obstacles_and_occupancy():
    p = SspParams()
    assert cell_cost(p, 0, 0) == 0.0
    assert cell_cost(p, 3, 0) == pytest.approx(0.03)
    assert cell_cost(p, 0, 2) == pytest.approx(1.98)
    assert cell_cost(p, 3, 2) == pytest.approx(0.01 * 3 + 0.99 * 2)
    with pytest.raises(ValueError):
        cell_cost(p, -1, 0)


def test_occupancy_dominates_obstacles_with_default_weights():
    # One extra UAV outweighs 98 extra obstacles under k1=0.01, k2=0.99.
    p = SspParams()
    assert cell_cost(p, 98, 0) < cell_cost(p, 0, 1)


# -- coarse planning ---------------------------------------------------------


def test_plan_trivial_same_cell():
    plan = plan_coarse(GRID, ZERO_COSTS, 7, 7)
    assert plan.cells == [7]


def test_plan_uniform_costs_prefers_shortest_then_lexicographic():
    plan = plan_coarse(GRID, ZERO_COSTS, 1, 3)
    assert plan.cells == [1, 2, 3]
    # 1 -> 49 requires 3 x-steps, 4 y-steps, 1 z-step: 9 cells minimum.
    plan = plan_coarse(GRID, ZERO_COSTS, 1, 49)
    assert len(plan.cells) == 9
    assert plan.cells[0] == 1 and plan.cells[-1] == 49
    for a, b in zip(plan.cells, plan.cells[1:]):
        assert b in GRID.adjacency[a]


def test_plan_detours_around_expensive_cell():
    occupancy = np.zeros(125, dtype=int)
    occupancy[1] = 10  # cell 2 very crowded
    plan = plan_coarse(GRID, node_costs(SspParams(), occupancy, EMPTY), 1, 3)
    assert 2 not in plan.cells
    assert plan.cells[0] == 1 and plan.cells[-1] == 3


def test_plan_deterministic():
    a = plan_coarse(GRID, ZERO_COSTS, 1, 125)
    b = plan_coarse(GRID, ZERO_COSTS, 1, 125)
    assert a.cells == b.cells and a.total_cost == b.total_cost


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_cost_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    grid = AirspaceGrid(extent=(3.0, 3.0, 3.0), counts=(3, 3, 3))
    counts = rng.integers(0, 6, size=27)
    occupancy = rng.integers(0, 4, size=27)
    start, goal = (int(v) for v in rng.choice(27, size=2, replace=False) + 1)
    params = SspParams()
    plan = plan_coarse(grid, node_costs(params, occupancy, counts), start, goal)

    def cost_of(c):
        return params.k1 * int(counts[c - 1]) + params.k2 * int(occupancy[c - 1])

    assert plan.total_cost == pytest.approx(exhaustive_min_cost(grid, cost_of, start, goal))
    assert plan.total_cost == pytest.approx(sum(cost_of(c) for c in plan.cells))


# -- sliding window ----------------------------------------------------------


def test_sliding_window_replans_when_room_remains():
    plan = plan_coarse(GRID, ZERO_COSTS, 1, 49)
    occupancy = np.zeros(125, dtype=int)
    occupancy[plan.cells[1] - 1] = 10  # next planned cell becomes crowded
    costs = node_costs(SspParams(), occupancy, EMPTY)
    new = sliding_window_replan(GRID, SspParams(), costs, plan, plan.cells[0], 49)
    assert plan.cells[1] not in new.cells


def test_sliding_window_keeps_plan_near_goal():
    plan = CoarsePlan(cells=[1, 2, 3, 4])
    kept = sliding_window_replan(GRID, SspParams(window_length=4), ZERO_COSTS, plan, 1, 4)
    assert kept is plan  # exactly window_length cells remain: no re-plan
    kept = sliding_window_replan(GRID, SspParams(window_length=4), ZERO_COSTS, plan, 3, 4)
    assert kept is plan


def test_remaining_cells():
    plan = CoarsePlan(cells=[5, 6, 7])
    assert plan.remaining_cells(5) == 3
    assert plan.remaining_cells(7) == 1
    assert plan.remaining_cells(99) == 0


# -- attraction mechanism ----------------------------------------------------


def test_attraction_full_face_when_no_direction_change():
    # Straight run along x: the window never turns, the face stays whole.
    face = GRID.shared_face(1, 2)
    region = attraction_region(GRID, [1, 2, 3, 4], face)
    assert region == face


def test_attraction_half_face_on_single_turn():
    # 1 -> 2 crosses x; the later +y step attracts toward the upper y half.
    face = GRID.shared_face(1, 2)
    assert face == ((200.0, 0.0, 0.0), (200.0, 200.0, 50.0))
    region = attraction_region(GRID, [1, 2, 7, 8], face)
    # The y in-plane axis is split upward; z is untouched.
    assert region == ((200.0, 100.0, 0.0), (200.0, 200.0, 50.0))


def test_attraction_quadrant_on_two_turns():
    # After crossing x=200, the window turns +y then +z: quadrant selection.
    face = GRID.shared_face(1, 2)
    region = attraction_region(GRID, [1, 2, 7, 32], face)
    assert region == ((200.0, 100.0, 25.0), (200.0, 200.0, 50.0))


def test_attraction_negative_turn_picks_lower_half():
    face = GRID.shared_face(7, 8)
    assert face == ((400.0, 200.0, 0.0), (400.0, 400.0, 50.0))
    region = attraction_region(GRID, [7, 8, 3], face)  # -y after crossing x
    assert region == ((400.0, 200.0, 0.0), (400.0, 300.0, 50.0))


def test_attraction_one_cell_window_keeps_whole_face():
    # A window of one cell holds no move to attract toward.
    face = GRID.shared_face(1, 2)
    assert attraction_region(GRID, [1], face) == face


# -- exit-point sampling -----------------------------------------------------


def test_exit_point_inside_region_with_clearance(rng):
    face = GRID.shared_face(1, 2)
    for _ in range(200):
        p = select_exit_point(face, rng)
        assert p.x == 200.0
        assert 1.0 <= p.y <= 199.0
        assert 1.0 <= p.z <= 49.0


def test_exit_point_zero_width_region_collapses_to_midpoint(rng):
    state = rng.bit_generator.state
    p = select_exit_point(((200.0, 50.0, 0.0), (200.0, 50.0, 1.0)), rng)
    assert (p.x, p.y, p.z) == (200.0, 50.0, 0.5)
    assert rng.bit_generator.state == state  # no axis wide enough to draw on


def test_exit_point_deterministic_per_seed():
    face = GRID.shared_face(1, 2)
    a = select_exit_point(face, np.random.default_rng(5))
    b = select_exit_point(face, np.random.default_rng(5))
    assert (a.x, a.y, a.z) == (b.x, b.y, b.z)
