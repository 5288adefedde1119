"""Exactness of the table-driven coarse search, cell lookup and exit faces.

`plan_coarse`, `sliding_window_replan`, `AirspaceGrid.locate`,
`AirspaceGrid.adjacency` and the (lo, hi) exit faces of
`AirspaceGrid.shared_face`, `attraction_region` and `select_exit_point` are
compared with frozen copies of their earlier code (`reference_kernels.py`):
the same cells, the same total cost to the last bit, the same exception for
points outside the airspace, and the same exit points and generator states.
The search takes the cell costs `node_costs` builds; the frozen copy takes
the counts and builds them itself. The frozen search is the label-setting
Dijkstra; the live one is A* over the same labels with a Manhattan bound, so
the cases include walls of costly cells that the bound points through.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from skygrid.coarse import (
    CoarsePlan,
    SspParams,
    attraction_region,
    node_costs,
    plan_coarse,
    select_exit_point,
    sliding_window_replan,
)
from skygrid.geometry import Point3
from skygrid.grid import AirspaceGrid

shapes = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
weights = st.sampled_from([(0.01, 0.99), (0.5, 0.5), (0.3, 0.7), (0.9, 0.1)])


@st.composite
def counts_for(draw, n: int):
    """Per-cell counts: all zero (every cell ties), sparse or dense."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        return np.zeros(n, dtype=int)
    values = [0, 0, 0, 0, 1] if kind == "sparse" else [0, 1, 2, 3, 7]
    return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=int)


@st.composite
def coarse_cases(draw):
    counts = draw(shapes)
    grid = AirspaceGrid(extent=(100.0, 80.0, 30.0), counts=counts)
    n = grid.n_cells
    occupancy = draw(counts_for(n))
    obstacle_counts = draw(counts_for(n))
    k1, k2 = draw(weights)
    start = draw(st.integers(1, n))
    goal = start if draw(st.booleans()) else draw(st.integers(1, n))
    return grid, SspParams(k1=k1, k2=k2), occupancy, start, goal, obstacle_counts


def _check(case):
    grid, params, occupancy, start, goal, obstacle_counts = case
    plan = plan_coarse(grid, node_costs(params, occupancy, obstacle_counts), start, goal)
    cells, cost = ref.plan_coarse(grid, params, occupancy, start, goal, obstacle_counts)
    assert plan.cells == cells
    assert plan.total_cost == cost


@settings(max_examples=500, deadline=None)
@given(case=coarse_cases())
def test_plan_coarse_matches_reference(case):
    _check(case)


def test_plan_coarse_matches_reference_on_line_and_single_cell_grids():
    for counts in ((1, 1, 1), (1, 6, 1), (6, 1, 1), (1, 1, 6)):
        grid = AirspaceGrid(extent=(10.0, 10.0, 10.0), counts=counts)
        n = grid.n_cells
        for start in range(1, n + 1):
            for goal in range(1, n + 1):
                zeros = np.zeros(n, dtype=int)
                _check((grid, SspParams(), zeros, start, goal, zeros))


def test_plan_coarse_matches_reference_on_every_pair_with_ties():
    # All-zero costs on the reference grid: every path of minimum length ties
    # on cost and length, so the cell-id sequence decides.
    grid = AirspaceGrid(extent=(1000.0, 1000.0, 250.0), counts=(5, 5, 5))
    zeros = np.zeros(125, dtype=int)
    for start in range(1, 126, 7):
        for goal in range(1, 126):
            _check((grid, SspParams(), zeros, start, goal, zeros))


@settings(max_examples=200, deadline=None)
@given(
    occupancy=st.lists(st.sampled_from([0] * 15 + [1, 2]), min_size=256, max_size=256),
    start=st.integers(1, 256),
    goal=st.integers(1, 256),
)
def test_plan_coarse_matches_reference_on_open_sky_plateaus(occupancy, start, goal):
    # An 8 x 8 x 4 grid with no buildings and a few occupied cells, as in an
    # open sky: long zero-cost plateaus, where many labels tie on cost and a
    # settled cell is reached again from most of its neighbours.
    grid = AirspaceGrid(extent=(1600.0, 1600.0, 200.0), counts=(8, 8, 4))
    _check((grid, SspParams(), np.array(occupancy), start, goal, np.zeros(256, dtype=int)))


# Cost sums that tie only after rounding: a label pushed later for a cell can
# be smaller than the first one (equal cost, fewer cells), so the search must
# compare whole labels. Found by a random search against the reference.
ROUNDING_TIES = [
    ((2, 2, 2), 0.9, [0, 1, 1, 3, 2, 0, 50, 0], [0, 0, 0, 3, 0, 75, 75, 3], 6, 7),
    ((2, 3, 2), 0.03, [0, 50, 1000, 0, 2, 7, 50, 3, 0, 7, 7, 2],
     [0, 3, 0, 0, 9, 1, 3, 0, 1, 0, 0, 1], 5, 10),
    ((2, 4, 2), 0.7, [1000, 50, 2, 7, 1, 1, 1, 0, 1, 3, 3, 2, 0, 0, 3, 0],
     [9, 1, 75, 3, 9, 2, 75, 75, 0, 0, 3, 75, 0, 75, 1, 1], 3, 2),
]


@pytest.mark.parametrize("counts,k1,occupancy,obstacle_counts,start,goal", ROUNDING_TIES)
def test_plan_coarse_matches_reference_when_costs_tie_after_rounding(
    counts, k1, occupancy, obstacle_counts, start, goal
):
    grid = AirspaceGrid(extent=(10.0, 10.0, 10.0), counts=counts)
    params = SspParams(k1=k1, k2=1 - k1)
    _check((grid, params, np.array(occupancy), start, goal, np.array(obstacle_counts)))


@st.composite
def walled_cases(draw, counts):
    """A plane of high-cost cells across one axis with one gap, and start and
    goal on either side of it: the Manhattan bound points through the wall,
    and the cheapest path detours through the gap or pays to cross."""
    grid = AirspaceGrid(extent=(1600.0, 1600.0, 400.0), counts=counts)
    n = grid.n_cells
    axis = draw(st.sampled_from([i for i in range(3) if counts[i] >= 3]))
    plane = draw(st.integers(1, counts[axis] - 2))
    gap = [draw(st.integers(0, c - 1)) for c in counts]
    gap[axis] = plane
    wall = draw(st.sampled_from([2, 5, 50, 1000]))
    # Drawn from a seed: a 4096-cell list is too large an example to draw.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupancy = rng.choice([0] * 15 + [1, 2], n)
    for cell in range(1, n + 1):
        c = grid.cell_coords(cell)
        if c[axis] == plane and list(c) != gap:
            occupancy[cell - 1] = wall

    def side(lo, hi):
        c = [draw(st.integers(0, k - 1)) for k in counts]
        c[axis] = draw(st.integers(lo, hi))
        return grid.cell_id(*c)

    start, goal = side(0, plane - 1), side(plane + 1, counts[axis] - 1)
    if draw(st.booleans()):
        start, goal = goal, start
    k1, k2 = draw(weights)
    zeros = np.zeros(n, dtype=int)
    return grid, SspParams(k1=k1, k2=k2), occupancy, start, goal, zeros


@settings(max_examples=200, deadline=None)
@given(case=walled_cases((8, 8, 4)))
def test_plan_coarse_matches_reference_behind_a_wall_with_one_gap(case):
    _check(case)


@settings(max_examples=25, deadline=None)
@given(case=walled_cases((16, 16, 16)))
def test_plan_coarse_matches_reference_behind_a_wall_on_the_largest_grid(case):
    _check(case)


@settings(max_examples=200, deadline=None)
@given(counts=st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16)), data=st.data())
def test_goal_distances_are_a_consistent_manhattan_bound(counts, data):
    grid = AirspaceGrid(extent=(10.0, 10.0, 10.0), counts=counts)
    goal = data.draw(st.integers(1, grid.n_cells))
    table = grid.goal_distances(goal)
    assert grid.goal_distances(goal) is table  # built once per goal
    assert len(table) == grid.n_cells + 1 and table[0] == 0 and table[goal] == 0
    g = grid.coords[goal]
    for cell in range(1, grid.n_cells + 1):
        assert table[cell] == sum(abs(u - v) for u, v in zip(grid.coords[cell], g))
        assert all(abs(table[cell] - table[nb]) <= 1 for nb in grid.adjacency[cell])


@settings(max_examples=300, deadline=None)
@given(case=coarse_cases(), data=st.data())
def test_sliding_window_replan_matches_reference(case, data):
    grid, params, occupancy, start, goal, obstacle_counts = case
    params = SspParams(k1=params.k1, k2=params.k2, window_length=data.draw(st.integers(1, 6)))
    cells, cost = ref.plan_coarse(grid, params, occupancy, start, goal, obstacle_counts)
    existing = CoarsePlan(cells=cells, total_cost=cost)
    current = data.draw(st.sampled_from(cells))
    fresh = data.draw(counts_for(grid.n_cells))
    costs = node_costs(params, fresh, obstacle_counts)
    got = sliding_window_replan(grid, params, costs, existing, current, goal)
    if existing.remaining_cells(current) <= params.window_length:
        assert got is existing
    else:
        want_cells, want_cost = ref.plan_coarse(grid, params, fresh, current, goal, obstacle_counts)
        assert got.cells == want_cells and got.total_cost == want_cost


# -- exit faces ----------------------------------------------------------------


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _box(face: ref.Face) -> tuple[list[float], list[float]]:
    """The frozen Face as (lo, hi) corners."""
    lo, hi = [face.plane] * 3, [face.plane] * 3
    lo[face.u_axis], hi[face.u_axis] = face.u_range
    lo[face.v_axis], hi[face.v_axis] = face.v_range
    return lo, hi


@st.composite
def face_walks(draw):
    """A grid, a face-adjacent walk of 2-7 cells and the window of 1-6 cells
    that starts it; the exit face lies between the walk's first two cells."""
    extent = draw(st.tuples(*[st.sampled_from([1.0, 2.5, 3.3, 7.0, 250.0, 1000.0])] * 3))
    grid = AirspaceGrid(extent=extent, counts=draw(shapes.filter(lambda c: c != (1, 1, 1))))
    walk = [draw(st.integers(1, grid.n_cells))]
    for _ in range(draw(st.integers(1, 6))):
        walk.append(draw(st.sampled_from(grid.adjacency[walk[-1]])))
    return grid, walk, walk[: draw(st.integers(1, 6))]


@settings(max_examples=500, deadline=None)
@given(case=face_walks(), seed=st.integers(0, 2**32 - 1))
def test_exit_faces_match_reference(case, seed):
    """The same region corners and exit points to the bit, and the generator
    left in the same state. A one-cell window kept the whole face, which the
    simulation did by not calling the frozen attraction_region."""
    grid, walk, window = case
    face = grid.shared_face(walk[0], walk[1])
    want_face = ref.shared_face(grid, walk[0], walk[1])
    assert [_bits(c) for c in face] == [_bits(c) for c in _box(want_face)]
    region = attraction_region(grid, window, face)
    want = ref.attraction_region(grid, window, want_face) if len(window) >= 2 else want_face
    assert [_bits(c) for c in region] == [_bits(c) for c in _box(want)]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        p = select_exit_point(region, got_rng)
        assert _bits((p.x, p.y, p.z)) == _bits(ref.select_exit_point(want, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_shared_face_rejects_what_the_reference_rejects():
    grid = AirspaceGrid(extent=(3.0, 3.0, 3.0), counts=(3, 3, 3))
    for a in range(1, 28):
        for b in range(1, 28):
            got = _outcome(lambda pair: grid.shared_face(*pair), (a, b))
            want = _outcome(lambda pair: ref.shared_face(grid, *pair), (a, b))
            if isinstance(want, ref.Face):
                want = tuple(tuple(c) for c in _box(want))
            assert got == want


# -- grid tables --------------------------------------------------------------


def test_neighbors_are_the_face_adjacent_cells():
    for counts in ((1, 1, 1), (1, 5, 1), (2, 3, 4), (6, 6, 6)):
        grid = AirspaceGrid(extent=(6.0, 6.0, 6.0), counts=counts)
        coords = {c: grid.cell_coords(c) for c in range(1, grid.n_cells + 1)}
        for a, ca in coords.items():
            brute = {b for b, cb in coords.items() if sum(abs(u - v) for u, v in zip(ca, cb)) == 1}
            assert set(grid.adjacency[a]) == brute == ref.neighbors(grid, a)
            assert grid.adjacency[a] == tuple(sorted(brute))


def _outcome(locate, p):
    try:
        return locate(p)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


@st.composite
def lattice_points(draw):
    """Points on the face planes of the grid, just beside them, at the extent
    and outside it, plus arbitrary points."""
    extent = draw(st.tuples(*[st.sampled_from([1.0, 3.3, 7.0, 250.0, 1000.0])] * 3))
    counts = draw(shapes)
    grid = AirspaceGrid(extent=extent, counts=counts)
    coords = []
    for axis in range(3):
        size = grid.cell_size[axis]
        plane = draw(st.integers(-1, counts[axis] + 1)) * size
        coords.append(
            draw(
                st.one_of(
                    st.just(plane),
                    st.just(float(np.nextafter(plane, -np.inf))),
                    st.just(float(np.nextafter(plane, np.inf))),
                    st.sampled_from([0.0, -0.0, extent[axis], -1e-300]),
                    st.floats(-0.1 * extent[axis], 1.1 * extent[axis]),
                )
            )
        )
    return grid, Point3(*coords)


@settings(max_examples=1000, deadline=None)
@given(case=lattice_points())
@example(case=(AirspaceGrid(extent=(1.0, 1.0, 1.0), counts=(1, 1, 1)), Point3(1.0, 1.0, 1.0)))
@example(case=(AirspaceGrid(extent=(3.3, 1.0, 1.0), counts=(3, 1, 1)), Point3(2.2, -1.0, 5.0)))
def test_locate_matches_reference(case):
    grid, p = case
    want = _outcome(lambda q: ref.locate(grid, q), p)
    assert _outcome(grid.locate, p) == want


def test_locate_matches_reference_on_a_face_lattice():
    grid = AirspaceGrid(extent=(1000.0, 1000.0, 250.0), counts=(5, 5, 5))
    axes = [
        sorted({k * grid.cell_size[i] + d for k in range(-1, 7) for d in (-1e-9, 0.0, 1e-9)})
        for i in range(3)
    ]
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                p = Point3(x, y, z)
                assert _outcome(grid.locate, p) == _outcome(
                    lambda q: ref.locate(grid, q), p
                )
