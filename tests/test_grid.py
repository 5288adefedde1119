import numpy as np
import pytest
from hypothesis import given, strategies as st

from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3
from skygrid.grid import AirspaceGrid, NotAdjacent, OutOfAirspace


def make_grid(obstacles=()):
    return AirspaceGrid(extent=(1000.0, 1000.0, 250.0), counts=(5, 5, 5), obstacles=list(obstacles))


# -- construction ------------------------------------------------------------


def test_rejects_bad_extent_and_counts():
    with pytest.raises(ValueError):
        AirspaceGrid(extent=(0.0, 1.0, 1.0), counts=(1, 1, 1))
    with pytest.raises(ValueError):
        AirspaceGrid(extent=(1.0, 1.0, 1.0), counts=(0, 1, 1))


def test_cell_count_and_size():
    g = make_grid()
    assert g.n_cells == 125
    assert g.cell_size == (200.0, 200.0, 50.0)


# -- indexing ----------------------------------------------------------------


def test_id_formula_roundtrip():
    g = make_grid()
    for cell in range(1, g.n_cells + 1):
        ix, iy, iz = g.cell_coords(cell)
        assert g.cell_id(ix, iy, iz) == cell
        assert cell == 1 + ix + iy * 5 + iz * 25


@pytest.mark.parametrize("cell", [0, -1, 126])
def test_cell_coords_rejects_ids_out_of_range(cell):
    # The table's unused index 0 and Python's negative indices must not answer.
    with pytest.raises(ValueError, match="out of range"):
        make_grid().cell_coords(cell)


def test_locate_reference_points():
    g = make_grid()
    assert g.locate(Point3(0, 0, 0)) == 1
    assert g.locate(Point3(750, 900, 80)) == 49
    assert g.locate(Point3(199.9, 0, 0)) == 1


def test_locate_boundary_belongs_to_upper_cell_except_max_face():
    g = make_grid()
    assert g.locate(Point3(200, 0, 0)) == 2  # half-open cells
    assert g.locate(Point3(1000, 1000, 250)) == 125  # global max face
    with pytest.raises(OutOfAirspace):
        g.locate(Point3(-0.1, 0, 0))
    with pytest.raises(OutOfAirspace):
        g.locate(Point3(0, 0, 250.1))


@given(
    x=st.floats(min_value=0, max_value=1000, allow_nan=False),
    y=st.floats(min_value=0, max_value=1000, allow_nan=False),
    z=st.floats(min_value=0, max_value=250, allow_nan=False),
)
def test_locate_is_consistent_with_cell_bounds(x, y, z):
    g = make_grid()
    cell = g.locate(Point3(x, y, z))
    lo, hi = map(np.array, g.cell_bounds(cell))
    p = np.array([x, y, z])
    assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)


# -- adjacency ---------------------------------------------------------------


def test_neighbors_reference_cells():
    g = make_grid()
    assert g.adjacency[1] == (2, 6, 26)
    assert len(g.adjacency[63]) == 6  # interior cell
    single = AirspaceGrid(extent=(1.0, 1.0, 1.0), counts=(1, 1, 1))
    assert single.adjacency[1] == ()


def test_neighbors_symmetric():
    g = make_grid()
    for cell in range(1, g.n_cells + 1):
        for nb in g.adjacency[cell]:
            assert cell in g.adjacency[nb]


def test_shared_face_geometry():
    g = make_grid()
    # Cell a's box, flat on the axis across the face.
    assert g.shared_face(1, 2) == ((200.0, 0.0, 0.0), (200.0, 200.0, 50.0))
    assert g.shared_face(1, 26) == ((0.0, 0.0, 50.0), (200.0, 200.0, 50.0))
    with pytest.raises(NotAdjacent):
        g.shared_face(1, 3)


def test_shared_face_symmetric():
    g = make_grid()
    a, b = 7, 12
    fa, fb = g.shared_face(a, b), g.shared_face(b, a)
    assert fa == fb


# -- obstacle counting -------------------------------------------------------


def test_obstacle_count_empty_grid():
    g = make_grid()
    assert g.static_obstacle_counts().sum() == 0


def test_obstacle_fully_inside_one_cell():
    ob = CuboidObstacle(anchor=Point3(10, 10, 0), len_x=20, len_y=20, len_z=30)
    g = make_grid([ob])
    counts = g.static_obstacle_counts()
    assert counts[0] == 1
    assert counts.sum() == 1


def test_obstacle_spanning_two_cells_counted_in_both():
    ob = CuboidObstacle(anchor=Point3(190, 10, 0), len_x=20, len_y=20, len_z=30)
    g = make_grid([ob])
    counts = g.static_obstacle_counts()
    assert counts[0] == 1 and counts[1] == 1
    assert counts.sum() == 2


def test_boundary_touching_obstacle_not_counted_in_far_cell():
    # Obstacle ends exactly at x=200: open-interval overlap excludes cell 2.
    ob = CuboidObstacle(anchor=Point3(180, 10, 0), len_x=20, len_y=20, len_z=30)
    g = make_grid([ob])
    counts = g.static_obstacle_counts()
    assert counts[0] == 1 and counts[1] == 0


def test_sudden_obstacles_not_in_static_counts():
    ob = CuboidObstacle(
        anchor=Point3(10, 10, 10), len_x=5, len_y=5, len_z=5, kind=ObstacleKind.SUDDEN
    )
    g = make_grid([ob])
    assert g.static_obstacle_counts().sum() == 0
    assert g.obstacles_in_cell(1) == [ob]


def test_count_sum_at_least_number_of_obstacles(rng):
    obstacles = []
    for i in range(30):
        x, y = rng.uniform(0, 900, size=2)
        obstacles.append(
            CuboidObstacle(
                anchor=Point3(float(x), float(y), 0.0),
                len_x=float(rng.uniform(5, 80)),
                len_y=float(rng.uniform(5, 80)),
                len_z=float(rng.uniform(10, 240)),
                id=f"ob{i}",
            )
        )
    g = make_grid(obstacles)
    assert g.static_obstacle_counts().sum() >= len(obstacles)
