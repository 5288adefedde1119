"""Equal-cell division of the airspace into sub-airspaces.

Cells are numbered from 1, x direction first, then y, then layer by layer
in z: id = 1 + ix + iy*A_x + iz*A_x*A_y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Point3


class OutOfAirspace(Exception):
    """Point lies outside the airspace extent."""


class NotAdjacent(Exception):
    """The two cells do not share a face."""


@dataclass(frozen=True)
class Face:
    """Axis-aligned rectangle shared by two face-adjacent cells.

    axis is the index (0=x, 1=y, 2=z) perpendicular to the plane; u/v are the
    remaining axes in ascending index order.
    """

    axis: int
    plane: float
    u_axis: int
    v_axis: int
    u_range: tuple[float, float]
    v_range: tuple[float, float]


@dataclass
class AirspaceGrid:
    """Airspace extent divided into counts[0] x counts[1] x counts[2] equal cells."""

    extent: tuple[float, float, float]
    counts: tuple[int, int, int]
    obstacles: list[CuboidObstacle] = field(default_factory=list)

    cell_size: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(e <= 0 for e in self.extent):
            raise ValueError("airspace extent must be positive")
        if any(c < 1 or int(c) != c for c in self.counts):
            raise ValueError("cell counts must be positive integers")
        self.cell_size = tuple(self.extent[i] / self.counts[i] for i in range(3))

    @property
    def n_cells(self) -> int:
        ax, ay, az = self.counts
        return ax * ay * az

    def cell_id(self, ix: int, iy: int, iz: int) -> int:
        ax, ay, _ = self.counts
        return 1 + ix + iy * ax + iz * ax * ay

    def cell_coords(self, cell: int) -> tuple[int, int, int]:
        if not 1 <= cell <= self.n_cells:
            raise ValueError(f"cell id {cell} out of range [1, {self.n_cells}]")
        ax, ay, _ = self.counts
        k = cell - 1
        return k % ax, (k // ax) % ay, k // (ax * ay)

    def cell_bounds(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of the cell box."""
        coords = self.cell_coords(cell)
        size = self.cell_size
        lo = np.array([coords[i] * size[i] for i in range(3)])
        hi = np.array([(coords[i] + 1) * size[i] for i in range(3)])
        return lo, hi

    def locate(self, p: Point3) -> int:
        """Cell containing p. Cells are half-open [lo, hi) except at the
        global maximum face, which belongs to the last cell."""
        idx = []
        size = self.cell_size
        for i, coord in enumerate((p.x, p.y, p.z)):
            if coord < 0 or coord > self.extent[i]:
                raise OutOfAirspace(f"coordinate {coord} outside [0, {self.extent[i]}] on axis {i}")
            k = int(coord // size[i])
            idx.append(min(k, self.counts[i] - 1))
        return self.cell_id(*idx)

    def neighbors(self, cell: int) -> set[int]:
        """Face-adjacent (6-connected) cells within bounds."""
        ix, iy, iz = self.cell_coords(cell)
        out = set()
        for axis, delta in ((0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)):
            c = [ix, iy, iz]
            c[axis] += delta
            if 0 <= c[axis] < self.counts[axis]:
                out.add(self.cell_id(*c))
        return out

    def shared_face(self, a: int, b: int) -> Face:
        ca = self.cell_coords(a)
        cb = self.cell_coords(b)
        diff = [cb[i] - ca[i] for i in range(3)]
        if sorted(abs(d) for d in diff) != [0, 0, 1]:
            raise NotAdjacent(f"cells {a} and {b} do not share a face")
        axis = next(i for i in range(3) if diff[i] != 0)
        size = self.cell_size
        plane = (max(ca[axis], cb[axis])) * size[axis]
        u_axis, v_axis = [i for i in range(3) if i != axis]
        u_range = (ca[u_axis] * size[u_axis], (ca[u_axis] + 1) * size[u_axis])
        v_range = (ca[v_axis] * size[v_axis], (ca[v_axis] + 1) * size[v_axis])
        return Face(axis, plane, u_axis, v_axis, u_range, v_range)

    def static_obstacle_count(self, cell: int) -> int:
        """Static obstacles whose volume overlaps the cell (open-interval overlap)."""
        lo, hi = (b.tolist() for b in self.cell_bounds(cell))
        return sum(
            1 for ob in self.obstacles if ob.kind is ObstacleKind.STATIC and ob.overlaps(lo, hi)
        )

    def static_obstacle_counts(self) -> np.ndarray:
        """Per-cell static obstacle counts, index 0 = cell 1."""
        return np.array([self.static_obstacle_count(c) for c in range(1, self.n_cells + 1)])

    def obstacles_in_cell(self, cell: int, margin: float = 0.0) -> list[CuboidObstacle]:
        """Obstacles (any kind) overlapping the cell box inflated by margin."""
        lo, hi = self.cell_bounds(cell)
        lo = (lo - margin).tolist()
        hi = (hi + margin).tolist()
        return [ob for ob in self.obstacles if ob.overlaps(lo, hi)]
