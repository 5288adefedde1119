"""Equal-cell division of the airspace into sub-airspaces.

Cells are numbered from 1, x direction first, then y, then layer by layer
in z: id = 1 + ix + iy*A_x + iz*A_x*A_y.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Xyz


class OutOfAirspace(Exception):
    """Point lies outside the airspace extent."""


class NotAdjacent(Exception):
    """The two cells do not share a face."""


@dataclass
class AirspaceGrid:
    """Airspace extent divided into counts[0] x counts[1] x counts[2] equal cells."""

    extent: tuple[float, float, float]
    counts: tuple[int, int, int]
    obstacles: list[CuboidObstacle] = field(default_factory=list)

    cell_size: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    # coords[cell]: the cell's (ix, iy, iz); index 0 is unused.
    coords: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # adjacency[cell]: the face-adjacent cells in ascending id order; index 0 is unused.
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # _goal_distances[goal]: the table `goal_distances(goal)` returns.
    _goal_distances: dict[int, array] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(e <= 0 for e in self.extent):
            raise ValueError("airspace extent must be positive")
        if any(c < 1 or int(c) != c for c in self.counts):
            raise ValueError("cell counts must be positive integers")
        self.cell_size = tuple(self.extent[i] / self.counts[i] for i in range(3))
        ax, ay, az = self.counts
        self.coords = ((),) + tuple(
            (ix, iy, iz) for iz in range(az) for iy in range(ay) for ix in range(ax)
        )
        self.adjacency = ((),) + tuple(
            self._face_neighbors(cell) for cell in range(1, self.n_cells + 1)
        )
        self._goal_distances = {}

    @property
    def n_cells(self) -> int:
        ax, ay, az = self.counts
        return ax * ay * az

    def cell_id(self, ix: int, iy: int, iz: int) -> int:
        ax, ay, _ = self.counts
        return 1 + ix + iy * ax + iz * ax * ay

    def cell_coords(self, cell: int) -> tuple[int, int, int]:
        coords = self.coords
        if not 1 <= cell < len(coords):
            raise ValueError(f"cell id {cell} out of range [1, {self.n_cells}]")
        return coords[cell]

    def goal_distances(self, goal: int) -> array:
        """table[cell]: the Manhattan distance in cells from cell to goal, the
        L1 distance of their `coords`; index 0 is unused and holds 0. Built
        on the first call for a goal and kept with the grid, as unsigned
        16-bit entries: 8 KB per goal cell at the scenario's cap of 4096
        cells, about 8 MB for the 1000 UAVs a scenario admits."""
        table = self._goal_distances.get(goal)
        if table is None:
            gx, gy, gz = self.cell_coords(goal)
            table = self._goal_distances[goal] = array(
                "H", [0] + [abs(x - gx) + abs(y - gy) + abs(z - gz) for x, y, z in self.coords[1:]]
            )
        return table

    def cell_bounds(self, cell: int) -> tuple[Xyz, Xyz]:
        """(lo, hi) corners of the cell box, as float triples."""
        coords = self.cell_coords(cell)
        size = self.cell_size
        lo = tuple(coords[i] * size[i] for i in range(3))
        hi = tuple((coords[i] + 1) * size[i] for i in range(3))
        return lo, hi

    def locate(self, p: Sequence[float]) -> int:
        """Cell containing p, a sequence whose last three items are its x, y
        and z: a float triple, a Point3 or an ADS-B PositionReport. Cells are
        half-open [lo, hi) except at the global maximum face, which belongs
        to the last cell."""
        x, y, z = p[-3], p[-2], p[-1]
        ex, ey, ez = self.extent
        if 0 <= x <= ex and 0 <= y <= ey and 0 <= z <= ez:
            sx, sy, sz = self.cell_size
            ax, ay, az = self.counts
            ix, iy, iz = int(x // sx), int(y // sy), int(z // sz)
            # A point on the maximum face has index == count: clamp it to the last cell.
            return (
                1 + (ix if ix < ax else ax - 1) + (iy if iy < ay else ay - 1) * ax
                + (iz if iz < az else az - 1) * ax * ay
            )
        # Outside the extent or NaN: the first such axis raises.
        for i, coord in enumerate((x, y, z)):
            if coord < 0 or coord > self.extent[i]:
                raise OutOfAirspace(f"coordinate {coord} outside [0, {self.extent[i]}] on axis {i}")
            int(coord // self.cell_size[i])  # ValueError for NaN

    def _face_neighbors(self, cell: int) -> tuple[int, ...]:
        ix, iy, iz = self.cell_coords(cell)
        out = []
        for axis, delta in ((0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)):
            c = [ix, iy, iz]
            c[axis] += delta
            if 0 <= c[axis] < self.counts[axis]:
                out.append(self.cell_id(*c))
        return tuple(sorted(out))

    def shared_face(self, a: int, b: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(lo, hi) corners of the face cells a and b share: cell a's box with
        lo == hi on the axis across the face."""
        ax, ay, az = self.cell_coords(a)
        bx, by, bz = self.cell_coords(b)
        if abs(bx - ax) + abs(by - ay) + abs(bz - az) != 1:
            raise NotAdjacent(f"cells {a} and {b} do not share a face")
        sx, sy, sz = self.cell_size
        lx, ly, lz = ax * sx, ay * sy, az * sz
        hx, hy, hz = (ax + 1) * sx, (ay + 1) * sy, (az + 1) * sz
        if bx != ax:
            lx = hx = max(ax, bx) * sx
        elif by != ay:
            ly = hy = max(ay, by) * sy
        else:
            lz = hz = max(az, bz) * sz
        return (lx, ly, lz), (hx, hy, hz)

    def static_obstacle_counts(self) -> np.ndarray:
        """Per-cell counts of the static obstacles whose volume overlaps the
        cell (open-interval overlap), index 0 = cell 1."""
        static = [ob for ob in self.obstacles if ob.kind is ObstacleKind.STATIC]
        counts = []
        for cell in range(1, self.n_cells + 1):
            lo, hi = self.cell_bounds(cell)
            counts.append(sum(1 for ob in static if ob.overlaps(lo, hi)))
        return np.array(counts)

    def obstacles_in_cell(self, cell: int) -> list[CuboidObstacle]:
        """Obstacles (any kind) overlapping the cell box (open-interval overlap)."""
        lo, hi = self.cell_bounds(cell)
        return [ob for ob in self.obstacles if ob.overlaps(lo, hi)]
