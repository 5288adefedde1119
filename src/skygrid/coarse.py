"""Coarse-grained planning among sub-airspaces.

A cell's traversal cost blends its static-obstacle count and its current UAV
occupancy. The coarse plan is the face-adjacent cell sequence minimizing the
summed cost, recomputed with fresh occupancy every time the UAV enters a new
cell (sliding window), with the exit point on each shared face sampled from
the region the upcoming turns point toward (attraction mechanism).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .geometry import Point3
from .grid import AirspaceGrid

EXIT_INSET = 1.0  # m between a sampled exit point and the edges of its face region


@dataclass(frozen=True)
class SspParams:
    k1: float = 0.01
    k2: float = 0.99
    window_length: int = 4

    def __post_init__(self):
        # NaN cell costs would leave the coarse search's heap order undefined.
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError("k1 and k2 must be finite and positive")
        if abs(self.k1 + self.k2 - 1.0) > 1e-9:
            raise ValueError("k1 + k2 must equal 1")
        if not self.window_length >= 1:
            raise ValueError("window_length must be >= 1")


@dataclass
class CoarsePlan:
    cells: list[int]
    total_cost: float = 0.0

    def remaining_cells(self, current: int) -> int:
        """Cells left including the current one; 0 if current not on the plan."""
        if current not in self.cells:
            return 0
        return len(self.cells) - self.cells.index(current)


def node_costs(params: SspParams, occupancy, obstacle_counts) -> list[float]:
    """The coarse search's cost of every cell, k1 * static obstacles + k2 *
    UAV occupancy, indexed by cell id (index 0 is unused and holds 0.0).

    occupancy and obstacle_counts hold one non-negative count per cell,
    index 0 = cell 1.
    """
    obs = np.asarray(obstacle_counts, dtype=int).tolist()
    occ = np.asarray(occupancy, dtype=int).tolist()
    if min(obs) < 0 or min(occ) < 0:
        raise ValueError("counts must be non-negative")
    k1, k2 = params.k1, params.k2
    return [0.0] + [k1 * o + k2 * a for o, a in zip(obs, occ)]


_SETTLED = ()  # `best` of a cell whose label has been popped


def plan_coarse(grid: AirspaceGrid, costs: list[float], start: int, goal: int) -> CoarsePlan:
    """Minimum-cost face-adjacent cell path from start to goal, both included.

    Ties are broken by fewer cells, then by the lexicographically smallest
    cell-id sequence, so the result is fully deterministic. Exit points are
    left unset; they are chosen during execution. costs holds each cell's
    cost by cell id, as `node_costs` builds it.

    A label is (cost, length, path): the float cost summed along the path in
    path order, its cell count and its cell ids. The search is A* (Hart,
    Nilsson & Raphael, 1968) over these labels. A heap entry is (cost,
    length + h, length, cell, path), where h, the Manhattan distance in cells
    to the goal, is read from `grid.goal_distances(goal)`: cost first, then
    the fewest cells any completion can have, then the cells so far, then
    the cell id, so paths are compared only between labels of one cell.

    Every cell settles with the label the label-setting Dijkstra over (cost,
    length, path) gives it, so the plan and its `total_cost` are the same to
    the bit:
    - Extending a label makes its entry strictly larger: fl(c + x) >= c for a
      cell cost x >= 0; when the cost stays equal, h changes by at most 1
      across a face, so length + 1 + h' >= length + h, and length + 1 >
      length. Popped entries therefore never decrease.
    - Within one cell h is fixed, so the entry order is the label order.
    - Say every cell settled so far holds Dijkstra's label, and take the next
      cell to settle. Dijkstra's label for it extends the labels along its
      path. The first cell on that path not yet settled has its Dijkstra
      label in the heap: the settled cell before it pushed that label, and no
      label for it is smaller. That entry is no larger than the next cell's
      Dijkstra entry, which is smaller than the entry of any other label for
      that cell, so no other label settles it.
    - A settled cell is skipped before a label is built for it: every later
      label for it is at least its settled one. A relaxation is skipped
      before its path tuple is built when its cost exceeds the best label
      pushed for the neighbour, or equals it with more cells; otherwise the
      label is pushed only when it is smaller than that best label (a later
      label can be the smaller one: float sums over paths of different
      lengths can round to the same cost). A skipped label could only have
      been popped after a smaller one for its cell, and discarded.
    """
    adjacency = grid.adjacency
    h = grid.goal_distances(goal)
    label = (costs[start], 1 + h[start], 1, start, (start,))
    best: list[Optional[tuple]] = [None] * len(costs)
    best[start] = label
    heap = [label]
    while heap:
        label = heapq.heappop(heap)
        c, _, length, cell, path = label
        if best[cell] is not label:
            continue  # superseded by a smaller label popped earlier, or settled
        if cell == goal:
            return CoarsePlan(cells=list(path), total_cost=c)
        best[cell] = _SETTLED
        length += 1
        for nb in adjacency[cell]:
            old = best[nb]
            if old is _SETTLED:
                continue
            cost = c + costs[nb]
            if old is not None and (cost > old[0] or cost == old[0] and length > old[2]):
                continue
            new = (cost, length + h[nb], length, nb, path + (nb,))
            if old is None or new < old:
                best[nb] = new
                heapq.heappush(heap, new)
    raise RuntimeError("goal unreachable; 6-connected grid should be connected")


def sliding_window_replan(
    grid: AirspaceGrid,
    params: SspParams,
    costs: list[float],
    existing_plan: CoarsePlan,
    current: int,
    goal: int,
) -> CoarsePlan:
    """Re-plan from the just-entered cell with the current `node_costs`.

    Kept unchanged when fewer than window_length cells remain on the existing
    plan (no room left to slide the window).
    """
    if existing_plan.remaining_cells(current) <= params.window_length:
        return existing_plan
    return plan_coarse(grid, costs, current, goal)


def attraction_region(
    grid: AirspaceGrid, window: list[int], face: tuple[tuple[float, ...], tuple[float, ...]]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Part of the exit face (lo, hi) the upcoming window of cells points toward.

    On each in-plane axis (lo != hi), the first move along that axis within
    the window picks the half toward it: moves on both axes pick a quadrant,
    none keeps the whole face. A window of one cell has no moves.
    """
    coords = grid.coords
    sx = sy = sz = 0  # the first non-zero move along each axis
    for a, b in pairwise(window):
        (ax, ay, az), (bx, by, bz) = coords[a], coords[b]
        sx, sy, sz = sx or bx - ax, sy or by - ay, sz or bz - az
    (lx, ly, lz), (hx, hy, hz) = face
    lx, hx = _toward(lx, hx, sx)
    ly, hy = _toward(ly, hy, sy)
    lz, hz = _toward(lz, hz, sz)
    return (lx, ly, lz), (hx, hy, hz)


def _toward(lo: float, hi: float, move: int) -> tuple[float, float]:
    """The half of [lo, hi] a move of this sign points toward; all of it for
    no move, or for the plane the first move crosses (lo == hi)."""
    if lo == hi or not move:
        return lo, hi
    mid = (lo + hi) / 2.0
    return (mid, hi) if move > 0 else (lo, mid)


def select_exit_point(
    region: tuple[tuple[float, ...], tuple[float, ...]], rng: np.random.Generator
) -> Point3:
    """Uniform sample inside the face region, inset EXIT_INSET from its edges,
    one draw per in-plane axis in ascending axis order.

    The inset never exceeds half the region width, so an axis of zero width
    (the face's plane, or a degenerate region) takes its single point without
    a draw. A draw is `rng.uniform(a, b)` without its call overhead: numpy
    computes that as `a + (b - a) * rng.random()`, the same value and the
    same generator state.
    """
    coords = []
    for lo, hi in zip(*region):
        inset = min(EXIT_INSET, (hi - lo) / 2.0)
        a, b = lo + inset, hi - inset
        coords.append((lo + hi) / 2.0 if a >= b else a + (b - a) * rng.random())
    return Point3(*coords)
