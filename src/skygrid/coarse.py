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
from typing import Optional

import numpy as np

from .geometry import Point3
from .grid import AirspaceGrid, Face

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


def node_cost(params: SspParams, o_n: int, aec_n: int) -> float:
    """Traversal cost of one cell: k1 * static obstacles + k2 * UAV occupancy."""
    return _node_costs(params, [o_n], [aec_n])[0]


def _node_costs(params: SspParams, obstacle_counts: list[int], occupancy: list[int]) -> list[float]:
    """node_cost of each (obstacle count, occupancy) pair."""
    if min(obstacle_counts) < 0 or min(occupancy) < 0:
        raise ValueError("counts must be non-negative")
    k1, k2 = params.k1, params.k2
    return [k1 * o + k2 * a for o, a in zip(obstacle_counts, occupancy)]


def plan_coarse(
    grid: AirspaceGrid,
    params: SspParams,
    occupancy: np.ndarray,
    start: int,
    goal: int,
    obstacle_counts: Optional[np.ndarray] = None,
) -> CoarsePlan:
    """Minimum-cost face-adjacent cell path from start to goal, both included.

    Ties are broken by fewer cells, then by the lexicographically smallest
    cell-id sequence, so the result is fully deterministic. Exit points are
    left unset; they are chosen during execution.

    occupancy may be shorter than grid.n_cells only if all-zero; index 0 is
    cell 1. obstacle_counts defaults to a fresh count from the grid.

    Dijkstra over labels (cost, length, path). Cell costs are non-negative,
    so extending a label makes it strictly larger: a cell's first popped
    label is the smallest ever pushed for it, and only that one is extended.
    A label is therefore pushed only when it is smaller than the best label
    already pushed for its cell; a skipped label could only have been popped
    after that cell was settled, and discarded. (A later label can be the
    smaller one: float sums over paths of different lengths can round to the
    same cost.)
    """
    if obstacle_counts is None:
        obstacle_counts = grid.static_obstacle_counts()
    if start == goal:
        aec = int(occupancy[start - 1]) if len(occupancy) else 0
        return CoarsePlan([start], node_cost(params, int(obstacle_counts[start - 1]), aec))

    n = grid.n_cells
    obs = np.asarray(obstacle_counts, dtype=int).tolist()
    occ = np.asarray(occupancy, dtype=int).tolist() if len(occupancy) else [0] * n
    cost = [0.0] + _node_costs(params, obs, occ)  # index 0 is unused

    adjacency = grid.adjacency
    label = (cost[start], 1, (start,))
    best: list[Optional[tuple]] = [None] * (n + 1)
    best[start] = label
    heap = [label]
    while heap:
        label = heapq.heappop(heap)
        c, length, path = label
        cell = path[-1]
        if best[cell] is not label:
            continue  # superseded by a smaller label, popped earlier
        if cell == goal:
            return CoarsePlan(cells=list(path), total_cost=c)
        length += 1
        for nb in adjacency[cell]:
            new = (c + cost[nb], length, path + (nb,))
            old = best[nb]
            if old is None or new < old:
                best[nb] = new
                heapq.heappush(heap, new)
    raise RuntimeError("goal unreachable; 6-connected grid should be connected")


def sliding_window_replan(
    grid: AirspaceGrid,
    params: SspParams,
    occupancy: np.ndarray,
    existing_plan: CoarsePlan,
    current: int,
    goal: int,
    obstacle_counts: Optional[np.ndarray] = None,
) -> CoarsePlan:
    """Re-plan from the just-entered cell with fresh occupancy.

    Kept unchanged when fewer than window_length cells remain on the existing
    plan (no room left to slide the window).
    """
    if existing_plan.remaining_cells(current) <= params.window_length:
        return existing_plan
    return plan_coarse(grid, params, occupancy, current, goal, obstacle_counts)


def attraction_region(grid: AirspaceGrid, window: list[int], face: Face) -> Face:
    """Sub-rectangle of the exit face the upcoming window of cells points toward.

    The face is split by its two in-plane midlines. For each in-plane axis,
    the first direction change along that axis within the window picks the
    half toward the change; two changed axes pick a quadrant, none keeps the
    whole face.
    """
    if len(window) < 2:
        raise ValueError("window must contain at least the current and next cell")
    coords = [grid.cell_coords(c) for c in window]
    moves = [tuple(b[i] - a[i] for i in range(3)) for a, b in zip(coords, coords[1:])]

    def first_change(axis: int) -> int:
        for move in moves:
            if move[axis] != 0:
                return 1 if move[axis] > 0 else -1
        return 0

    def split(rng: tuple[float, float], sign: int) -> tuple[float, float]:
        mid = (rng[0] + rng[1]) / 2.0
        if sign > 0:
            return (mid, rng[1])
        if sign < 0:
            return (rng[0], mid)
        return rng

    # The first move crosses the face along face.axis; changes on the two
    # in-plane axes attract the exit point.
    u_sign = first_change(face.u_axis)
    v_sign = first_change(face.v_axis)
    return Face(
        axis=face.axis,
        plane=face.plane,
        u_axis=face.u_axis,
        v_axis=face.v_axis,
        u_range=split(face.u_range, u_sign),
        v_range=split(face.v_range, v_sign),
    )


def select_exit_point(region: Face, rng: np.random.Generator) -> Point3:
    """Uniform sample inside the face region, inset EXIT_INSET from its edges.

    The inset never exceeds half the region width, so zero-area regions
    collapse to their single point.
    """

    def sample(lo: float, hi: float) -> float:
        inset = min(EXIT_INSET, (hi - lo) / 2.0)
        a, b = lo + inset, hi - inset
        if a >= b:
            return (lo + hi) / 2.0
        return float(rng.uniform(a, b))

    coords = [0.0, 0.0, 0.0]
    coords[region.axis] = region.plane
    coords[region.u_axis] = sample(*region.u_range)
    coords[region.v_axis] = sample(*region.v_range)
    return Point3(*coords)
