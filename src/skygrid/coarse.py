"""Coarse-grained planning among sub-airspaces.

A cell's traversal cost blends its static-obstacle count and its current UAV
occupancy. The coarse plan is the face-adjacent cell sequence minimizing the
summed cost, recomputed with fresh occupancy every time the UAV enters a new
cell (sliding window), with the exit point on each shared face sampled from
the region the upcoming turns point toward (attraction mechanism).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Point3
from .grid import AirspaceGrid, Face


@dataclass(frozen=True)
class SspParams:
    k1: float = 0.01
    k2: float = 0.99
    window_length: int = 4

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("k1 and k2 must be positive")
        if abs(self.k1 + self.k2 - 1.0) > 1e-9:
            raise ValueError("k1 + k2 must equal 1")
        if self.window_length < 1:
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
    if o_n < 0 or aec_n < 0:
        raise ValueError("counts must be non-negative")
    return params.k1 * o_n + params.k2 * aec_n


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
    """
    if obstacle_counts is None:
        obstacle_counts = grid.static_obstacle_counts()

    def cost_of(cell: int) -> float:
        aec = int(occupancy[cell - 1]) if len(occupancy) else 0
        return node_cost(params, int(obstacle_counts[cell - 1]), aec)

    start_cost = cost_of(start)
    if start == goal:
        return CoarsePlan(cells=[start], total_cost=start_cost)

    # Dijkstra keyed by (cost, length, path); the composite order is preserved
    # under extension, so the first settle of a cell is its best label.
    heap: list[tuple[float, int, tuple[int, ...]]] = [(start_cost, 1, (start,))]
    settled: set[int] = set()
    while heap:
        cost, length, path = heapq.heappop(heap)
        cell = path[-1]
        if cell in settled:
            continue
        settled.add(cell)
        if cell == goal:
            return CoarsePlan(cells=list(path), total_cost=cost)
        for nb in sorted(grid.neighbors(cell)):
            if nb in settled or nb in path:
                continue
            heapq.heappush(heap, (cost + cost_of(nb), length + 1, path + (nb,)))
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


def select_exit_point(region: Face, rng: np.random.Generator, clearance: float = 1.0) -> Point3:
    """Uniform sample inside the face region, inset from its edges.

    The inset never exceeds half the region width, so zero-area regions
    collapse to their single point.
    """

    def sample(lo: float, hi: float) -> float:
        inset = min(clearance, (hi - lo) / 2.0)
        a, b = lo + inset, hi - inset
        if a >= b:
            return (lo + hi) / 2.0
        return float(rng.uniform(a, b))

    coords = [0.0, 0.0, 0.0]
    coords[region.axis] = region.plane
    coords[region.u_axis] = sample(*region.u_range)
    coords[region.v_axis] = sample(*region.v_range)
    return Point3(*coords)
