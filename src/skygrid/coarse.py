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

    Dijkstra over labels (cost, length, path). Cell costs are non-negative,
    so extending a label makes it strictly larger, (c + cost >= c, length + 1,
    ...), and popped labels never decrease. A cell's first popped label is
    therefore the smallest ever pushed for it: the cell is settled, and a
    later label for it, built from a label popped no earlier, is strictly
    larger, so a settled neighbour is skipped before its label is built. A
    label is pushed only when it is smaller than the best label already
    pushed for its cell; a skipped label could only have been popped after
    that cell was settled, and discarded. (A later label can be the smaller
    one: float sums over paths of different lengths can round to the same
    cost.)
    """
    adjacency = grid.adjacency
    label = (costs[start], 1, (start,))
    best: list[Optional[tuple]] = [None] * len(costs)
    best[start] = label
    heap = [label]
    while heap:
        label = heapq.heappop(heap)
        c, length, path = label
        cell = path[-1]
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
            new = (c + costs[nb], length, path + (nb,))
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
    coords = [grid.cell_coords(c) for c in window]
    moves = [tuple(b[i] - a[i] for i in range(3)) for a, b in zip(coords, coords[1:])]
    lo, hi = list(face[0]), list(face[1])
    for axis in range(3):
        if lo[axis] == hi[axis]:
            continue  # the plane the first move crosses
        sign = next((move[axis] for move in moves if move[axis] != 0), 0)
        mid = (lo[axis] + hi[axis]) / 2.0
        if sign > 0:
            lo[axis] = mid
        elif sign < 0:
            hi[axis] = mid
    return tuple(lo), tuple(hi)


def select_exit_point(
    region: tuple[tuple[float, ...], tuple[float, ...]], rng: np.random.Generator
) -> Point3:
    """Uniform sample inside the face region, inset EXIT_INSET from its edges,
    one draw per in-plane axis in ascending axis order.

    The inset never exceeds half the region width, so an axis of zero width
    (the face's plane, or a degenerate region) takes its single point without
    a draw.
    """
    coords = []
    for lo, hi in zip(*region):
        inset = min(EXIT_INSET, (hi - lo) / 2.0)
        a, b = lo + inset, hi - inset
        coords.append((lo + hi) / 2.0 if a >= b else float(rng.uniform(a, b)))
    return Point3(*coords)
