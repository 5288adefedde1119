"""Sudden-obstacle conflict detection and trajectory repair.

When a broadcast sudden obstacle conflicts with a committed trajectory, the
two closest conflict-free waypoints bracket the damaged stretch; Bi-RRT plans
a detour between them with the sudden obstacle added to the obstacle set, and
the detour is smoothed and spliced in. Waypoints outside the bracket are
preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Xyz
from .pso import ConstraintParams
from .sampling import (
    PlanningFailed,
    RrtParams,
    _smooth,
    birrt_plan,
    flatten_obstacles,
    point_free,
    segment_free,
)


def detect_conflicts(path: Sequence[Xyz], ob: CuboidObstacle) -> set[int]:
    """Indices of the path's waypoints (float triples) in conflict with the
    obstacle.

    A waypoint inside the obstacle conflicts directly. A segment crossing the
    obstacle with both endpoints clear flags both its endpoints (the crossing
    is otherwise invisible at waypoint granularity); a segment whose crossing
    is explained by a contained endpoint adds nothing new.
    """
    if ob.kind is not ObstacleKind.SUDDEN:
        raise ValueError("conflict detection applies to sudden obstacles")
    boxes = flatten_obstacles([ob])
    contained = {j for j in range(len(path)) if not point_free(path[j], boxes)}
    conflicts = set(contained)
    for j in range(len(path) - 1):
        if j in contained or j + 1 in contained:
            continue
        if not segment_free(path[j], path[j + 1], boxes):
            conflicts.add(j)
            conflicts.add(j + 1)
    return conflicts


def repair(
    path: Sequence[Xyz],
    ob: CuboidObstacle,
    obstacles: Sequence[CuboidObstacle],
    constraints: ConstraintParams,
    rng: np.random.Generator,
    rrt_params: Optional[RrtParams] = None,
) -> Optional[list[Xyz]]:
    """The path (float triples) with the conflicting stretch replaced by a
    smoothed Bi-RRT detour, as float triples, or None when nothing conflicts.

    The resulting waypoint count may differ from the original. Raises
    PlanningFailed when no collision-free bracket exists or Bi-RRT cannot
    connect.
    """
    conflicts = detect_conflicts(path, ob)
    if not conflicts:
        return None
    rrt_params = rrt_params or RrtParams()

    full = list(obstacles) + [ob]
    boxes = flatten_obstacles(full)
    # Bracket: the nearest collision-free waypoints at or outside the conflict
    # range. A conflict index that is merely segment-flagged (the point itself
    # is clear) can serve as its own bracket end.
    lo = min(conflicts)
    hi = max(conflicts)
    while lo >= 0 and not point_free(path[lo], boxes):
        lo -= 1
    while hi <= len(path) - 1 and not point_free(path[hi], boxes):
        hi += 1
    if lo < 0 or hi > len(path) - 1:
        raise PlanningFailed("no collision-free bracketing waypoints remain")

    raw = birrt_plan(constraints.bounds, full, path[lo], path[hi], rrt_params, rng)
    return [*path[: lo + 1], *_smooth(raw, boxes)[1:-1], *path[hi:]]
