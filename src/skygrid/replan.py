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

from .geometry import CuboidObstacle, ObstacleKind, Point3
from .pso import ConstraintParams
from .sampling import (
    DEFAULT_SMOOTH_WINDOW,
    PlanningFailed,
    RrtParams,
    Waypath,
    _smooth,
    birrt_plan,
    flatten_obstacles,
    point_free,
    segment_free,
)


class RepairFailed(Exception):
    """Bi-RRT could not connect the bracketing waypoints; escalate to a
    coarse re-plan."""


def detect_conflicts(path: Waypath, ob: CuboidObstacle) -> set[int]:
    """Waypoint indices in conflict with the obstacle.

    A waypoint inside the obstacle conflicts directly. A segment crossing the
    obstacle with both endpoints clear flags both its endpoints (the crossing
    is otherwise invisible at waypoint granularity); a segment whose crossing
    is explained by a contained endpoint adds nothing new.
    """
    if ob.kind is not ObstacleKind.SUDDEN:
        raise ValueError("conflict detection applies to sudden obstacles")
    boxes = flatten_obstacles([ob])
    pts = path.waypoints.tolist()
    contained = {j for j in range(len(pts)) if not point_free(pts[j], boxes)}
    conflicts = set(contained)
    for j in range(len(pts) - 1):
        if j in contained or j + 1 in contained:
            continue
        if not segment_free(pts[j], pts[j + 1], boxes):
            conflicts.add(j)
            conflicts.add(j + 1)
    return conflicts


def repair(
    path: Waypath,
    ob: CuboidObstacle,
    obstacles: Sequence[CuboidObstacle],
    constraints: ConstraintParams,
    rng: np.random.Generator,
    rrt_params: Optional[RrtParams] = None,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
) -> Optional[np.ndarray]:
    """The path's waypoints with the conflicting stretch replaced by a
    smoothed Bi-RRT detour, or None when nothing conflicts.

    The resulting waypoint count may differ from the original. Raises
    RepairFailed when no collision-free bracket exists or Bi-RRT cannot
    connect.
    """
    conflicts = detect_conflicts(path, ob)
    if not conflicts:
        return None
    rrt_params = rrt_params or RrtParams()

    full = list(obstacles) + [ob]
    boxes = flatten_obstacles(full)
    pts = path.waypoints
    # Bracket: the nearest collision-free waypoints at or outside the conflict
    # range. A conflict index that is merely segment-flagged (the point itself
    # is clear) can serve as its own bracket end.
    lo = min(conflicts)
    hi = max(conflicts)
    while lo >= 0 and not point_free(pts[lo], boxes):
        lo -= 1
    while hi <= len(pts) - 1 and not point_free(pts[hi], boxes):
        hi += 1
    if lo < 0 or hi > len(pts) - 1:
        raise RepairFailed("no collision-free bracketing waypoints remain")

    bounds = (constraints.bounds_lo, constraints.bounds_hi)
    try:
        raw = birrt_plan(
            bounds,
            full,
            Point3.from_array(pts[lo]),
            Point3.from_array(pts[hi]),
            rrt_params,
            rng,
        )
    except PlanningFailed as exc:
        raise RepairFailed(str(exc)) from exc

    detour = np.array(_smooth(raw, boxes, smooth_window), dtype=float)
    return np.vstack([pts[: lo + 1], detour[1:-1], pts[hi:]])
