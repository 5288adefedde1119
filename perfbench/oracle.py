"""Correctness checks that share no code with the planner.

Collision-freedom is checked by walking every committed path at a fine step
and testing each sample against each box by plain coordinate comparison; the
planner itself uses an analytic slab test. Arrival is checked by exact
equality of the final position with the goal.
"""

from __future__ import annotations

import numpy as np

STEP_M = 0.05
INSIDE_TOL_M = 1e-6


def boxes(obstacles) -> np.ndarray:
    """(K, 2, 3) corners computed from each obstacle's anchor and edge lengths."""
    out = np.empty((len(obstacles), 2, 3))
    for k, ob in enumerate(obstacles):
        lo = np.array([ob.anchor.x, ob.anchor.y, ob.anchor.z])
        out[k, 0] = lo
        out[k, 1] = lo + np.array([ob.len_x, ob.len_y, ob.len_z])
    return out


def penetrates(waypoints: np.ndarray, box: np.ndarray) -> bool:
    """True if a sample of the polyline lies strictly inside any box."""
    if len(box) == 0 or len(waypoints) < 2:
        return False
    # Only boxes that overlap the path's bounding box can be hit.
    p_lo = waypoints.min(axis=0)
    p_hi = waypoints.max(axis=0)
    near = np.all((box[:, 0] <= p_hi) & (box[:, 1] >= p_lo), axis=1)
    if not near.any():
        return False
    lo = box[near, 0] + INSIDE_TOL_M
    hi = box[near, 1] - INSIDE_TOL_M
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / STEP_M)) + 1)
        t = np.linspace(0.0, 1.0, n)[:, None]
        pts = (a * (1.0 - t) + b * t)[:, None, :]
        if np.any(np.all((pts > lo) & (pts < hi), axis=2)):
            return True
    return False


def check_world(world, static_obstacles, sudden: list[tuple[int, object]]) -> tuple[int, int, list[str]]:
    """(trips, failed trips, violations) for one finished world.

    `sudden` lists (index into metrics.executed from which the obstacle
    applies, obstacle). A trip fails when the UAV did not arrive or one of its
    committed paths penetrates an obstacle it had to avoid.
    """
    static_box = boxes(static_obstacles)
    violations = []
    bad = set()
    for idx, ex in enumerate(world.metrics.executed):
        active = [ob for start, ob in sudden if idx >= start]
        box = np.concatenate([static_box, boxes(active)]) if active else static_box
        if penetrates(np.asarray(ex.waypoints, dtype=float), box):
            violations.append(f"{ex.uav_id} path #{idx} in cell {ex.cell} penetrates an obstacle")
            bad.add(ex.uav_id)
    failed = 0
    for uav in world.uavs:
        goal = np.array([uav.goal.x, uav.goal.y, uav.goal.z])
        arrived = uav.phase.value == "Arrived"
        if arrived and not np.array_equal(uav.position, goal):
            violations.append(f"{uav.id} arrived at {uav.position.tolist()} instead of {goal.tolist()}")
            bad.add(uav.id)
        if not arrived or uav.id in bad:
            failed += 1
    return len(world.uavs), failed, violations
