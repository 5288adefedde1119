"""Single-query sampling planners inside one sub-airspace.

RRT and Bi-RRT produce raw collision-free polylines between two boundary
points; a shortcut + moving-average smoothing pass and a vertex-preserving
arc-length resample bring them to a fixed waypoint count so they can feed
the particle-swarm optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import CuboidObstacle, Point3

DEFAULT_WAYPOINT_COUNT = 10
DEFAULT_SMOOTH_WINDOW = 5


class PlanningFailed(Exception):
    """The planner exhausted its iteration budget without connecting."""


@dataclass(frozen=True)
class RrtParams:
    step_size: float = 10.0
    max_iterations: int = 5000
    goal_bias: float = 0.05

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Waypath:
    """Fixed-length fine trajectory inside one sub-airspace.

    First and last waypoints are boundary conditions and are never moved by
    any optimizer.
    """

    waypoints: np.ndarray  # (J, 3)
    sub_airspace: int = 0

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise ValueError("waypoints must have shape (J, 3)")

    @property
    def count(self) -> int:
        return len(self.waypoints)

    def as_points(self) -> list[Point3]:
        return [Point3.from_array(w) for w in self.waypoints]

    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1).sum())


# Obstacles are pre-flattened to float tuples: the per-cell obstacle count is
# tiny, so scalar slab tests beat numpy's per-call overhead in the planner's
# inner loop.
Boxes = list[tuple[float, float, float, float, float, float]]


def flatten_obstacles(obstacles: Iterable[CuboidObstacle], margin: float = 0.0) -> Boxes:
    out = []
    for ob in obstacles:
        lo, hi = ob.lo, ob.hi
        out.append(
            (
                lo[0] - margin,
                lo[1] - margin,
                lo[2] - margin,
                hi[0] + margin,
                hi[1] + margin,
                hi[2] + margin,
            )
        )
    return out


def segment_free(a: Sequence[float], b: Sequence[float], boxes: Boxes) -> bool:
    """Scalar slab test of segment a-b against every box; True if it misses all."""
    ax, ay, az = a[0], a[1], a[2]
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    for x0, y0, z0, x1, y1, z1 in boxes:
        t_enter = 0.0
        t_exit = 1.0
        hit = True
        for start, delta, lo, hi in ((ax, dx, x0, x1), (ay, dy, y0, y1), (az, dz, z0, z1)):
            if delta == 0.0:
                if start < lo or start > hi:
                    hit = False
                    break
            else:
                t0 = (lo - start) / delta
                t1 = (hi - start) / delta
                if t0 > t1:
                    t0, t1 = t1, t0
                if t0 > t_enter:
                    t_enter = t0
                if t1 < t_exit:
                    t_exit = t1
                if t_enter > t_exit:
                    hit = False
                    break
        if hit:
            return False
    return True


def point_free(p: Sequence[float], boxes: Boxes) -> bool:
    x, y, z = p[0], p[1], p[2]
    for x0, y0, z0, x1, y1, z1 in boxes:
        if x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1:
            return False
    return True


def _endpoints(obstacles: Iterable[CuboidObstacle], start: Point3, goal: Point3, step: float):
    """Shared prologue of the tree planners: (boxes, start, goal, trivial path).

    The trivial path is the whole answer when the endpoints coincide or see
    each other within one step, and None otherwise.
    """
    boxes = flatten_obstacles(obstacles)
    s = (start.x, start.y, start.z)
    g = (goal.x, goal.y, goal.z)
    if not point_free(s, boxes):
        raise PlanningFailed(f"start point {start} lies inside an obstacle")
    if not point_free(g, boxes):
        raise PlanningFailed(f"goal point {goal} lies inside an obstacle")
    if s == g:
        return boxes, s, g, np.array([s])
    if _dist(s, g) <= step and segment_free(s, g, boxes):
        return boxes, s, g, np.array([s, g])
    return boxes, s, g, None


def rrt_plan(
    bounds: tuple[np.ndarray, np.ndarray],
    obstacles: Iterable[CuboidObstacle],
    start: Point3,
    goal: Point3,
    params: RrtParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow a tree from start until it can reach goal; return the raw polyline."""
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial

    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    nodes = np.empty((params.max_iterations + 2, 3))
    nodes[0] = s
    parents = np.empty(params.max_iterations + 2, dtype=np.int64)
    parents[0] = -1
    n = 1
    step = params.step_size

    for _ in range(params.max_iterations):
        if rng.random() < params.goal_bias:
            target = g
        else:
            u = rng.random(3)
            target = (
                lo[0] + u[0] * (hi[0] - lo[0]),
                lo[1] + u[1] * (hi[1] - lo[1]),
                lo[2] + u[2] * (hi[2] - lo[2]),
            )
        idx, new = _extend(nodes, n, target, step, boxes)
        if idx < 0:
            continue
        nodes[n] = new
        parents[n] = idx
        n += 1
        if _dist(new, g) <= step and segment_free(new, g, boxes):
            nodes[n] = g
            parents[n] = n - 1
            return _trace(nodes, parents, n)
    raise PlanningFailed(f"RRT failed to connect within {params.max_iterations} iterations")


def birrt_plan(
    bounds: tuple[np.ndarray, np.ndarray],
    obstacles: Iterable[CuboidObstacle],
    start: Point3,
    goal: Point3,
    params: RrtParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bi-RRT: trees from both endpoints with a greedy connect step each iteration."""
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial

    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    # The greedy connect march can add several nodes per iteration.
    cap = 2 * params.max_iterations + 64
    trees = [np.empty((cap, 3)), np.empty((cap, 3))]
    parents = [np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)]
    trees[0][0] = s
    trees[1][0] = g
    parents[0][0] = -1
    parents[1][0] = -1
    sizes = [1, 1]
    step = params.step_size
    a = 0  # tree extended toward the sample this iteration

    for _ in range(params.max_iterations):
        if sizes[0] >= cap - 1 or sizes[1] >= cap - 1:
            break
        u = rng.random(3)
        target = (
            lo[0] + u[0] * (hi[0] - lo[0]),
            lo[1] + u[1] * (hi[1] - lo[1]),
            lo[2] + u[2] * (hi[2] - lo[2]),
        )
        idx, new = _extend(trees[a], sizes[a], target, step, boxes)
        if idx >= 0:
            trees[a][sizes[a]] = new
            parents[a][sizes[a]] = idx
            sizes[a] += 1
            # Greedy connect: march the other tree toward the new node until
            # blocked or joined.
            b = 1 - a
            while sizes[b] < cap - 1:
                jdx, jnew = _extend(trees[b], sizes[b], new, step, boxes)
                if jdx < 0:
                    break
                trees[b][sizes[b]] = jnew
                parents[b][sizes[b]] = jdx
                sizes[b] += 1
                if _dist(jnew, new) <= 1e-9:
                    path_a = _trace(trees[a], parents[a], sizes[a] - 1)
                    path_b = _trace(trees[b], parents[b], sizes[b] - 1)
                    if a == 0:
                        joined = np.vstack([path_a, path_b[::-1][1:]])
                    else:
                        joined = np.vstack([path_b, path_a[::-1][1:]])
                    return joined
        a = 1 - a
    raise PlanningFailed(f"Bi-RRT failed to connect within {params.max_iterations} iterations")


def _dist(a, b) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def _extend(nodes: np.ndarray, n: int, target, step: float, boxes: Boxes):
    """One collision-checked step from the nearest tree node toward target.

    Returns (parent index, new point) or (-1, None) when blocked/degenerate.
    """
    d = nodes[:n] - target
    idx = int(np.argmin(np.einsum("ij,ij->i", d, d)))
    near = nodes[idx]
    dist = _dist(near, target)
    if dist <= 1e-12:
        return -1, None
    scale = min(1.0, step / dist)
    new = (
        near[0] + (target[0] - near[0]) * scale,
        near[1] + (target[1] - near[1]) * scale,
        near[2] + (target[2] - near[2]) * scale,
    )
    if not segment_free(near, new, boxes):
        return -1, None
    return idx, new


def _trace(nodes: np.ndarray, parents: np.ndarray, tip: int) -> np.ndarray:
    order = []
    i = tip
    while i >= 0:
        order.append(i)
        i = int(parents[i])
    return nodes[order[::-1]].copy()


def shortcut(path: np.ndarray, boxes: Boxes) -> np.ndarray:
    """Greedy farthest-visible shortcutting; keeps the path collision-free."""
    if len(path) <= 2:
        return path.copy()
    keep = [0]
    i = 0
    while i < len(path) - 1:
        j = len(path) - 1
        while j > i + 1 and not segment_free(path[i], path[j], boxes):
            j -= 1
        keep.append(j)
        i = j
    return path[keep].copy()


def moving_average_smooth(path: np.ndarray, boxes: Boxes, window: int) -> np.ndarray:
    """Average each interior vertex over its window, skipping moves that collide."""
    if len(path) <= 2 or window < 2:
        return path.copy()
    half = window // 2
    out = path.copy()
    for i in range(1, len(path) - 1):
        lo = max(0, i - half)
        hi = min(len(path), i + half + 1)
        candidate = path[lo:hi].mean(axis=0)
        if segment_free(out[i - 1], candidate, boxes) and segment_free(candidate, out[i + 1], boxes):
            out[i] = candidate
    return out


def _merge_vertices(path: np.ndarray, boxes: Boxes, target: int) -> np.ndarray:
    """Remove interior vertices (cheapest detour first) while bridges stay free."""
    pts = [tuple(p) for p in path]
    while len(pts) > target:
        best_i = -1
        best_gain = -1.0
        for i in range(1, len(pts) - 1):
            if not segment_free(pts[i - 1], pts[i + 1], boxes):
                continue
            gain = _dist(pts[i - 1], pts[i]) + _dist(pts[i], pts[i + 1]) - _dist(
                pts[i - 1], pts[i + 1]
            )
            if best_i < 0 or gain < best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:
            break
        del pts[best_i]
    return np.array(pts)


def resample_polyline(path: np.ndarray, count: int) -> np.ndarray:
    """Exactly `count` points along the polyline, preserving every vertex.

    The count-1 intervals are shared among segments proportionally to length
    (each segment keeps at least one), and points are equally spaced within
    each segment, so the geometry is unchanged.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if len(path) < 2:
        return np.repeat(path, count, axis=0)[:count]
    n_seg = len(path) - 1
    if n_seg > count - 1:
        raise ValueError(f"cannot keep {len(path)} vertices with only {count} points")
    lengths = np.linalg.norm(np.diff(path, axis=0), axis=1)
    total = lengths.sum()
    extra = count - 1 - n_seg
    shares = np.ones(n_seg, dtype=int)
    if extra > 0:
        if total > 0:
            quota = lengths / total * extra
        else:
            quota = np.full(n_seg, extra / n_seg)
        base = np.floor(quota).astype(int)
        shares += base
        remainder = extra - int(base.sum())
        if remainder > 0:
            # Largest fractional remainders first; ties to the earlier segment.
            order = np.lexsort((np.arange(n_seg), -(quota - base)))
            for k in order[:remainder]:
                shares[k] += 1
    out = [path[0]]
    for i in range(n_seg):
        for k in range(1, shares[i] + 1):
            t = k / shares[i]
            out.append(path[i] * (1 - t) + path[i + 1] * t)
    return np.array(out)


def smooth_and_resample(
    raw: np.ndarray,
    obstacles: Iterable[CuboidObstacle],
    count: int = DEFAULT_WAYPOINT_COUNT,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
    sub_airspace: int = 0,
) -> Waypath:
    """Shortcut, smooth, and resample a raw polyline to exactly `count` points.

    Endpoints are preserved exactly and the result stays collision-free: every
    transformation only ever replaces subchains with segments it has checked.
    """
    boxes = flatten_obstacles(obstacles)
    path = shortcut(np.asarray(raw, dtype=float), boxes)
    path = moving_average_smooth(path, boxes, smooth_window)
    path = shortcut(path, boxes)
    if len(path) > count:
        path = _merge_vertices(path, boxes, count)
    if len(path) > count:
        # No collision-free merge left; fall back to plain arc-length spacing.
        path = _arc_length_resample(path, count)
    else:
        path = resample_polyline(path, count)
    return Waypath(waypoints=path, sub_airspace=sub_airspace)


def _arc_length_resample(path: np.ndarray, count: int) -> np.ndarray:
    lengths = np.linalg.norm(np.diff(path, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.linspace(0.0, cum[-1], count)
    out = np.empty((count, 3))
    for k, t in enumerate(targets):
        i = min(int(np.searchsorted(cum, t, side="right")) - 1, len(lengths) - 1)
        seg = lengths[i]
        frac = 0.0 if seg == 0 else (t - cum[i]) / seg
        out[k] = path[i] * (1 - frac) + path[i + 1] * frac
    out[0] = path[0]
    out[-1] = path[-1]
    return out


def straight_waypath(
    start: Point3, goal: Point3, count: int = DEFAULT_WAYPOINT_COUNT, sub_airspace: int = 0
) -> Waypath:
    """Straight-line connection resampled to `count` points (collisions allowed)."""
    pts = resample_polyline(np.array([start.as_array(), goal.as_array()]), count)
    return Waypath(waypoints=pts, sub_airspace=sub_airspace)
