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
    return [
        (x0 - margin, y0 - margin, z0 - margin, x1 + margin, y1 + margin, z1 + margin)
        for x0, y0, z0, x1, y1, z1 in (ob.box for ob in obstacles)
    ]


def segment_free(a: Sequence[float], b: Sequence[float], boxes: Boxes) -> bool:
    """Scalar slab test of segment a-b against every box; True if it misses all.

    The three axes are unrolled; each clips the entry/exit interval [0, 1]
    and a box is missed as soon as the interval empties.
    """
    ax, ay, az = a[0], a[1], a[2]
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    for x0, y0, z0, x1, y1, z1 in boxes:
        if dx == 0.0:
            if ax < x0 or ax > x1:
                continue
            t_enter = 0.0
            t_exit = 1.0
        else:
            t0 = (x0 - ax) / dx
            t1 = (x1 - ax) / dx
            if t0 > t1:
                t0, t1 = t1, t0
            t_enter = t0 if t0 > 0.0 else 0.0
            t_exit = t1 if t1 < 1.0 else 1.0
            if t_enter > t_exit:
                continue
        if dy == 0.0:
            if ay < y0 or ay > y1:
                continue
        else:
            t0 = (y0 - ay) / dy
            t1 = (y1 - ay) / dy
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_enter:
                t_enter = t0
            if t1 < t_exit:
                t_exit = t1
            if t_enter > t_exit:
                continue
        if dz == 0.0:
            if az < z0 or az > z1:
                continue
        else:
            t0 = (z0 - az) / dz
            t1 = (z1 - az) / dz
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_enter:
                t_enter = t0
            if t1 < t_exit:
                t_exit = t1
            if t_enter > t_exit:
                continue
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

    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    tree = _Tree(s, params.max_iterations + 2)
    step = params.step_size
    goal_bias = params.goal_bias
    random = rng.random

    for _ in range(params.max_iterations):
        if random() < goal_bias:
            target = g
        else:
            ux, uy, uz = random(3).tolist()
            target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
        new = tree.extend(target, step, boxes)
        if new is None:
            continue
        if _dist(new, g) <= step and segment_free(new, g, boxes):
            tree.add(g, len(tree.pts) - 1)
            return tree.trace()
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

    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    # The greedy connect march can add several nodes per iteration.
    cap = 2 * params.max_iterations + 64
    trees = [_Tree(s, cap), _Tree(g, cap)]
    step = params.step_size
    random = rng.random
    a = 0  # tree extended toward the sample this iteration

    for _ in range(params.max_iterations):
        if len(trees[0].pts) >= cap - 1 or len(trees[1].pts) >= cap - 1:
            break
        ux, uy, uz = random(3).tolist()
        target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
        new = trees[a].extend(target, step, boxes)
        if new is not None:
            # Greedy connect: march the other tree toward the new node until
            # blocked or joined.
            other = trees[1 - a]
            while len(other.pts) < cap - 1:
                jnew = other.extend(new, step, boxes)
                if jnew is None:
                    break
                if _dist(jnew, new) <= 1e-9:
                    path_a = trees[a].trace()
                    path_b = other.trace()
                    if a == 0:
                        joined = np.vstack([path_a, path_b[::-1][1:]])
                    else:
                        joined = np.vstack([path_b, path_a[::-1][1:]])
                    return joined
        a = 1 - a
    raise PlanningFailed(f"Bi-RRT failed to connect within {params.max_iterations} iterations")


def _dist(a, b) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


class _Tree:
    """Search tree of one planner: nodes in a (cap, 3) buffer for the nearest
    search, the same nodes as float tuples for the scalar steps, and parents.

    The nearest node is the first `argmin` of numpy `einsum` squared
    distances. Recomputing those in Python rounds some of them differently
    in the last bit, which can change the pick, so the ranking stays in numpy.
    """

    def __init__(self, root, cap: int):
        self.nodes = np.empty((cap, 3))
        self.nodes[0] = root
        self.pts = [tuple(self.nodes[0].tolist())]
        self.parents = [-1]

    def add(self, p, parent: int) -> None:
        self.nodes[len(self.pts)] = p
        self.pts.append(p)
        self.parents.append(parent)

    def extend(self, target, step: float, boxes: Boxes):
        """One collision-checked step from the nearest node toward target.

        Adds and returns the new point, or returns None when blocked or
        degenerate.
        """
        d = self.nodes[: len(self.pts)] - target
        idx = int(np.einsum("ij,ij->i", d, d).argmin())
        near = self.pts[idx]
        dist = _dist(near, target)
        if dist <= 1e-12:
            return None
        scale = min(1.0, step / dist)
        nx, ny, nz = near
        tx, ty, tz = target
        new = (nx + (tx - nx) * scale, ny + (ty - ny) * scale, nz + (tz - nz) * scale)
        if not segment_free(near, new, boxes):
            return None
        self.add(new, idx)
        return new

    def trace(self) -> np.ndarray:
        """Root-to-newest-node path."""
        order = []
        i = len(self.pts) - 1
        while i >= 0:
            order.append(i)
            i = self.parents[i]
        return self.nodes[order[::-1]].copy()


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
