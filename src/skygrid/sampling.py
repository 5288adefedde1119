"""Single-query sampling planners inside one sub-airspace.

RRT and Bi-RRT produce raw collision-free polylines between two boundary
points; a shortcut + moving-average smoothing pass and a vertex-preserving
resample bring them to a fixed waypoint count so they can feed the
particle-swarm optimizer. A smoothed path with more vertices than that count
is a planning failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import CuboidObstacle, Xyz

DEFAULT_WAYPOINT_COUNT = 10
# The moving-average window of every smoothing pass, in vertices.
SMOOTH_WINDOW = 5


class PlanningFailed(Exception):
    """The planner exhausted its iteration budget without connecting."""


@dataclass(frozen=True)
class RrtParams:
    step_size: float = 10.0
    max_iterations: int = 5000
    goal_bias: float = 0.05

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Waypath:
    """A UAV's installed route viewed as a (J, 3) array with its cell.

    The planners pass routes as lists of float triples; this array view is
    what the batch kernels score.
    """

    waypoints: np.ndarray  # (J, 3)
    sub_airspace: int = 0

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise ValueError("waypoints must have shape (J, 3)")


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


def _endpoints(obstacles: Iterable[CuboidObstacle], start: Xyz, goal: Xyz, step: float):
    """Shared prologue of the tree planners: (boxes, start, goal, trivial path),
    the endpoints as plain float triples.

    The trivial path is the whole answer when the endpoints coincide or see
    each other within one step, and None otherwise.
    """
    boxes = flatten_obstacles(obstacles)
    s, g = tuple(start), tuple(goal)
    if not point_free(s, boxes):
        raise PlanningFailed(f"start point {start} lies inside an obstacle")
    if not point_free(g, boxes):
        raise PlanningFailed(f"goal point {goal} lies inside an obstacle")
    if s == g:
        return boxes, s, g, [s]
    if _dist(s, g) <= step and segment_free(s, g, boxes):
        return boxes, s, g, [s, g]
    return boxes, s, g, None


def rrt_plan(
    bounds: tuple[np.ndarray, np.ndarray],
    obstacles: Iterable[CuboidObstacle],
    start: Xyz,
    goal: Xyz,
    params: RrtParams,
    rng: np.random.Generator,
) -> list[Xyz]:
    """Grow a tree from start until it can reach goal; return the raw polyline
    as float triples."""
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial

    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    tree = _Tree(s)
    step = params.step_size
    goal_bias = params.goal_bias
    draws = _Draws(rng)
    try:
        for _ in range(params.max_iterations):
            if draws.one() < goal_bias:
                target = g
            else:
                ux, uy, uz = draws.three()
                target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
            new = tree.extend(target, step, boxes)
            if new is None:
                continue
            if _dist(new, g) <= step and segment_free(new, g, boxes):
                tree.add(g, len(tree.pts) - 1)
                return tree.trace()
    finally:
        draws.rewind()
    raise PlanningFailed(f"RRT failed to connect within {params.max_iterations} iterations")


def birrt_plan(
    bounds: tuple[np.ndarray, np.ndarray],
    obstacles: Iterable[CuboidObstacle],
    start: Xyz,
    goal: Xyz,
    params: RrtParams,
    rng: np.random.Generator,
) -> list[Xyz]:
    """Bi-RRT: trees from both endpoints with a greedy connect step each
    iteration; returns the raw polyline as float triples."""
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial

    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    # The greedy connect march can add several nodes per iteration.
    cap = 2 * params.max_iterations + 64
    trees = [_Tree(s), _Tree(g)]
    step = params.step_size
    a = 0  # tree extended toward the sample this iteration
    draws = _Draws(rng)
    try:
        for _ in range(params.max_iterations):
            if len(trees[0].pts) >= cap - 1 or len(trees[1].pts) >= cap - 1:
                break
            ux, uy, uz = draws.three()
            target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
            new = trees[a].extend(target, step, boxes)
            if new is not None and trees[1 - a].connect(new, step, boxes, cap - 1):
                return trees[0].trace() + trees[1].trace()[-2::-1]
            a = 1 - a
    finally:
        draws.rewind()
    raise PlanningFailed(f"Bi-RRT failed to connect within {params.max_iterations} iterations")


def _dist(a, b) -> float:
    """Euclidean distance, `sqrt((dx*dx + dy*dy) + dz*dz)`: single IEEE
    operations, so the same bits on any host."""
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


class _Draws:
    """`rng.random()` values drawn in growing blocks and handed out in order.

    `rewind()` puts the generator where one draw per value handed out would
    have left it: it restores the state saved at construction (a buffered
    uint32 included) and redraws that many doubles.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._saved = rng.bit_generator.state
        self._block = 32  # doubled before each draw, up to 4096
        self._buf: list[float] = []
        self._pos = 0
        self._spent = 0  # values handed out from earlier blocks

    def _refill(self) -> None:
        self._spent += self._pos
        self._block = min(2 * self._block, 4096)
        self._buf = self._buf[self._pos :] + self._rng.random(self._block).tolist()
        self._pos = 0

    def one(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        self._pos += 1
        return self._buf[self._pos - 1]

    def three(self) -> tuple[float, float, float]:
        if self._pos + 3 > len(self._buf):
            self._refill()
        k = self._pos
        self._pos = k + 3
        buf = self._buf
        return buf[k], buf[k + 1], buf[k + 2]

    def rewind(self) -> None:
        self._rng.bit_generator.state = self._saved
        self._rng.random(self._spent + self._pos)


# Trees up to this many nodes are ranked by a Python scan over the float
# tuples, larger ones by numpy over the mirror; the two cost the same per
# query at about this size.
_SCAN_MAX_NODES = 36
# The mirror's column count is the tree size rounded up to this many columns.
_MIRROR_CHUNK = 64


class _Tree:
    """Search tree of one planner: nodes as float tuples and their parents.

    The nearest node to a target minimises the key (dx*dx + dz*dz) + dy*dy,
    where d is node minus target, and the first minimum wins ties. Each
    operation is one IEEE rounding, so the Python scan of small trees and the
    numpy path of large ones pick the same node on any numpy build. The numpy
    path works on an axis-major (3, capacity) mirror of the nodes, built on
    the first numpy query and filled lazily from the tuples; its spare
    columns hold +inf, which never wins.
    """

    def __init__(self, root: Xyz):
        self.pts = [root]
        self.parents = [-1]
        self._capacity = 0  # columns of the mirror; none until a numpy query
        self._synced = 0  # nodes copied into the mirror

    def add(self, p, parent: int) -> None:
        self.pts.append(p)
        self.parents.append(parent)

    def _grow_mirror(self, n: int) -> None:
        cap = self._capacity = -(-n // _MIRROR_CHUNK) * _MIRROR_CHUNK
        mirror = np.full((3, cap), np.inf)
        if self._synced:
            mirror[:, : self._synced] = self._mirror[:, : self._synced]
        self._mirror = mirror
        self._sq = np.empty((3, cap))  # squared gaps
        self._sq_rows = tuple(self._sq)
        self._target = np.empty((3, 1))

    @staticmethod
    def _key(p, target) -> float:
        """The nearest-node key of node p, as `nearest` computes it."""
        dx = p[0] - target[0]
        dy = p[1] - target[1]
        dz = p[2] - target[2]
        return dx * dx + dz * dz + dy * dy

    def nearest(self, target) -> int:
        """Index of the node nearest to target (the first one on ties)."""
        pts = self.pts
        n = len(pts)
        if n <= _SCAN_MAX_NODES:
            tx, ty, tz = target
            best = math.inf
            idx = i = 0
            for x, y, z in pts:
                dx = x - tx
                dy = y - ty
                dz = z - tz
                d = dx * dx + dz * dz + dy * dy
                if d < best:
                    best = d
                    idx = i
                i += 1
            return idx
        if n > self._capacity:
            self._grow_mirror(n)
        mirror = self._mirror
        for k in range(self._synced, n):
            mirror[:, k] = pts[k]
        self._synced = n
        self._target[:, 0] = target
        sq = self._sq
        np.subtract(mirror, self._target, out=sq)
        np.multiply(sq, sq, out=sq)
        sx, sy, sz = self._sq_rows
        np.add(sx, sz, out=sx)
        np.add(sx, sy, out=sx)
        return int(sx.argmin())

    def extend(self, target, step: float, boxes: Boxes, idx: Optional[int] = None):
        """One collision-checked step toward target from node idx, by default
        the nearest node.

        Adds and returns the new point, or returns None when blocked or
        degenerate.
        """
        if idx is None:
            idx = self.nearest(target)
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

    def connect(self, target, step: float, boxes: Boxes, limit: int) -> bool:
        """Greedy connect: extend toward target again and again while the tree
        has fewer than `limit` nodes; True once a new node reaches target,
        False when blocked.

        Each step grows from the node `nearest` returns. After the first, that
        is the node just added when its key is strictly below its parent's:
        the parent was the first minimum over the older nodes, so the new node
        is the only minimum. Otherwise the tree is scanned again.
        """
        idx = None
        while len(self.pts) < limit:
            new = self.extend(target, step, boxes, idx)
            if new is None:
                return False
            if _dist(new, target) <= 1e-9:
                return True
            idx = len(self.pts) - 1
            if not self._key(new, target) < self._key(self.pts[self.parents[idx]], target):
                idx = None
        return False

    def trace(self) -> list[Xyz]:
        """Root-to-newest-node path, as float triples."""
        order = []
        i = len(self.pts) - 1
        while i >= 0:
            order.append(i)
            i = self.parents[i]
        return [self.pts[i] for i in reversed(order)]


def shortcut(path: Sequence[Sequence[float]], boxes: Boxes) -> list:
    """Greedy farthest-visible shortcutting; keeps the path collision-free.

    `path` holds float triples, and so does the returned list.
    """
    if len(path) <= 2:
        return list(path)
    keep = [path[0]]
    i = 0
    last = len(path) - 1
    while i < last:
        j = last
        while j > i + 1 and not segment_free(path[i], path[j], boxes):
            j -= 1
        keep.append(path[j])
        i = j
    return keep


def moving_average_smooth(path: Sequence[Sequence[float]], boxes: Boxes, window: int) -> list:
    """Average each interior vertex over its window, skipping moves that collide.

    `path` holds float triples, and so does the returned list. A window's
    mean adds its rows in order to 0.0 (so rows of -0.0 average to 0.0),
    then divides by their count, as numpy's `mean(axis=0)` does.
    """
    if len(path) <= 2 or window < 2:
        return list(path)
    half = window // 2
    n = len(path)
    out = list(path)
    for i in range(1, n - 1):
        rows = path[max(0, i - half) : min(n, i + half + 1)]
        sx = sy = sz = 0.0
        for x, y, z in rows:
            sx += x
            sy += y
            sz += z
        k = len(rows)
        candidate = (sx / k, sy / k, sz / k)
        if segment_free(out[i - 1], candidate, boxes) and segment_free(candidate, out[i + 1], boxes):
            out[i] = candidate
    return out


def resample_polyline(path: Sequence[Xyz], count: int) -> list[Xyz]:
    """Exactly `count` points along the polyline of float triples, preserving
    every vertex, as float triples.

    The count-1 intervals are shared among segments proportionally to length
    (each segment keeps at least one), and points are equally spaced within
    each segment, so the geometry is unchanged. A single point is repeated.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if len(path) < 2:
        return [tuple(p) for p in path] * count
    n_seg = len(path) - 1
    if n_seg > count - 1:
        raise ValueError(f"cannot keep {len(path)} vertices with only {count} points")
    # Float arithmetic in the order numpy's norm(diff(path), axis=1) and the
    # elementwise forms use; only the total keeps numpy's pairwise sum, which
    # for one segment is its length.
    segments = list(zip(path, path[1:]))
    lengths = []
    for (ax, ay, az), (bx, by, bz) in segments:
        dx, dy, dz = bx - ax, by - ay, bz - az
        lengths.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
    total = lengths[0] if n_seg == 1 else float(np.sum(lengths))
    extra = count - 1 - n_seg
    shares = [1] * n_seg
    if extra > 0:
        if total > 0:
            quota = [length / total * extra for length in lengths]
        else:
            quota = [extra / n_seg] * n_seg
        base = [math.floor(q) for q in quota]
        shares = [1 + b for b in base]
        remainder = extra - sum(base)
        if remainder > 0:
            # Largest fractional remainders first; ties to the earlier segment.
            order = sorted(range(n_seg), key=lambda k: -(quota[k] - base[k]))
            for k in order[:remainder]:
                shares[k] += 1
    out = [tuple(path[0])]
    for ((ax, ay, az), (bx, by, bz)), share in zip(segments, shares):
        for k in range(1, share + 1):
            t = k / share
            u = 1 - t
            out.append((ax * u + bx * t, ay * u + by * t, az * u + bz * t))
    return out


def _smooth(raw: Sequence[Xyz], boxes: Boxes) -> list[Xyz]:
    """Shortcut, moving-average smooth, and shortcut again a raw planner path
    of float triples; float triples in the returned list."""
    path = shortcut(raw, boxes)
    path = moving_average_smooth(path, boxes, SMOOTH_WINDOW)
    return shortcut(path, boxes)


def smooth_and_resample(
    raw: Sequence[Xyz],
    obstacles: Iterable[CuboidObstacle],
    count: int = DEFAULT_WAYPOINT_COUNT,
) -> list[Xyz]:
    """Shortcut, smooth, and resample a raw polyline of float triples to
    exactly `count` float triples.

    Endpoints and every vertex of the smoothed path are kept, and the result
    stays collision-free: each step only replaces subchains with segments it
    has checked. Raises PlanningFailed when the smoothed path has more than
    `count` vertices.
    """
    path = _smooth(raw, flatten_obstacles(obstacles))
    if len(path) > count:
        raise PlanningFailed(f"smoothed path keeps {len(path)} vertices, more than {count} waypoints")
    return resample_polyline(path, count)


def straight_points(start: Xyz, goal: Xyz, count: int = DEFAULT_WAYPOINT_COUNT) -> list[Xyz]:
    """Straight-line connection resampled to `count` points, as float triples
    (collisions allowed)."""
    return resample_polyline((start, goal), count)

