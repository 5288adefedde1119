"""Shared fixtures and the independent oracles the tests check the planner
against: angles and lengths, clamp distance, dense-sampling collision,
exhaustive coarse search and UAV-to-UAV separation. They share no code with
the planner's kernels."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from skygrid.adsb import PositionReport
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def reference_obstacle():
    """The worked-example building: anchor (2, 2, 0), edges 2 x 3 x 4."""
    return CuboidObstacle(anchor=Point3(2.0, 2.0, 0.0), len_x=2.0, len_y=3.0, len_z=4.0)


# -- angle and length oracle ---------------------------------------------------


class DegenerateSegment(Exception):
    """Raised when an angle is requested for a segment with no usable direction."""


@dataclass(frozen=True)
class SegmentDelta:
    """Componentwise difference between two consecutive waypoints."""

    qx: float
    qy: float
    qz: float


def segment_delta(a: Point3, b: Point3) -> SegmentDelta:
    """Vector from waypoint a to waypoint b."""
    return SegmentDelta(b.x - a.x, b.y - a.y, b.z - a.z)


def segment_length(d: SegmentDelta) -> float:
    """Euclidean length of a segment delta."""
    return math.sqrt(d.qx * d.qx + d.qy * d.qy + d.qz * d.qz)


def path_length(waypoints: np.ndarray) -> float:
    """Summed segment lengths of a (J, 3) waypoint array."""
    return float(np.linalg.norm(np.diff(waypoints, axis=0), axis=1).sum())


def turn_angle(prev: SegmentDelta, nxt: SegmentDelta) -> float:
    """Angle in [0, 180] degrees between the horizontal projections of two segments.

    Raises DegenerateSegment for purely vertical segments (no horizontal
    heading to compare); callers treat that as a constraint violation.
    """
    na = math.hypot(prev.qx, prev.qy)
    nb = math.hypot(nxt.qx, nxt.qy)
    if na == 0.0 or nb == 0.0:
        raise DegenerateSegment("purely vertical segment has no horizontal heading")
    dot = (prev.qx * nxt.qx + prev.qy * nxt.qy) / (na * nb)
    dot = max(-1.0, min(1.0, dot))
    return math.degrees(math.acos(dot))


def pitch_angle(d: SegmentDelta) -> float:
    """Climb angle in [-90, 90] degrees of a single segment."""
    if segment_length(d) == 0.0:
        raise DegenerateSegment("zero-length segment has no pitch")
    # atan2 stays well conditioned near +-90 degrees, where asin(qz / length)
    # turns one rounding of the length into ~1e-6 degrees.
    return math.degrees(math.atan2(d.qz, math.hypot(d.qx, d.qy)))


# -- clearance and collision oracles -------------------------------------------


def point_to_cuboid_distance(p: Point3, ob: CuboidObstacle) -> float:
    """Distance from a point to the nearest point of the cuboid (0 if inside).

    Clamping the point to the box collapses the per-region case analysis into
    one formula.
    """
    q = np.array(p)
    clamped = np.clip(q, ob.box[:3], ob.box[3:])
    return float(np.linalg.norm(q - clamped))


def dense_sample_penetrates(waypoints, obstacles, step=0.1):
    """Independent collision oracle: walk every segment at `step` resolution
    and report whether any sample lies strictly inside any obstacle."""
    waypoints = np.asarray(waypoints, dtype=float)
    if len(obstacles) == 0 or len(waypoints) < 2:
        return False
    lo = np.array([ob.box[:3] for ob in obstacles])
    hi = np.array([ob.box[3:] for ob in obstacles])
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg_len = float(np.linalg.norm(b - a))
        n = max(2, int(np.ceil(seg_len / step)) + 1)
        t = np.linspace(0.0, 1.0, n)[:, None]
        pts = a * (1 - t) + b * t  # (n, 3)
        inside = (pts[:, None, :] > lo) & (pts[:, None, :] < hi)
        if inside.all(axis=2).any():
            return True
    return False


# -- coarse planning oracle ----------------------------------------------------


def exhaustive_min_cost(grid, cost_of, start, goal):
    """Independent coarse-planning oracle: depth-first enumeration of simple
    cell paths with branch-and-bound pruning; returns the minimum summed node
    cost from start to goal (both included)."""
    best = [float("inf")]

    def dfs(cell, visited, cost):
        if cost >= best[0]:
            return
        if cell == goal:
            best[0] = cost
            return
        for nb in grid.adjacency[cell]:
            if nb not in visited:
                dfs(nb, visited | {nb}, cost + cost_of(nb))

    dfs(start, {start}, cost_of(start))
    return best[0]


# -- UAV separation oracle ------------------------------------------------------


def separation_minima(log, speeds, dt):
    """Independent UAV-to-UAV separation oracle over an ADS-B bus log.

    Returns (the smallest separation of two UAVs reported at the same tick,
    the smallest lower bound on their separation between two consecutive
    ticks). Two UAVs at speeds v_i and v_j, d0 apart at one tick and d1 at the
    next, close by at most (v_i + v_j) * s in time s, so during that tick of
    length dt they stay at least (d0 + d1 - (v_i + v_j) * dt) / 2 apart. A
    pair is bounded over the ticks where both report at both ends. `speeds`
    maps each UAV id to its speed.
    """
    ticks: dict[int, dict[str, tuple]] = {}
    for msg in log:
        p = msg.payload
        if isinstance(p, PositionReport):
            ticks.setdefault(msg.tick, {})[p.uav_id] = (p.x, p.y, p.z)

    def pair_distances(ids, at):
        xyz = np.array([at[k] for k in ids], dtype=float).reshape(-1, 3)
        i, j = np.triu_indices(len(ids), 1)
        return np.linalg.norm(xyz[i] - xyz[j], axis=1), i, j

    sampled = bound = math.inf
    for tick, at in ticks.items():
        ids = sorted(at)
        d, _, _ = pair_distances(ids, at)
        sampled = min(sampled, d.min(initial=math.inf))
        before = ticks.get(tick - 1, {})
        both = [k for k in ids if k in before]
        d1, i, j = pair_distances(both, at)
        d0, _, _ = pair_distances(both, before)
        v = np.array([speeds[k] for k in both])
        bound = min(bound, ((d0 + d1 - (v[i] + v[j]) * dt) / 2).min(initial=math.inf))
    return float(sampled), float(bound)


def make_sudden(center, side=6.0):
    """Axis-aligned sudden-obstacle cube centered on a point (clipped to z>=0)."""
    cx, cy, cz = float(center[0]), float(center[1]), float(center[2])
    z0 = max(0.0, cz - side / 2)
    return CuboidObstacle(
        anchor=Point3(cx - side / 2, cy - side / 2, z0),
        len_x=side,
        len_y=side,
        len_z=side,
        kind=ObstacleKind.SUDDEN,
        id="sudden",
    )


def assert_float_triples(path):
    """A route in the one coordinate form: a non-empty tuple or list of plain
    tuples of three Python floats (no `Point3`, no `np.float64`)."""
    assert type(path) in (tuple, list) and len(path) > 0
    assert all(type(p) is tuple and len(p) == 3 for p in path)
    assert all(type(v) is float for p in path for v in p)
