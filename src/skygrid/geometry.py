"""Geometric primitives: points, cuboid obstacles, angles, and collision tests.

All distances are in meters, angles in degrees. Every function here is a
pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class DegenerateSegment(Exception):
    """Raised when an angle is requested for a segment with no usable direction."""


class ObstacleKind(Enum):
    STATIC = "static"
    SUDDEN = "sudden"


@dataclass(frozen=True)
class Point3:
    """A position in airspace-local coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinate in {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class SegmentDelta:
    """Componentwise difference between two consecutive waypoints."""

    qx: float
    qy: float
    qz: float


@dataclass(frozen=True)
class CuboidObstacle:
    """Axis-aligned box given by the corner nearest the origin plus edge lengths.

    Static obstacles are grounded buildings (anchor.z == 0); sudden obstacles
    may float.
    """

    anchor: Point3
    len_x: float
    len_y: float
    len_z: float
    kind: ObstacleKind = ObstacleKind.STATIC
    id: str = ""
    # Corners (x0, y0, z0, x1, y1, z1) as plain floats, computed once.
    box: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.len_x <= 0 or self.len_y <= 0 or self.len_z <= 0:
            raise ValueError("cuboid edge lengths must be positive")
        if self.kind is ObstacleKind.STATIC and self.anchor.z != 0:
            raise ValueError("static obstacle must be grounded (anchor.z == 0)")
        if self.anchor.z < 0:
            raise ValueError("obstacle anchor.z must be >= 0")
        x0, y0, z0 = float(self.anchor.x), float(self.anchor.y), float(self.anchor.z)
        object.__setattr__(
            self,
            "box",
            (x0, y0, z0, x0 + float(self.len_x), y0 + float(self.len_y), z0 + float(self.len_z)),
        )

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.box[:3])

    @property
    def hi(self) -> np.ndarray:
        return np.array(self.box[3:])

    def overlaps(self, lo: Sequence[float], hi: Sequence[float]) -> bool:
        """True iff the volume overlaps the box [lo, hi] (open-interval overlap)."""
        x0, y0, z0, x1, y1, z1 = self.box
        return (
            x0 < hi[0] and x1 > lo[0] and y0 < hi[1] and y1 > lo[1] and z0 < hi[2] and z1 > lo[2]
        )

    @property
    def center(self) -> Point3:
        c = (self.lo + self.hi) / 2.0
        return Point3.from_array(c)


def segment_delta(a: Point3, b: Point3) -> SegmentDelta:
    """Vector from waypoint a to waypoint b."""
    return SegmentDelta(b.x - a.x, b.y - a.y, b.z - a.z)


def segment_length(d: SegmentDelta) -> float:
    """Euclidean length of a segment delta."""
    return math.sqrt(d.qx * d.qx + d.qy * d.qy + d.qz * d.qz)


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
    length = segment_length(d)
    if length == 0.0:
        raise DegenerateSegment("zero-length segment has no pitch")
    s = max(-1.0, min(1.0, d.qz / length))
    return math.degrees(math.asin(s))


def point_to_cuboid_distance(p: Point3, ob: CuboidObstacle) -> float:
    """Distance from a point to the nearest point of the cuboid (0 if inside).

    Clamping the point to the box collapses the per-region case analysis into
    one formula.
    """
    q = p.as_array()
    clamped = np.clip(q, ob.lo, ob.hi)
    return float(np.linalg.norm(q - clamped))


def points_to_cuboids_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Batched clamp-to-box distances.

    points: (..., 3); lo, hi: (K, 3) stacked cuboid corners.
    Returns distances of shape (..., K).
    """
    p = points[..., None, :]
    clamped = np.clip(p, lo, hi)
    return np.linalg.norm(p - clamped, axis=-1)


def segment_intersects_cuboid(a: Point3, b: Point3, ob: CuboidObstacle, margin: float = 0.0) -> bool:
    """True iff segment a-b comes within `margin` of the cuboid.

    Slab test against the cuboid inflated by `margin` on every face.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return bool(
        segments_intersect_cuboids(
            a.as_array()[None, :],
            b.as_array()[None, :],
            ob.lo[None, :],
            ob.hi[None, :],
            margin,
        )[0]
    )


def segments_intersect_cuboids(
    starts: np.ndarray,
    ends: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    margin: float = 0.0,
) -> np.ndarray:
    """Batched slab test: does segment i hit any of the K inflated cuboids?

    starts, ends: (S, 3); lo, hi: (K, 3). Returns a boolean array of shape (S,).
    """
    if len(lo) == 0:
        return np.zeros(len(starts), dtype=bool)
    # Axis-major layout (3, 2K, S): the K lower and K upper slab planes of
    # every axis are divided in one pass over whole rows of segments, and the
    # per-axis min/max folds are two plain calls.
    k = len(lo)
    planes = np.concatenate((lo - margin, hi + margin)).T[:, :, None]  # (3, 2K, 1)
    a = np.ascontiguousarray(starts.T)[:, None, :]  # (3, 1, S)
    d = np.ascontiguousarray((ends - starts).T)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (planes - a) / d  # (3, 2K, S)
    t0, t1 = t[:, :k], t[:, k:]
    t_near = np.minimum(t0, t1)
    t_far = np.maximum(t0, t1)
    # A degenerate axis (d == 0) divides to infinities that already decide
    # the box: -inf/+inf inside the slab, the same infinity twice outside it,
    # which rules the box out. Only a start exactly on one of that axis's
    # planes gives 0/0 = NaN; then the explicit rule applies: inside iff
    # lo <= a <= hi.
    if np.isnan(t).any():
        zero = d == 0
        inside = (a >= planes[:, :k]) & (a <= planes[:, k:])
        t_near = np.where(zero, np.where(inside, -np.inf, np.inf), t_near)
        t_far = np.where(zero, np.where(inside, np.inf, -np.inf), t_far)
    enter = np.maximum(np.maximum(t_near[0], t_near[1]), t_near[2])  # (K, S)
    exit_ = np.minimum(np.minimum(t_far[0], t_far[1]), t_far[2])
    hit = (enter <= exit_) & (exit_ >= 0.0) & (enter <= 1.0)
    return hit.any(axis=0)


def path_is_collision_free(
    waypoints: np.ndarray, obstacles: Iterable[CuboidObstacle], margin: float = 0.0
) -> bool:
    """Check every consecutive segment of a waypoint array against all obstacles."""
    lo, hi = obstacle_arrays(obstacles)
    if not len(lo) or len(waypoints) < 2:
        return True
    hits = segments_intersect_cuboids(waypoints[:-1], waypoints[1:], lo, hi, margin)
    return not bool(hits.any())


def obstacle_arrays(obstacles: Iterable[CuboidObstacle]) -> tuple[np.ndarray, np.ndarray]:
    """Stack obstacle corners into (K, 3) lo/hi arrays for the batched tests."""
    boxes = [o.box for o in obstacles]
    if not boxes:
        return np.zeros((0, 3)), np.zeros((0, 3))
    return np.array([b[:3] for b in boxes]), np.array([b[3:] for b in boxes])
