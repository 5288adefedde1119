"""Geometric primitives: points, cuboid obstacles, and collision tests.

All distances are in meters. Every function here is a pure function of its
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np


# A position as a float triple, the form routes are kept in.
Xyz = tuple[float, float, float]


class ObstacleKind(Enum):
    STATIC = "static"
    SUDDEN = "sudden"


class _Xyz(NamedTuple):
    x: float
    y: float
    z: float


class Point3(_Xyz):
    """A position in airspace-local coordinates: a finite float triple, so an
    `Xyz` too."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        x, y, z = float(x), float(y), float(z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"non-finite coordinate in {(x, y, z)}")
        return super().__new__(cls, x, y, z)


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
        x0, y0, z0 = self.anchor
        box = (x0, y0, z0, x0 + float(self.len_x), y0 + float(self.len_y), z0 + float(self.len_z))
        # An edge sum or a corner sum past the float range overflows to inf.
        if not all(math.isfinite(v) for v in box + tuple(a + b for a, b in zip(box[:3], box[3:]))):
            raise ValueError(f"obstacle box corners and centre must be finite, got corners {box}")
        object.__setattr__(self, "box", box)

    def overlaps(self, lo: Sequence[float], hi: Sequence[float]) -> bool:
        """True iff the volume overlaps the box [lo, hi] (open-interval overlap)."""
        x0, y0, z0, x1, y1, z1 = self.box
        return (
            x0 < hi[0] and x1 > lo[0] and y0 < hi[1] and y1 > lo[1] and z0 < hi[2] and z1 > lo[2]
        )

    @property
    def center(self) -> Point3:
        x0, y0, z0, x1, y1, z1 = self.box
        return Point3((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0)


# Not called by the planner; perfbench's span table (tracing.SPANS) looks it up by name.
def points_to_cuboids_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Batched clamp-to-box distances.

    points: (..., 3); lo, hi: (K, 3) stacked cuboid corners.
    Returns distances of shape (..., K); see `box_distances`.
    """
    shape = (3,) + (1,) * (points.ndim - 1) + (len(lo),)
    return box_distances(np.moveaxis(points, -1, 0), lo.T.reshape(shape), hi.T.reshape(shape))


def box_distances(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Clamp-to-box distances of axis-major points.

    points: (3, ...); lo, hi: (3, 1, ..., 1, K), the box corners per axis
    with one axis of length 1 for each trailing axis of points. Returns a
    C-contiguous (..., K) array: sqrt((x² + y²) + z²) of the per-axis gaps
    to the clamped point, 0 inside a box.
    """
    p = points[..., None]
    gap = np.maximum(p, lo)
    np.minimum(gap, hi, out=gap)
    np.subtract(gap, p, out=gap)
    np.multiply(gap, gap, out=gap)
    total = gap[0] + gap[1]
    np.add(total, gap[2], out=total)
    return np.sqrt(total, out=total)


# Not called by the planner; perfbench's span table (tracing.SPANS) looks it up by name.
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return slab_test(
            np.ascontiguousarray(starts.T),
            np.ascontiguousarray((ends - starts).T),
            slab_planes(lo - margin, hi + margin, 1),
        )


def slab_planes(lo: np.ndarray, hi: np.ndarray, ndim: int) -> np.ndarray:
    """The K lower and K upper planes per axis of the boxes (K, 3), as
    (3, 2K, 1, ..., 1) with ndim trailing axes for `slab_test`."""
    planes = np.concatenate((lo, hi)).T
    return planes.reshape(planes.shape + (1,) * ndim)


def slab_test(starts: np.ndarray, deltas: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Slab test of axis-major segments against K boxes.

    starts, deltas: (3, ...) segment starts and vectors; planes: the
    (3, 2K, 1, ..., 1) output of `slab_planes`. Returns a boolean array of
    the segments' shape: does the segment hit any of the boxes? Zero deltas
    divide by zero; callers silence numpy's floating-point warnings.
    """
    # The K lower and K upper planes of every axis are divided in one pass
    # over whole rows of segments.
    k = planes.shape[1] // 2
    a = starts[:, None]  # (3, 1, ...)
    d = deltas[:, None]
    t = (planes - a) / d  # (3, 2K, ...)
    t_near = np.minimum(t[:, :k], t[:, k:])
    t_far = np.maximum(t[:, :k], t[:, k:])
    # The segment is the parameter interval [0, 1].
    enter = np.maximum.reduce(t_near, 0, initial=0.0)  # (K, ...)
    exit_ = np.minimum.reduce(t_far, 0, initial=1.0)
    # A degenerate axis (d == 0) divides to infinities that already decide
    # the box: -inf/+inf inside the slab, the same infinity twice outside it,
    # which rules the box out. Only a start exactly on one of that axis's
    # planes gives 0/0 = NaN, which min and max carry into `enter`; then the
    # explicit rule applies: inside iff lo <= a <= hi.
    if np.isnan(enter).any():
        zero = d == 0
        inside = (a >= planes[:, :k]) & (a <= planes[:, k:])
        t_near = np.where(zero, np.where(inside, -np.inf, np.inf), t_near)
        t_far = np.where(zero, np.where(inside, np.inf, -np.inf), t_far)
        enter = np.maximum.reduce(t_near, 0, initial=0.0)
        exit_ = np.minimum.reduce(t_far, 0, initial=1.0)
    return np.logical_or.reduce(enter <= exit_, 0)


def obstacle_arrays(obstacles: Iterable[CuboidObstacle]) -> tuple[np.ndarray, np.ndarray]:
    """Stack obstacle corners into (K, 3) lo/hi arrays for the batched tests."""
    boxes = [o.box for o in obstacles]
    if not boxes:
        return np.zeros((0, 3)), np.zeros((0, 3))
    return np.array([b[:3] for b in boxes]), np.array([b[3:] for b in boxes])
