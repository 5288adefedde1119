"""Particle-swarm refinement of seed trajectories inside one sub-airspace.

A population of RRT, Bi-RRT, and straight-line seed paths is optimized under
a cost that trades obstacle clearance against trajectory length, subject to
segment-length, turn/pitch-angle, and cell-bound constraints handled by an
additive large penalty. Endpoints are fixed boundary conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Point3, box_distances, obstacle_arrays, slab_planes, slab_test
from .sampling import (
    DEFAULT_SMOOTH_WINDOW,
    DEFAULT_WAYPOINT_COUNT,
    PlanningFailed,
    RrtParams,
    Waypath,
    birrt_plan,
    rrt_plan,
    smooth_and_resample,
    straight_points,
)

VIOLATION_PENALTY = 1.0e6


class NoFeasibleSeed(PlanningFailed):
    """Every particle still has infinite penalized cost after the iteration budget."""


@dataclass(frozen=True)
class CostParams:
    k3: float = 0.8
    k4: float = 0.2
    k5: float = 100.0
    k6: float = 100.0

    def __post_init__(self):
        # 0 turns a term off; a negative weight would reward length or closeness.
        for name in ("k3", "k4", "k5", "k6"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class ConstraintParams:
    """Kinematic and containment limits for one sub-airspace trajectory."""

    l_max: float = 40.0
    L_max: float = 400.0
    ta_max: float = 60.0
    pa_max: float = 45.0
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.array([200.0, 200.0, 50.0]))

    def __post_init__(self):
        self.bounds_lo = np.asarray(self.bounds_lo, dtype=float)
        self.bounds_hi = np.asarray(self.bounds_hi, dtype=float)
        if not all(0 < v < math.inf for v in (self.l_max, self.L_max, self.ta_max, self.pa_max)):
            raise ValueError("constraint limits must be finite and positive")
        if not np.all(self.bounds_hi > self.bounds_lo):
            raise ValueError("bounds_hi must exceed bounds_lo on every axis")


@dataclass(frozen=True)
class SwarmParams:
    inertia: float = 0.8
    c1: float = 1.4
    c2: float = 1.4
    v_max: float = 2.5
    max_iterations: int = 100
    stall_iterations: int = 20
    stall_tolerance: float = 1.0e-6
    # One RRT seed costs about seven Bi-RRT seeds, and on the reference cell
    # 10 + 15 reaches the final cost of 15 + 15; both planners stay (PSO-RRT).
    n_rrt: int = 10
    n_birrt: int = 15

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.inertia, self.c1, self.c2, self.stall_tolerance)):
            raise ValueError("inertia, c1, c2 and stall_tolerance must be finite")
        # Velocities are clamped to [-v_max, v_max].
        if not 0 < self.v_max < math.inf:
            raise ValueError("v_max must be finite and positive")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.stall_iterations < 1:
            raise ValueError(f"stall_iterations must be >= 1, got {self.stall_iterations}")
        if self.stall_tolerance < 0:
            raise ValueError(f"stall_tolerance must be >= 0, got {self.stall_tolerance}")
        if self.n_rrt < 0 or self.n_birrt < 0:
            raise ValueError(f"n_rrt and n_birrt must be >= 0, got {self.n_rrt} and {self.n_birrt}")
        if self.n_rrt + self.n_birrt < 1:
            raise ValueError("n_rrt + n_birrt must be >= 1: the swarm needs a sampled seed path")


def _angle_limits(constraints: ConstraintParams) -> tuple[float, float]:
    """(sin_pa, cos_ta): a segment is too steep when |dz| > sin_pa · length, and
    a turn too sharp when h1 · h2 < cos_ta · |h1| |h2|. A limit at or above 90°
    (pitch) or 180° (turn) rules nothing out. cos_ta is sin(90° − ta_max):
    exactly 0 at 90°, where cos(ta_max) is 6.1e-17 and fails a right angle."""
    sin_pa = math.sin(math.radians(constraints.pa_max)) if constraints.pa_max < 90.0 else math.inf
    cos_ta = math.sin(math.radians(90.0 - constraints.ta_max)) if constraints.ta_max < 180.0 else -math.inf
    return sin_pa, cos_ta


class _Scorer:
    """The evaluation kernel of the swarm and of the single-path entry points,
    with its per-call constants built once.

    `cp` switches the cost on and `constraints` the constraint and collision
    penalty; either part is left at 0 when its parameters are None.
    """

    def __init__(
        self,
        static: Sequence[CuboidObstacle],
        sudden: Sequence[CuboidObstacle],
        cp: Optional[CostParams],
        constraints: Optional[ConstraintParams],
    ):
        self.k4 = cp.k4 if cp is not None else None
        # (lo, hi, k3·k) of each obstacle kind whose clearance term is on;
        # with no obstacles of a kind its weight is forced to 0.
        self.clearance = []
        if cp is not None:
            for kind, k in ((static, cp.k5), (sudden, cp.k6)):
                if kind and k != 0:
                    lo, hi = obstacle_arrays(kind)
                    shape = (3, 1, 1, len(kind))
                    self.clearance.append((lo.T.reshape(shape), hi.T.reshape(shape), cp.k3 * k))
        self.constraints = constraints
        if constraints is not None:
            self.bounds_lo = constraints.bounds_lo.reshape(3, 1, 1)
            self.bounds_hi = constraints.bounds_hi.reshape(3, 1, 1)
            self.sin_pa, self.cos_ta = _angle_limits(constraints)
            lo, hi = obstacle_arrays([*static, *sudden])
            self.planes = slab_planes(lo, hi, 2) if len(lo) else None

    def __call__(self, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost and penalty of an axis-major (3, P, J) batch of paths."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._score(paths)

    def _score(self, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = paths[:, :, 1:] - paths[:, :, :-1]  # (3, P, J-1) segment vectors
        sq = d * d
        h2 = sq[0] + sq[1]
        # sqrt((dx² + dy²) + dz²): the order np.linalg.norm sums in.
        lengths = np.sqrt(h2 + sq[2])  # (P, J-1)
        total_len = np.add.reduce(lengths, 1)

        cost = 0.0
        if self.k4 is not None:
            cost = self.k4 * total_len
            for lo, hi, weight in self.clearance:
                # A C-contiguous (P, J, K) sum, reduced in the order numpy
                # reduces it; a summed clearance of exactly 0 costs +inf.
                dist_sum = np.add.reduce(box_distances(paths, lo, hi), (1, 2))
                term = weight / dist_sum
                term[dist_sum == 0.0] = np.inf
                cost = cost + term

        c = self.constraints
        if c is None:
            return cost, 0.0
        # Per-segment violations: C1, the segment length limit; C4, the pitch
        # angle, where a zero-length segment is a violation; a collision.
        # Per-turn violations: C3, the angle between consecutive horizontal
        # headings, where a purely vertical segment is a violation; C5-C7,
        # an interior waypoint outside the cell box (endpoints are fixed
        # boundary conditions on the cell faces). Counts are integers, so
        # their sum does not depend on the order of the terms.
        steep = np.abs(d[2]) > self.sin_pa * lengths
        per_segment = np.add(lengths > c.l_max, steep | (lengths == 0.0), dtype=np.intp)
        if self.planes is not None:
            per_segment += slab_test(paths[:, :, :-1], d, self.planes)

        hx, hy = d[0], d[1]
        hn = np.sqrt(h2)
        dot = hx[:, :-1] * hx[:, 1:] + hy[:, :-1] * hy[:, 1:]
        denom = hn[:, :-1] * hn[:, 1:]
        sharp = dot < self.cos_ta * denom
        interior = paths[:, :, 1:-1]
        outside = np.logical_or.reduce((interior < self.bounds_lo) | (interior > self.bounds_hi), 0)
        per_turn = np.add(sharp | (denom == 0.0), outside, dtype=np.intp)

        # C2: the total length limit.
        violations = np.add.reduce(per_segment, 1) + np.add.reduce(per_turn, 1)
        violations += total_len > c.L_max
        return cost, VIOLATION_PENALTY * violations


def _obstacle_free_feasible(points: Sequence[Sequence[float]], constraints: ConstraintParams) -> bool:
    """`feasibility_penalty(np.array(points), constraints, []) == 0.0`, decided
    on float triples rule for rule as `_Scorer._score` decides it at P = 1:
    the same IEEE operations in the same order, against the same thresholds,
    and the total length by the kernel's pairwise `np.add.reduce`."""
    c = constraints
    sin_pa, cos_ta = _angle_limits(c)
    lengths, prev = [], None
    for (ax, ay, az), (bx, by, bz) in zip(points, points[1:]):
        dx, dy, dz = bx - ax, by - ay, bz - az
        h2 = dx * dx + dy * dy
        length = math.sqrt(h2 + dz * dz)
        # C1; C4, where a zero length counts.
        if length > c.l_max or abs(dz) > sin_pa * length or length == 0.0:
            return False
        hn = math.sqrt(h2)
        if prev is not None:
            px, py, pn = prev
            denom = pn * hn
            # C3, where a purely vertical segment counts.
            if px * dx + py * dy < cos_ta * denom or denom == 0.0:
                return False
        prev = dx, dy, hn
        lengths.append(length)
    lo, hi = c.bounds_lo.tolist(), c.bounds_hi.tolist()
    for p in points[1:-1]:  # C5-C7
        if any(v < a or v > b for v, a, b in zip(p, lo, hi)):
            return False
    return not np.add.reduce(lengths) > c.L_max  # C2


def _split_obstacles(obstacles: Iterable[CuboidObstacle]):
    static = [o for o in obstacles if o.kind is ObstacleKind.STATIC]
    sudden = [o for o in obstacles if o.kind is ObstacleKind.SUDDEN]
    return static, sudden


def _axis_major(path: np.ndarray) -> np.ndarray:
    """One (J, 3) path as a (3, 1, J) batch."""
    return np.asarray(path, dtype=float).T[:, None, :]


def trajectory_cost(
    path: np.ndarray,
    static: Sequence[CuboidObstacle],
    sudden: Sequence[CuboidObstacle],
    cp: CostParams,
) -> float:
    """Clearance-plus-length cost of one trajectory.

    The clearance terms divide by the summed distance from every waypoint to
    every obstacle of the kind; a sum of exactly 0 (waypoint touching an
    obstacle) yields +inf.
    """
    return float(_Scorer(static, sudden, cp, None)(_axis_major(path))[0][0])


def feasibility_penalty(
    path: np.ndarray,
    constraints: ConstraintParams,
    obstacles: Sequence[CuboidObstacle],
) -> float:
    """0 when all constraints hold and no segment collides; otherwise
    VIOLATION_PENALTY per violated constraint or colliding segment."""
    # Without a cost the obstacle kinds do not matter.
    return float(_Scorer(obstacles, (), None, constraints)(_axis_major(path))[1][0])


def penalized_cost(
    path: Waypath,
    obstacles: Sequence[CuboidObstacle],
    cp: CostParams,
    constraints: ConstraintParams,
) -> float:
    cost, penalty = _Scorer(*_split_obstacles(obstacles), cp, constraints)(_axis_major(path.waypoints))
    return float(cost[0]) + float(penalty[0])


def optimize(
    seeds: np.ndarray,
    obstacles: Sequence[CuboidObstacle],
    cp: CostParams,
    constraints: ConstraintParams,
    params: SwarmParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """Global-best PSO over the interior waypoints of a (P, J, 3) seed population.

    Returns the best-ever (J, 3) trajectory and the per-iteration global-best
    cost history (monotone non-increasing). Raises NoFeasibleSeed if every
    particle is still infinitely penalized when the budget runs out.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 3 or seeds.shape[2] != 3 or 0 in seeds.shape:
        raise ValueError(f"seeds must be a non-empty (P, J, 3) array, got shape {seeds.shape}")
    p, j, _ = seeds.shape
    first, last = seeds[0, 0], seeds[0, -1]
    if not ((seeds[:, 0] == first).all() and (seeds[:, -1] == last).all()):
        raise ValueError("all seeds must share their endpoints")

    score = _Scorer(*_split_obstacles(obstacles), cp, constraints)

    # The kernel's axis-major (3, P, J) paths: the fixed endpoint columns are
    # written once, the interior columns from x on every evaluation.
    x = seeds[:, 1:-1].copy()  # (P, J-2, 3)
    paths = np.empty((3, p, j))
    paths[:, :, 0] = first[:, None]
    paths[:, :, -1] = last[:, None]
    interior = paths[:, :, 1:-1]

    def evaluate(x: np.ndarray) -> np.ndarray:
        np.copyto(interior, x.transpose(2, 0, 1))
        cost, penalty = score(paths)
        return cost + penalty

    v = np.zeros_like(x)
    cost = evaluate(x)
    pbest = x.copy()
    pbest_cost = cost.copy()
    g_idx = int(pbest_cost.argmin())
    gbest = pbest[g_idx].copy()
    gbest_cost = float(pbest_cost[g_idx])
    history = [gbest_cost]
    stall = 0

    for _ in range(params.max_iterations):
        r1 = rng.random(x.shape)
        r2 = rng.random(x.shape)
        v = params.inertia * v + params.c1 * r1 * (pbest - x) + params.c2 * r2 * (gbest - x)
        np.maximum(v, -params.v_max, out=v)
        np.minimum(v, params.v_max, out=v)
        x += v
        np.maximum(x, constraints.bounds_lo, out=x)
        np.minimum(x, constraints.bounds_hi, out=x)
        cost = evaluate(x)

        improved = cost < pbest_cost
        np.copyto(pbest, x, where=improved[:, None, None])
        np.copyto(pbest_cost, cost, where=improved)
        g_idx = int(pbest_cost.argmin())
        if pbest_cost[g_idx] < gbest_cost - params.stall_tolerance:
            stall = 0
        else:
            stall += 1
        if pbest_cost[g_idx] < gbest_cost:
            gbest = pbest[g_idx].copy()
            gbest_cost = float(pbest_cost[g_idx])
        history.append(gbest_cost)
        if stall >= params.stall_iterations:
            break

    if not np.isfinite(gbest_cost):
        raise NoFeasibleSeed("no particle reached a finite penalized cost")

    best_path = np.empty((j, 3))
    best_path[0] = first
    best_path[-1] = last
    best_path[1:-1] = gbest
    return best_path, history


def build_seed_population(
    bounds: tuple[np.ndarray, np.ndarray],
    obstacles: Sequence[CuboidObstacle],
    start: Point3,
    goal: Point3,
    rng: np.random.Generator,
    rrt_params: Optional[RrtParams] = None,
    swarm: Optional[SwarmParams] = None,
    count: int = DEFAULT_WAYPOINT_COUNT,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
) -> np.ndarray:
    """RRT + Bi-RRT seed paths plus the straight-line connection, as a
    (P, count, 3) array.

    The straight path is included even when it collides; its penalty removes
    it from contention while guaranteeing the optimal obstacle-free line is
    never missed. A sampled plan fails when its planner cannot connect or its
    smoothed path needs more than `count` points; raises PlanningFailed only
    if every sampled plan fails.
    """
    rrt_params = rrt_params or RrtParams()
    swarm = swarm or SwarmParams()
    seeds = []
    failures = 0
    for planner, n in ((rrt_plan, swarm.n_rrt), (birrt_plan, swarm.n_birrt)):
        for _ in range(n):
            try:
                raw = planner(bounds, obstacles, start, goal, rrt_params, rng)
                seeds.append(smooth_and_resample(raw, obstacles, count, smooth_window))
            except PlanningFailed:
                failures += 1
    if failures == swarm.n_rrt + swarm.n_birrt and failures > 0:
        raise PlanningFailed(
            f"every RRT and Bi-RRT seed failed to connect or to fit {count} waypoints"
        )
    seeds.append(straight_points(start, goal, count))
    return np.array(seeds)
