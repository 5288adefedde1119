"""Particle-swarm refinement of seed trajectories inside one sub-airspace.

A population of RRT, Bi-RRT, and straight-line seed paths is optimized under
a cost that trades obstacle clearance against trajectory length, subject to
segment-length, turn/pitch-angle, and cell-bound constraints handled by an
additive large penalty. Endpoints are fixed boundary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Point3, obstacle_arrays, points_to_cuboids_distance, segments_intersect_cuboids
from .sampling import (
    DEFAULT_SMOOTH_WINDOW,
    DEFAULT_WAYPOINT_COUNT,
    PlanningFailed,
    RrtParams,
    Waypath,
    birrt_plan,
    rrt_plan,
    smooth_and_resample,
    straight_waypath,
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
        if self.l_max <= 0 or self.L_max <= 0 or self.ta_max <= 0 or self.pa_max <= 0:
            raise ValueError("constraint limits must be positive")
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
    n_rrt: int = 15
    n_birrt: int = 15

    def __post_init__(self):
        # Velocities are clamped to [-v_max, v_max].
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")


def _segments(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment vectors (P, J-1, 3), their lengths (P, J-1) and the path
    lengths (P,) of a (P, J, 3) batch."""
    diffs = paths[:, 1:] - paths[:, :-1]
    lengths = np.linalg.norm(diffs, axis=2)
    return diffs, lengths, lengths.sum(axis=1)


def _batch_cost(
    paths: np.ndarray,
    total_len: np.ndarray,
    static_lo: np.ndarray,
    static_hi: np.ndarray,
    sudden_lo: np.ndarray,
    sudden_hi: np.ndarray,
    cp: CostParams,
) -> np.ndarray:
    """Clearance-plus-length cost for a (P, J, 3) batch of paths."""
    cost = cp.k4 * total_len
    for lo, hi, k in ((static_lo, static_hi, cp.k5), (sudden_lo, sudden_hi, cp.k6)):
        if len(lo) == 0 or k == 0:
            # No obstacles of this kind: the matching weight is forced to 0.
            continue
        dist_sum = points_to_cuboids_distance(paths, lo, hi).sum(axis=(1, 2))
        with np.errstate(divide="ignore"):
            term = cp.k3 * k / dist_sum
        term = np.where(dist_sum == 0.0, np.inf, term)
        cost = cost + term
    return cost


def _batch_penalty(
    paths: np.ndarray,
    diffs: np.ndarray,
    lengths: np.ndarray,
    total_len: np.ndarray,
    constraints: ConstraintParams,
    all_lo: np.ndarray,
    all_hi: np.ndarray,
) -> np.ndarray:
    """Constraint-violation and collision counts scaled by the penalty weight."""
    n, j, _ = paths.shape

    # C1: per-segment length limit; C2: total length limit. Counts are
    # integers, so their sum does not depend on the order of the terms.
    violations = (lengths > constraints.l_max).sum(axis=1)
    violations += total_len > constraints.L_max

    # C3: turning angle between consecutive horizontal headings. Zero-norm
    # horizontal projections (purely vertical segments) count as violations.
    # A two-term sum rounds once, so these equal numpy's norm and sum.
    hx = diffs[:, :, 0]
    hy = diffs[:, :, 1]
    hn = np.sqrt(hx * hx + hy * hy)
    dot = hx[:, :-1] * hx[:, 1:] + hy[:, :-1] * hy[:, 1:]
    denom = hn[:, :-1] * hn[:, 1:]
    degenerate = denom == 0.0
    any_degenerate = degenerate.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        cosang = np.minimum(np.maximum(dot / denom, -1.0), 1.0)
    if any_degenerate:
        cosang[degenerate] = 0.0
    ta = np.degrees(np.arccos(cosang))
    if any_degenerate:
        ta[degenerate] = np.inf
    violations += (ta > constraints.ta_max).sum(axis=1)

    # C4: pitch angle of each segment; zero-length segments are degenerate.
    zero_len = lengths == 0.0
    any_zero = zero_len.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        sinp = np.minimum(np.maximum(diffs[:, :, 2] / lengths, -1.0), 1.0)
    if any_zero:
        sinp[zero_len] = 0.0
    pa = np.abs(np.degrees(np.arcsin(sinp)))
    if any_zero:
        pa[zero_len] = np.inf
    violations += (pa > constraints.pa_max).sum(axis=1)

    # C5-C7: interior waypoints must stay inside the cell box (endpoints are
    # fixed boundary conditions on the cell faces).
    interior = paths[:, 1:-1, :]
    outside = (interior < constraints.bounds_lo) | (interior > constraints.bounds_hi)
    violations += (outside[:, :, 0] | outside[:, :, 1] | outside[:, :, 2]).sum(axis=1)

    # Colliding segments.
    if len(all_lo):
        flat_a = paths[:, :-1, :].reshape(-1, 3)
        flat_b = paths[:, 1:, :].reshape(-1, 3)
        hits = segments_intersect_cuboids(flat_a, flat_b, all_lo, all_hi, 0.0)
        violations += hits.reshape(n, j - 1).sum(axis=1)

    return VIOLATION_PENALTY * violations


def _split_obstacles(obstacles: Iterable[CuboidObstacle]):
    static = [o for o in obstacles if o.kind is ObstacleKind.STATIC]
    sudden = [o for o in obstacles if o.kind is ObstacleKind.SUDDEN]
    return static, sudden


def trajectory_cost(
    path: Waypath,
    static_obstacles: Sequence[CuboidObstacle],
    sudden_obstacles: Sequence[CuboidObstacle],
    cp: CostParams,
) -> float:
    """Clearance-plus-length cost of one trajectory.

    The clearance terms divide by the summed distance from every waypoint to
    every obstacle of the kind; a sum of exactly 0 (waypoint touching an
    obstacle) yields +inf.
    """
    s_lo, s_hi = obstacle_arrays(static_obstacles)
    u_lo, u_hi = obstacle_arrays(sudden_obstacles)
    paths = path.waypoints[None, :, :]
    return float(_batch_cost(paths, _segments(paths)[2], s_lo, s_hi, u_lo, u_hi, cp)[0])


def feasibility_penalty(
    path: Waypath,
    constraints: ConstraintParams,
    obstacles: Sequence[CuboidObstacle],
) -> float:
    """0 when all constraints hold and no segment collides; otherwise
    VIOLATION_PENALTY per violated constraint or colliding segment."""
    lo, hi = obstacle_arrays(obstacles)
    paths = path.waypoints[None, :, :]
    return float(_batch_penalty(paths, *_segments(paths), constraints, lo, hi)[0])


def penalized_cost(
    path: Waypath,
    obstacles: Sequence[CuboidObstacle],
    cp: CostParams,
    constraints: ConstraintParams,
) -> float:
    static, sudden = _split_obstacles(obstacles)
    return trajectory_cost(path, static, sudden, cp) + feasibility_penalty(
        path, constraints, obstacles
    )


def optimize(
    seeds: Sequence[Waypath],
    obstacles: Sequence[CuboidObstacle],
    cp: CostParams,
    constraints: ConstraintParams,
    params: SwarmParams,
    rng: np.random.Generator,
) -> tuple[Waypath, list[float]]:
    """Global-best PSO over the interior waypoints of the seed population.

    Returns the best-ever trajectory and the per-iteration global-best cost
    history (monotone non-increasing). Raises NoFeasibleSeed if every particle
    is still infinitely penalized when the budget runs out.
    """
    if not seeds:
        raise ValueError("seed population is empty")
    j = seeds[0].count
    first = seeds[0].waypoints[0].copy()
    last = seeds[0].waypoints[-1].copy()
    for s in seeds:
        if s.count != j or not np.array_equal(s.waypoints[0], first) or not np.array_equal(
            s.waypoints[-1], last
        ):
            raise ValueError("all seeds must share endpoints and waypoint count")

    static, sudden = _split_obstacles(obstacles)
    s_lo, s_hi = obstacle_arrays(static)
    u_lo, u_hi = obstacle_arrays(sudden)
    all_lo, all_hi = obstacle_arrays(obstacles)
    sub = seeds[0].sub_airspace

    def evaluate(x: np.ndarray) -> np.ndarray:
        n = len(x)
        paths = np.empty((n, j, 3))
        paths[:, 0, :] = first
        paths[:, -1, :] = last
        paths[:, 1:-1, :] = x
        diffs, lengths, total_len = _segments(paths)
        return _batch_cost(paths, total_len, s_lo, s_hi, u_lo, u_hi, cp) + _batch_penalty(
            paths, diffs, lengths, total_len, constraints, all_lo, all_hi
        )

    x = np.stack([s.waypoints[1:-1] for s in seeds])  # (P, J-2, 3)
    v = np.zeros_like(x)
    cost = evaluate(x)
    pbest = x.copy()
    pbest_cost = cost.copy()
    g_idx = int(np.argmin(pbest_cost))
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
        x = x + v
        np.maximum(x, constraints.bounds_lo, out=x)
        np.minimum(x, constraints.bounds_hi, out=x)
        cost = evaluate(x)

        improved = cost < pbest_cost
        pbest[improved] = x[improved]
        pbest_cost[improved] = cost[improved]
        g_idx = int(np.argmin(pbest_cost))
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
    return Waypath(waypoints=best_path, sub_airspace=sub), history


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
    sub_airspace: int = 0,
) -> list[Waypath]:
    """RRT + Bi-RRT seed paths plus the straight-line connection.

    The straight path is included even when it collides; its penalty removes
    it from contention while guaranteeing the optimal obstacle-free line is
    never missed. Raises PlanningFailed only if every sampled plan fails.
    """
    rrt_params = rrt_params or RrtParams()
    swarm = swarm or SwarmParams()
    seeds: list[Waypath] = []
    failures = 0
    for planner, n in ((rrt_plan, swarm.n_rrt), (birrt_plan, swarm.n_birrt)):
        for _ in range(n):
            try:
                raw = planner(bounds, obstacles, start, goal, rrt_params, rng)
            except PlanningFailed:
                failures += 1
                continue
            seeds.append(
                smooth_and_resample(raw, obstacles, count, smooth_window, sub_airspace)
            )
    if failures == swarm.n_rrt + swarm.n_birrt and failures > 0:
        raise PlanningFailed("every RRT and Bi-RRT attempt failed to connect")
    seeds.append(straight_waypath(start, goal, count, sub_airspace))
    return seeds
