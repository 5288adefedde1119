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
        if self.n_rrt < 0 or self.n_birrt < 0:
            raise ValueError(f"n_rrt and n_birrt must be >= 0, got {self.n_rrt} and {self.n_birrt}")
        if self.n_rrt + self.n_birrt < 1:
            raise ValueError("n_rrt + n_birrt must be >= 1: the swarm needs a sampled seed path")


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
        zero_len = lengths == 0.0
        sinp = d[2] / lengths
        np.maximum(sinp, -1.0, out=sinp)
        np.minimum(sinp, 1.0, out=sinp)
        pa = np.abs(np.degrees(np.arcsin(sinp)))
        per_segment = np.add(lengths > c.l_max, (pa > c.pa_max) | zero_len, dtype=np.intp)
        if self.planes is not None:
            per_segment += slab_test(paths[:, :, :-1], d, self.planes)

        hx, hy = d[0], d[1]
        hn = np.sqrt(h2)
        dot = hx[:, :-1] * hx[:, 1:] + hy[:, :-1] * hy[:, 1:]
        denom = hn[:, :-1] * hn[:, 1:]
        cosang = dot / denom
        np.maximum(cosang, -1.0, out=cosang)
        np.minimum(cosang, 1.0, out=cosang)
        ta = np.degrees(np.arccos(cosang))
        interior = paths[:, :, 1:-1]
        outside = np.logical_or.reduce((interior < self.bounds_lo) | (interior > self.bounds_hi), 0)
        per_turn = np.add((ta > c.ta_max) | (denom == 0.0), outside, dtype=np.intp)

        # C2: the total length limit.
        violations = np.add.reduce(per_segment, 1) + np.add.reduce(per_turn, 1)
        violations += total_len > c.L_max
        return cost, VIOLATION_PENALTY * violations


def _split_obstacles(obstacles: Iterable[CuboidObstacle]):
    static = [o for o in obstacles if o.kind is ObstacleKind.STATIC]
    sudden = [o for o in obstacles if o.kind is ObstacleKind.SUDDEN]
    return static, sudden


def _axis_major(path: Waypath) -> np.ndarray:
    """One path as a (3, 1, J) batch."""
    return path.waypoints.T[:, None, :]


def trajectory_cost(
    path: Waypath,
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
    path: Waypath,
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
    cost, penalty = _Scorer(*_split_obstacles(obstacles), cp, constraints)(_axis_major(path))
    return float(cost[0]) + float(penalty[0])


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

    score = _Scorer(*_split_obstacles(obstacles), cp, constraints)
    sub = seeds[0].sub_airspace

    # The kernel's axis-major (3, P, J) paths: the fixed endpoint columns are
    # written once, the interior columns from x on every evaluation.
    x = np.stack([s.waypoints[1:-1] for s in seeds])  # (P, J-2, 3)
    paths = np.empty((3, len(seeds), j))
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
    never missed. A sampled plan fails when its planner cannot connect or its
    smoothed path needs more than `count` points; raises PlanningFailed only
    if every sampled plan fails.
    """
    rrt_params = rrt_params or RrtParams()
    swarm = swarm or SwarmParams()
    seeds: list[Waypath] = []
    failures = 0
    for planner, n in ((rrt_plan, swarm.n_rrt), (birrt_plan, swarm.n_birrt)):
        for _ in range(n):
            try:
                raw = planner(bounds, obstacles, start, goal, rrt_params, rng)
                seeds.append(
                    smooth_and_resample(raw, obstacles, count, smooth_window, sub_airspace)
                )
            except PlanningFailed:
                failures += 1
    if failures == swarm.n_rrt + swarm.n_birrt and failures > 0:
        raise PlanningFailed(
            f"every RRT and Bi-RRT seed failed to connect or to fit {count} waypoints"
        )
    seeds.append(straight_waypath(start, goal, count, sub_airspace))
    return seeds
