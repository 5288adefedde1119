"""Particle-swarm refinement of seed trajectories inside one sub-airspace.

A population of RRT, Bi-RRT, and straight-line seed paths is optimized under
a cost that trades obstacle clearance against trajectory length, subject to
segment-length, turn/pitch-angle, and cell-bound constraints handled by an
additive large penalty. Endpoints are fixed boundary conditions.

Every batch is scored by one kernel, `_Scorer`, on axis-major (3, P, J)
paths. The swarm keeps its state in that layout, so its positions are the
interior columns of the scored buffer; the clearance gaps run box-major and
the violation counts go into one integer buffer. None of this changes a bit
of the result: each value is the same IEEE operation on the same operands,
and every float reduction runs over the same memory order as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    CuboidObstacle,
    ObstacleKind,
    Point3,
    Xyz,
    box_distances,
    obstacle_arrays,
    slab_planes,
    slab_test,
)
from .sampling import (
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


def _triple(name: str, value: Sequence[float]) -> Xyz:
    try:
        x, y, z = value
        return float(x), float(y), float(z)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be three numbers, got {value!r}") from exc


@dataclass(frozen=True)
class ConstraintParams:
    """Kinematic and containment limits for one sub-airspace trajectory.

    The cell box is held as two float triples, the form the tree planners
    sample in; `bounds` is the (lo, hi) pair they take.
    """

    l_max: float = 40.0
    L_max: float = 400.0
    ta_max: float = 60.0
    pa_max: float = 45.0
    bounds_lo: Xyz = field(default_factory=lambda: (0.0, 0.0, 0.0))
    bounds_hi: Xyz = field(default_factory=lambda: (200.0, 200.0, 50.0))

    def __post_init__(self):
        lo, hi = _triple("bounds_lo", self.bounds_lo), _triple("bounds_hi", self.bounds_hi)
        object.__setattr__(self, "bounds_lo", lo)
        object.__setattr__(self, "bounds_hi", hi)
        if not all(0 < v < math.inf for v in (self.l_max, self.L_max, self.ta_max, self.pa_max)):
            raise ValueError("constraint limits must be finite and positive")
        if not all(b > a for a, b in zip(lo, hi)):
            raise ValueError("bounds_hi must exceed bounds_lo on every axis")

    @property
    def bounds(self) -> tuple[Xyz, Xyz]:
        return self.bounds_lo, self.bounds_hi


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
        # Inertia-weight PSO (Shi & Eberhart 1998) converges only for |inertia| < 1
        # (Clerc & Kennedy 2002); a negative c1 or c2 pushes particles from their bests.
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError(f"c1 and c2 must be >= 0, got {self.c1} and {self.c2}")
        if not 0 <= self.inertia < 1:
            raise ValueError(f"inertia must be in [0, 1), got {self.inertia}")
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
        # (lo, hi, k3·k) of each obstacle kind whose clearance term is on,
        # the corners box-major (3, K, 1, 1); with no obstacles of a kind its
        # weight is forced to 0.
        self.clearance = []
        if cp is not None:
            for kind, k in ((static, cp.k5), (sudden, cp.k6)):
                if kind and k != 0:
                    lo, hi = (np.ascontiguousarray(c.T).reshape(3, -1, 1, 1) for c in obstacle_arrays(kind))
                    self.clearance.append((lo, hi, cp.k3 * k))
        self.constraints = constraints
        if constraints is not None:
            # The cell box as (3, 1, 1) arrays, against axis-major waypoints.
            self.lo = np.array(constraints.bounds_lo).reshape(3, 1, 1)
            self.hi = np.array(constraints.bounds_hi).reshape(3, 1, 1)
            self.sin_pa, self.cos_ta = _angle_limits(constraints)
            lo, hi = obstacle_arrays([*static, *sudden])
            self.planes = slab_planes(lo, hi, 2) if len(lo) else None

    def __call__(self, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost and penalty of an axis-major (3, P, J) batch of paths."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._score(paths)

    def _score(self, paths: np.ndarray, clamped: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """`__call__` without the errstate. `clamped` says that every interior
        waypoint was just clamped to the cell box, so the box rule is skipped:
        a clamped coordinate is inside, or NaN, which compares false."""
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
        # One integer count per segment, per turn and per path, summed once;
        # integer sums do not depend on the order of the terms. A sum of two
        # bool arrays names dtype=np.intp: bool `add` is a logical or.
        n_seg, n_turn = d.shape[2], max(d.shape[2] - 1, 0)
        counts = np.empty((len(total_len), n_seg + n_turn + 1), np.intp)
        per_segment, per_turn = counts[:, :n_seg], counts[:, n_seg:-1]
        # Per segment: C1, the segment length limit; C4, the pitch angle,
        # where a zero-length segment is a violation; a collision.
        steep = np.abs(d[2]) > self.sin_pa * lengths
        np.add(lengths > c.l_max, steep | (lengths == 0.0), out=per_segment, dtype=np.intp)
        if self.planes is not None:
            per_segment += slab_test(paths[:, :, :-1], d, self.planes)

        # Per turn: C3, the angle between consecutive horizontal headings,
        # where a purely vertical segment is a violation; C5-C7, an interior
        # waypoint outside the cell box (endpoints are fixed boundary
        # conditions on the cell faces).
        hx, hy = d[0], d[1]
        hn = np.sqrt(h2)
        dot = hx[:, :-1] * hx[:, 1:] + hy[:, :-1] * hy[:, 1:]
        denom = hn[:, :-1] * hn[:, 1:]
        sharp = dot < self.cos_ta * denom
        sharp |= denom == 0.0
        if clamped:
            per_turn[...] = sharp
        else:
            interior = paths[:, :, 1:-1]
            outside = np.logical_or.reduce((interior < self.lo) | (interior > self.hi), 0)
            np.add(sharp, outside, out=per_turn, dtype=np.intp)

        # Per path: C2, the total length limit.
        counts[:, -1] = total_len > c.L_max
        return cost, VIOLATION_PENALTY * np.add.reduce(counts, 1)


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
    (lx, ly, lz), (hx, hy, hz) = c.bounds
    for x, y, z in points[1:-1]:  # C5-C7
        if x < lx or x > hx or y < ly or y > hy or z < lz or z > hz:
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
    cost history (monotone non-increasing). Raises PlanningFailed if every
    particle is still infinitely penalized when the budget runs out.

    Each iteration draws (2, P, J-2, 3) uniforms, the r1 and r2 of the
    inertia-weight update (Shi & Eberhart 1998), moves and clamps the
    particles to the cell box, and scores them without the box rule, which a
    clamped position cannot break.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 3 or seeds.shape[2] != 3 or 0 in seeds.shape:
        raise ValueError(f"seeds must be a non-empty (P, J, 3) array, got shape {seeds.shape}")
    p, j, _ = seeds.shape
    first, last = seeds[0, 0], seeds[0, -1]
    if not ((seeds[:, 0] == first).all() and (seeds[:, -1] == last).all()):
        raise ValueError("all seeds must share their endpoints")

    score = _Scorer(*_split_obstacles(obstacles), cp, constraints)

    # The swarm's state lives in the kernel's axis-major layout: x, the
    # positions, is the interior view of the scored (3, P, J) buffer, whose
    # endpoint columns never change. best[0] holds each particle's best
    # position and best[1] the global best repeated for every particle, so
    # both attractions take one subtraction.
    paths = np.empty((3, p, j))
    paths[:, :, 0] = first[:, None]
    paths[:, :, -1] = last[:, None]
    x = paths[:, :, 1:-1]  # (3, P, J-2)
    x[...] = seeds[:, 1:-1].transpose(2, 0, 1)
    best = np.empty((2,) + x.shape)
    pbest = best[0]
    # c1 and c2 against the two attractions, and buffers for the velocity terms.
    c = np.array([params.c1, params.c2]).reshape(2, 1, 1, 1)
    cr = np.empty_like(best)
    pull = np.empty_like(best)
    v = np.zeros_like(pbest)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The seeds may leave the cell box, so their evaluation applies it.
        cost, penalty = score._score(paths)
        pbest_cost = cost + penalty
        pbest[...] = x
        g_idx = int(pbest_cost.argmin())
        best[1] = pbest[:, g_idx, None]
        gbest_cost = float(pbest_cost[g_idx])
        history = [gbest_cost]
        stall = 0

        for _ in range(params.max_iterations):
            # The draws are particle-major (P, J-2, 3) per attraction.
            r = rng.random((2, p, x.shape[2], 3)).transpose(0, 3, 1, 2)
            np.multiply(c, r, out=cr)
            np.subtract(best, x, out=pull)
            pull *= cr
            # (inertia·v + c1·r1·(pbest − x)) + c2·r2·(gbest − x)
            v *= params.inertia
            v += pull[0]
            v += pull[1]
            np.maximum(v, -params.v_max, out=v)
            np.minimum(v, params.v_max, out=v)
            x += v
            np.maximum(x, score.lo, out=x)
            np.minimum(x, score.hi, out=x)
            cost, penalty = score._score(paths, clamped=True)
            cost += penalty

            improved = cost < pbest_cost
            np.copyto(pbest, x, where=improved[:, None])
            np.copyto(pbest_cost, cost, where=improved)
            g_idx = int(pbest_cost.argmin())
            if pbest_cost[g_idx] < gbest_cost - params.stall_tolerance:
                stall = 0
            else:
                stall += 1
            if pbest_cost[g_idx] < gbest_cost:
                best[1] = pbest[:, g_idx, None]
                gbest_cost = float(pbest_cost[g_idx])
            history.append(gbest_cost)
            if stall >= params.stall_iterations:
                break

    if not np.isfinite(gbest_cost):
        raise PlanningFailed("no particle reached a finite penalized cost")

    best_path = np.empty((j, 3))
    best_path[0] = first
    best_path[-1] = last
    best_path[1:-1] = best[1, :, 0].T
    return best_path, history


def build_seed_population(
    bounds: tuple[Xyz, Xyz],
    obstacles: Sequence[CuboidObstacle],
    start: Point3,
    goal: Point3,
    rng: np.random.Generator,
    rrt_params: Optional[RrtParams] = None,
    swarm: Optional[SwarmParams] = None,
    count: int = DEFAULT_WAYPOINT_COUNT,
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
                seeds.append(smooth_and_resample(raw, obstacles, count))
            except PlanningFailed:
                failures += 1
    if failures == swarm.n_rrt + swarm.n_birrt and failures > 0:
        raise PlanningFailed(
            f"every RRT and Bi-RRT seed failed to connect or to fit {count} waypoints"
        )
    seeds.append(straight_points(start, goal, count))
    return np.array(seeds)
