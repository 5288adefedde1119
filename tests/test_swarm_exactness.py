"""Exactness of the swarm's axis-major evaluation kernel.

`pso._Scorer` scores every particle of a (3, P, J) batch in one pass. Its
costs and penalties are compared bit for bit with the frozen particle-major
`_batch_cost`/`_batch_penalty` of `reference_kernels.py`, whose clearance and
slab tests are the frozen geometry kernels, and `optimize` is compared with
the frozen `optimize`: waypoints, history and the whole generator state, in
the default cell and in a cell box away from the origin, under drawn limits.

The batches are built to hit the degenerate rules: vertical segments (turn
violations), repeated waypoints (zero-length segments, pitch violations),
segment starts on a box plane (the slab test's 0/0 rule), waypoints inside
a box (a zero clearance sum costs +inf) and interior waypoints outside the
cell.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from conftest import path_length
from skygrid import pso
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3, obstacle_arrays
from skygrid.pso import ConstraintParams, CostParams, SwarmParams, build_seed_population
from skygrid.sampling import PlanningFailed, Waypath, straight_points
from skygrid.scenario import single_cell_scenario

# Few distinct values, so that boxes share planes and waypoints land on them.
PLANES = [0.0, 20.0, 40.0, 50.0, 60.0, 100.0, 150.0]
CELL = ConstraintParams()


@st.composite
def obstacle_sets(draw):
    """Up to 8 boxes: static only, sudden only or both kinds."""
    kinds = draw(st.sampled_from(["static", "sudden", "both"]))
    out = []
    for i in range(draw(st.integers(0, 8))):
        kind = {"static": ObstacleKind.STATIC, "sudden": ObstacleKind.SUDDEN}.get(kinds)
        kind = kind or draw(st.sampled_from(list(ObstacleKind)))
        x, y = draw(st.sampled_from(PLANES)), draw(st.sampled_from(PLANES))
        z = 0.0 if kind is ObstacleKind.STATIC else draw(st.sampled_from([0.0, 10.0, 20.0]))
        lx, ly, lz = (draw(st.sampled_from([10.0, 20.0, 40.0, 12.5])) for _ in range(3))
        out.append(CuboidObstacle(Point3(x, y, z), lx, ly, lz, kind=kind, id=str(i)))
    return out


@st.composite
def batches(draw, max_p=40):
    """(paths (P, J, 3), obstacles): random waypoints, some out of the cell,
    then snapped onto box planes, into box centres, above their predecessor
    or onto it."""
    obstacles = draw(obstacle_sets())
    p = draw(st.integers(1, max_p))
    j = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = rng.uniform([-20.0, -20.0, -5.0], [220.0, 220.0, 55.0], (p, j, 3))
    faces = sorted({v for ob in obstacles for v in ob.box} | {0.0, -0.0, 200.0, 50.0})
    share = st.sampled_from([0.0, 0.1, 0.5])
    snap = rng.random(paths.shape) < draw(share)
    paths[snap] = rng.choice(faces, int(snap.sum()))
    if obstacles:
        centres = np.array([[(b[i] + b[i + 3]) / 2 for i in range(3)] for b in (o.box for o in obstacles)])
        inside = rng.random((p, j)) < draw(share)
        paths[inside] = centres[rng.integers(0, len(centres), int(inside.sum()))]
    if j > 1:
        vertical = rng.random((p, j - 1)) < draw(share)
        paths[:, 1:, :2][vertical] = paths[:, :-1, :2][vertical]
        repeat = rng.random((p, j - 1)) < draw(share)
        for i in range(1, j):  # in order, so runs of repeats are whole
            paths[repeat[:, i - 1], i] = paths[repeat[:, i - 1], i - 1]
    return paths, obstacles


weights = st.sampled_from([0.0, 0.2, 0.8, 100.0])
cost_params = st.builds(CostParams, k3=weights, k4=weights, k5=weights, k6=weights)
constraint_params = st.builds(
    ConstraintParams,
    l_max=st.sampled_from([5.0, 40.0, 400.0]),
    L_max=st.sampled_from([50.0, 400.0, 4000.0]),
    ta_max=st.sampled_from([10.0, 60.0, 179.0]),
    pa_max=st.sampled_from([5.0, 45.0, 89.0]),
)


def _frozen(paths, obstacles, cp, constraints):
    static, sudden = ref._split_obstacles(obstacles)
    diffs, lengths, total_len = ref._segments(paths)
    with np.errstate(all="ignore"):
        cost = ref._batch_cost(paths, total_len, *obstacle_arrays(static), *obstacle_arrays(sudden), cp)
        penalty = ref._batch_penalty(paths, diffs, lengths, total_len, constraints, *obstacle_arrays(obstacles))
    return cost, penalty


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(batch=batches(), cp=cost_params, constraints=constraint_params)
def test_kernel_matches_frozen_batch_scoring(batch, cp, constraints):
    paths, obstacles = batch
    want_cost, want_penalty = _frozen(paths, obstacles, cp, constraints)
    static, sudden = pso._split_obstacles(obstacles)
    axis_major = np.ascontiguousarray(paths.transpose(2, 0, 1))
    cost, penalty = pso._Scorer(static, sudden, cp, constraints)(axis_major)
    assert _same_bits(cost, want_cost)
    assert _same_bits(penalty, want_penalty)


@settings(max_examples=300, deadline=None)
@given(batch=batches(max_p=3), cp=cost_params, constraints=constraint_params)
def test_single_path_entry_points_match_frozen_scoring(batch, cp, constraints):
    """trajectory_cost, feasibility_penalty and penalized_cost: the kernel at P = 1."""
    paths, obstacles = batch
    static, sudden = pso._split_obstacles(obstacles)
    for path in paths:
        want_cost, want_penalty = _frozen(path[None], obstacles, cp, constraints)
        cost = pso.trajectory_cost(path, static, sudden, cp)
        penalty = pso.feasibility_penalty(path, constraints, obstacles)
        total = pso.penalized_cost(Waypath(path), obstacles, cp, constraints)
        assert _same_bits(cost, float(want_cost[0]))
        assert _same_bits(penalty, float(want_penalty[0]))
        assert _same_bits(total, float(want_cost[0]) + float(want_penalty[0]))


def test_trajectory_cost_keeps_the_callers_kinds():
    """A box passed in the static list is weighted by k5 whatever its kind."""
    ob = CuboidObstacle(Point3(50.0, 50.0, 10.0), 10.0, 10.0, 10.0, kind=ObstacleKind.SUDDEN)
    path = np.array(straight_points(Point3(0.0, 0.0, 5.0), Point3(200.0, 0.0, 5.0), 6))
    cp = CostParams(k5=100.0, k6=0.0)
    want = ref._batch_cost(
        path[None], ref._segments(path[None])[2], *obstacle_arrays([ob]), *obstacle_arrays([]), cp
    )
    assert _same_bits(pso.trajectory_cost(path, [ob], [], cp), float(want[0]))
    assert pso.trajectory_cost(path, [], [ob], cp) == path_length(path) * cp.k4


# -- optimize against the frozen swarm ----------------------------------------

BOUNDS = ((0.0, 0.0, 0.0), (200.0, 200.0, 50.0))
CELL_OBS = list(single_cell_scenario().obstacles)
START = Point3(10.0, 90.0, 10.0)
GOAL = Point3(190.0, 130.0, 10.0)
CUBE = CuboidObstacle(Point3(95.0, 95.0, 5.0), 10.0, 10.0, 10.0, kind=ObstacleKind.SUDDEN)
SMALL_SWARM = SwarmParams(n_rrt=3, n_birrt=3, max_iterations=30)


def _vertical_seeds(count: int) -> np.ndarray:
    """Straight climbs: every segment is vertical, a turn violation each."""
    start, goal = Point3(60.0, 60.0, 0.0), Point3(60.0, 60.0, 50.0)
    climb = np.array(straight_points(start, goal, count))
    wobble = climb.copy()
    wobble[1:-1, 0] += 3.0
    return np.array([climb, wobble, climb])


class _FrozenSeed(Waypath):
    """A particle as the frozen `optimize` reads it: a Waypath with the
    `count` that Waypath no longer has."""

    @property
    def count(self) -> int:
        return len(self.waypoints)


def _frozen_optimize(seeds, *args):
    """The frozen `optimize` on a (P, J, 3) population."""
    best, history = ref.optimize([_FrozenSeed(w) for w in seeds], *args)
    return best.waypoints, history


def _run_both(seeds, obstacles, cp, constraints, swarm, seed):
    out = []
    rngs = []
    for fn in (pso.optimize, _frozen_optimize):
        rng = np.random.default_rng(seed)
        rng.integers(0, 9, dtype=np.uint32)  # a buffered uint32 rides along
        try:
            best, history = fn(seeds, obstacles, cp, constraints, swarm, rng)
            out.append((best.tobytes(), np.array(history).tobytes()))
        except PlanningFailed as exc:
            out.append(str(exc))
        rngs.append(rng)
    assert out[0] == out[1]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return out[0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cp", [CostParams(), CostParams(k5=0.0), CostParams(k6=0.0)])
def test_optimize_matches_frozen_swarm(seed, cp):
    obstacles = CELL_OBS + [CUBE]
    seeds = build_seed_population(BOUNDS, obstacles, START, GOAL, np.random.default_rng(seed), swarm=SMALL_SWARM)
    _run_both(seeds, obstacles, cp, CELL, SMALL_SWARM, seed)


@pytest.mark.parametrize("count", [1, 2, 3, 6])
@pytest.mark.parametrize("seed", range(3))
def test_optimize_matches_frozen_swarm_on_vertical_seeds(count, seed):
    """Vertical seed paths: every segment breaks the pitch limit and every
    turn has no horizontal heading."""
    seeds = _vertical_seeds(count) if count > 1 else np.array([[[60.0, 60.0, 0.0]]] * 2)
    _run_both(seeds, [CUBE], CostParams(), CELL, SMALL_SWARM, seed)


def test_optimize_matches_frozen_swarm_when_no_particle_is_finite():
    """A two-point climb inside the cube has no waypoint to move and a
    summed clearance of 0: both raise PlanningFailed."""
    climb = straight_points(Point3(100.0, 100.0, 6.0), Point3(100.0, 100.0, 14.0), 2)
    assert _run_both(np.array([climb, climb]), [CUBE], CostParams(), CELL, SMALL_SWARM, 0) == (
        "no particle reached a finite penalized cost"
    )


# A cell box away from the origin: the loop clamps to it without checking it.
OFF_ORIGIN = {"bounds_lo": (200.0, 0.0, 50.0), "bounds_hi": (400.0, 200.0, 100.0)}
SHIFT = np.array([200.0, 0.0, 50.0])


def _shifted(ob: CuboidObstacle) -> CuboidObstacle:
    """The box moved with the cell; a static one stays grounded and grows by
    the cell's height above the ground instead."""
    x, y, z = ob.anchor
    if ob.kind is ObstacleKind.STATIC:
        return CuboidObstacle(Point3(x + 200.0, y, 0.0), ob.len_x, ob.len_y, ob.len_z + 50.0, ob.kind, ob.id)
    return CuboidObstacle(Point3(x + 200.0, y, z + 50.0), ob.len_x, ob.len_y, ob.len_z, ob.kind, ob.id)


@pytest.mark.parametrize("seed", range(4))
def test_optimize_matches_frozen_swarm_off_the_origin(seed):
    cell = ConstraintParams(**OFF_ORIGIN)
    obstacles = [_shifted(ob) for ob in CELL_OBS + [CUBE]]
    start, goal = (Point3(*(np.array(p) + SHIFT)) for p in (START, GOAL))
    rng = np.random.default_rng(seed)
    seeds = build_seed_population(cell.bounds, obstacles, start, goal, rng, swarm=SMALL_SWARM)
    _run_both(seeds, obstacles, CostParams(), cell, SMALL_SWARM, seed)


@settings(max_examples=60, deadline=None)
@given(
    batch=batches(max_p=12),
    cp=cost_params,
    limits=constraint_params,
    off_origin=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimize_matches_frozen_swarm_on_random_seeds(batch, cp, limits, off_origin, seed):
    """Random particles that share their endpoints, inside and outside the
    cell, under drawn limits, in the default cell or moved with it."""
    paths, obstacles = batch
    if paths.shape[1] == 0:
        return
    paths[:, 0] = paths[0, 0]
    paths[:, -1] = paths[0, -1]
    if off_origin:
        paths += SHIFT
        obstacles = [_shifted(ob) for ob in obstacles]
        limits = dataclasses.replace(limits, **OFF_ORIGIN)
    swarm = SwarmParams(max_iterations=15, stall_iterations=5)
    with np.errstate(all="ignore"):
        _run_both(paths, obstacles, cp, limits, swarm, seed)
