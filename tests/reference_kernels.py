"""Frozen copies of kernels before their overhead rewrites.

The collision kernels in `skygrid.sampling` and `skygrid.geometry`, the tree
planners `rrt_plan`/`birrt_plan` (per-draw RNG calls, `einsum` nearest-node
ranking), the clearance kernel `points_to_cuboids_distance`, the coarse
search `skygrid.coarse.plan_coarse`, `AirspaceGrid.locate`/`neighbors`, the
exit faces `Face`/`shared_face`/`attraction_region`/`select_exit_point`, the
resampling `resample_polyline`/`straight_waypath` (small-array numpy), the
simulation's tick `World.step`/`_advance`/`_record_tick` (each UAV's position
a (3,) array, each gap its own `dot`), the swarm's scoring `_segments`,
`_batch_cost`, `_batch_penalty` and `optimize` (per-call numpy over
particle-major (P, J, 3) paths), the result writer `write_table` (every
row through `csv.writer`) and the smoothing `shortcut`/`moving_average_smooth`/
`_smooth` (numpy rows and `mean(axis=0)`) were rewritten to give the same
results with less per-call overhead. `test_kernel_exactness.py`, `test_coarse_exactness.py`,
`test_bookkeeping_exactness.py`, `test_swarm_exactness.py` and
`test_writer_exactness.py` compare them with these copies, which must stay
as they are.
"""

import csv
import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from skygrid.geometry import ObstacleKind, obstacle_arrays
from skygrid.grid import NotAdjacent, OutOfAirspace
from skygrid.pso import NoFeasibleSeed
from skygrid.sampling import PlanningFailed, Waypath, flatten_obstacles, point_free


def segment_free(a, b, boxes) -> bool:
    ax, ay, az = a[0], a[1], a[2]
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    for x0, y0, z0, x1, y1, z1 in boxes:
        t_enter = 0.0
        t_exit = 1.0
        hit = True
        for start, delta, lo, hi in ((ax, dx, x0, x1), (ay, dy, y0, y1), (az, dz, z0, z1)):
            if delta == 0.0:
                if start < lo or start > hi:
                    hit = False
                    break
            else:
                t0 = (lo - start) / delta
                t1 = (hi - start) / delta
                if t0 > t1:
                    t0, t1 = t1, t0
                if t0 > t_enter:
                    t_enter = t0
                if t1 < t_exit:
                    t_exit = t1
                if t_enter > t_exit:
                    hit = False
                    break
        if hit:
            return False
    return True


def segments_intersect_cuboids(starts, ends, lo, hi, margin=0.0):
    if len(lo) == 0:
        return np.zeros(len(starts), dtype=bool)
    lo_m = lo - margin
    hi_m = hi + margin
    a = starts[:, None, :]
    d = ends[:, None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo_m[None, :, :] - a) / d
        t1 = (hi_m[None, :, :] - a) / d
    t_near = np.minimum(t0, t1)
    t_far = np.maximum(t0, t1)
    zero = d == 0
    inside = (a >= lo_m[None, :, :]) & (a <= hi_m[None, :, :])
    t_near = np.where(zero, np.where(inside, -np.inf, np.inf), t_near)
    t_far = np.where(zero, np.where(inside, np.inf, -np.inf), t_far)
    enter = np.max(t_near, axis=-1)
    exit_ = np.min(t_far, axis=-1)
    hit = (enter <= exit_) & (exit_ >= 0.0) & (enter <= 1.0)
    return hit.any(axis=1)


def locate(grid, p) -> int:
    idx = []
    size = grid.cell_size
    for i, coord in enumerate((p.x, p.y, p.z)):
        if coord < 0 or coord > grid.extent[i]:
            raise OutOfAirspace(f"coordinate {coord} outside [0, {grid.extent[i]}] on axis {i}")
        k = int(coord // size[i])
        idx.append(min(k, grid.counts[i] - 1))
    return grid.cell_id(*idx)


def neighbors(grid, cell: int) -> set:
    ix, iy, iz = grid.cell_coords(cell)
    out = set()
    for axis, delta in ((0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)):
        c = [ix, iy, iz]
        c[axis] += delta
        if 0 <= c[axis] < grid.counts[axis]:
            out.add(grid.cell_id(*c))
    return out


def node_cost(params, o_n: int, aec_n: int) -> float:
    if o_n < 0 or aec_n < 0:
        raise ValueError("counts must be non-negative")
    return params.k1 * o_n + params.k2 * aec_n


def plan_coarse(grid, params, occupancy, start, goal, obstacle_counts=None):
    """Returns (cells, total_cost)."""
    if obstacle_counts is None:
        obstacle_counts = grid.static_obstacle_counts()

    def cost_of(cell: int) -> float:
        aec = int(occupancy[cell - 1]) if len(occupancy) else 0
        return node_cost(params, int(obstacle_counts[cell - 1]), aec)

    start_cost = cost_of(start)
    if start == goal:
        return [start], start_cost

    heap = [(start_cost, 1, (start,))]
    settled = set()
    while heap:
        cost, length, path = heapq.heappop(heap)
        cell = path[-1]
        if cell in settled:
            continue
        settled.add(cell)
        if cell == goal:
            return list(path), cost
        for nb in sorted(neighbors(grid, cell)):
            if nb in settled or nb in path:
                continue
            heapq.heappush(heap, (cost + cost_of(nb), length + 1, path + (nb,)))
    raise RuntimeError("goal unreachable; 6-connected grid should be connected")


@dataclass(frozen=True)
class Face:
    """Axis-aligned rectangle shared by two face-adjacent cells.

    axis is the index (0=x, 1=y, 2=z) perpendicular to the plane; u/v are the
    remaining axes in ascending index order.
    """

    axis: int
    plane: float
    u_axis: int
    v_axis: int
    u_range: tuple
    v_range: tuple


def shared_face(grid, a: int, b: int) -> Face:
    ca = grid.cell_coords(a)
    cb = grid.cell_coords(b)
    diff = [cb[i] - ca[i] for i in range(3)]
    if sorted(abs(d) for d in diff) != [0, 0, 1]:
        raise NotAdjacent(f"cells {a} and {b} do not share a face")
    axis = next(i for i in range(3) if diff[i] != 0)
    size = grid.cell_size
    plane = (max(ca[axis], cb[axis])) * size[axis]
    u_axis, v_axis = [i for i in range(3) if i != axis]
    u_range = (ca[u_axis] * size[u_axis], (ca[u_axis] + 1) * size[u_axis])
    v_range = (ca[v_axis] * size[v_axis], (ca[v_axis] + 1) * size[v_axis])
    return Face(axis, plane, u_axis, v_axis, u_range, v_range)


def attraction_region(grid, window, face: Face) -> Face:
    if len(window) < 2:
        raise ValueError("window must contain at least the current and next cell")
    coords = [grid.cell_coords(c) for c in window]
    moves = [tuple(b[i] - a[i] for i in range(3)) for a, b in zip(coords, coords[1:])]

    def first_change(axis: int) -> int:
        for move in moves:
            if move[axis] != 0:
                return 1 if move[axis] > 0 else -1
        return 0

    def split(rng, sign: int):
        mid = (rng[0] + rng[1]) / 2.0
        if sign > 0:
            return (mid, rng[1])
        if sign < 0:
            return (rng[0], mid)
        return rng

    u_sign = first_change(face.u_axis)
    v_sign = first_change(face.v_axis)
    return Face(
        axis=face.axis,
        plane=face.plane,
        u_axis=face.u_axis,
        v_axis=face.v_axis,
        u_range=split(face.u_range, u_sign),
        v_range=split(face.v_range, v_sign),
    )


def select_exit_point(region: Face, rng):
    """Returns (x, y, z)."""

    def sample(lo: float, hi: float) -> float:
        inset = min(1.0, (hi - lo) / 2.0)  # EXIT_INSET
        a, b = lo + inset, hi - inset
        if a >= b:
            return (lo + hi) / 2.0
        return float(rng.uniform(a, b))

    coords = [0.0, 0.0, 0.0]
    coords[region.axis] = region.plane
    coords[region.u_axis] = sample(*region.u_range)
    coords[region.v_axis] = sample(*region.v_range)
    return tuple(coords)


def points_to_cuboids_distance(points, lo, hi):
    p = points[..., None, :]
    clamped = np.clip(p, lo, hi)
    return np.linalg.norm(p - clamped, axis=-1)


def einsum_nearest(nodes, target) -> int:
    """The tree planners' nearest node: first argmin of einsum squared distances."""
    d = np.asarray(nodes, dtype=float) - target
    return int(np.einsum("ij,ij->i", d, d).argmin())


def _dist(a, b) -> float:
    # Not run by the planner exactness tests: `_run_both` in
    # test_kernel_exactness.py swaps it for `sampling._dist`.
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


class _Tree:
    def __init__(self, root, cap: int):
        self.nodes = np.empty((cap, 3))
        self.nodes[0] = root
        self.pts = [tuple(self.nodes[0].tolist())]
        self.parents = [-1]

    def add(self, p, parent: int) -> None:
        self.nodes[len(self.pts)] = p
        self.pts.append(p)
        self.parents.append(parent)

    def extend(self, target, step, boxes):
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

    def trace(self):
        order = []
        i = len(self.pts) - 1
        while i >= 0:
            order.append(i)
            i = self.parents[i]
        return self.nodes[order[::-1]].copy()


def _endpoints(obstacles, start, goal, step):
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


def rrt_plan(bounds, obstacles, start, goal, params, rng):
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial
    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    tree = _Tree(s, params.max_iterations + 2)
    step = params.step_size
    for _ in range(params.max_iterations):
        if rng.random() < params.goal_bias:
            target = g
        else:
            ux, uy, uz = rng.random(3).tolist()
            target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
        new = tree.extend(target, step, boxes)
        if new is None:
            continue
        if _dist(new, g) <= step and segment_free(new, g, boxes):
            tree.add(g, len(tree.pts) - 1)
            return tree.trace()
    raise PlanningFailed(f"RRT failed to connect within {params.max_iterations} iterations")


def birrt_plan(bounds, obstacles, start, goal, params, rng):
    boxes, s, g, trivial = _endpoints(obstacles, start, goal, params.step_size)
    if trivial is not None:
        return trivial
    lx, ly, lz = np.asarray(bounds[0], dtype=float).tolist()
    hx, hy, hz = np.asarray(bounds[1], dtype=float).tolist()
    wx, wy, wz = hx - lx, hy - ly, hz - lz
    cap = 2 * params.max_iterations + 64
    trees = [_Tree(s, cap), _Tree(g, cap)]
    step = params.step_size
    a = 0
    for _ in range(params.max_iterations):
        if len(trees[0].pts) >= cap - 1 or len(trees[1].pts) >= cap - 1:
            break
        ux, uy, uz = rng.random(3).tolist()
        target = (lx + ux * wx, ly + uy * wy, lz + uz * wz)
        new = trees[a].extend(target, step, boxes)
        if new is not None:
            other = trees[1 - a]
            while len(other.pts) < cap - 1:
                jnew = other.extend(new, step, boxes)
                if jnew is None:
                    break
                if _dist(jnew, new) <= 1e-9:
                    path_a = trees[a].trace()
                    path_b = other.trace()
                    if a == 0:
                        return np.vstack([path_a, path_b[::-1][1:]])
                    return np.vstack([path_b, path_a[::-1][1:]])
        a = 1 - a
    raise PlanningFailed(f"Bi-RRT failed to connect within {params.max_iterations} iterations")


def resample_polyline(path, count):
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
            order = np.lexsort((np.arange(n_seg), -(quota - base)))
            for k in order[:remainder]:
                shares[k] += 1
    out = [path[0]]
    for i in range(n_seg):
        for k in range(1, shares[i] + 1):
            t = k / shares[i]
            out.append(path[i] * (1 - t) + path[i + 1] * t)
    return np.array(out)


def straight_waypath(start, goal, count, sub_airspace=0):
    return resample_polyline(np.array([start.as_array(), goal.as_array()]), count)


def step(world, dt=1.0):
    """`World.step`, to be bound to a World with types.MethodType (with
    `advance` and `record_tick` bound as `_advance` and `_record_tick`)."""
    from skygrid.geometry import Point3
    from skygrid.sim import UavPhase

    if not dt > 0:
        raise ValueError("dt must be positive")
    while world.pending_injections and world.pending_injections[0][0] <= world.tick:
        _, ob = world.pending_injections.pop(0)
        world.inject_sudden_obstacle(ob, world.tick)

    for uav in world.uavs:
        if uav.phase is UavPhase.PLANNING and world.tick >= uav.takeoff_tick:
            cell = world.grid.locate(Point3.from_array(uav.position))
            world._enter_cell(uav, cell, Point3.from_array(uav.position))
            if uav.phase is not UavPhase.FAILED:
                uav.phase = UavPhase.FLYING
        if uav.phase is UavPhase.FLYING:
            world._advance(uav, uav.speed * dt)

    world.tick += 1
    world._record_tick()


def advance(world, uav, distance):
    """`World._advance` on (3,) arrays: `uav.position` is read and assigned."""
    from skygrid.geometry import Point3
    from skygrid.sim import UavPhase

    remaining = distance
    while remaining > 1e-9 and uav.phase is UavPhase.FLYING:
        wp = uav.active_waypath.waypoints
        target = wp[uav.next_waypoint_index]
        d = target - uav.position
        # np.linalg.norm of a 1-D array is exactly this.
        gap = math.sqrt(d.dot(d))
        if gap > remaining:
            uav.position = uav.position + d * (remaining / gap)
            uav.flown_length += remaining
            return
        uav.position = target.copy()
        uav.flown_length += gap
        remaining -= gap
        if uav.next_waypoint_index < len(wp) - 1:
            uav.next_waypoint_index += 1
            continue
        # End of the cell's waypath: either arrived or crossing a face.
        if uav.current_cell == uav.goal_cell and np.allclose(uav.position, uav.goal.as_array()):
            uav.phase = UavPhase.ARRIVED
            world._log("arrived", uav.id, cell=uav.current_cell)
            return
        plan = uav.coarse_plan
        idx = plan.cells.index(uav.current_cell)
        if idx >= len(plan.cells) - 1:
            uav.phase = UavPhase.FAILED
            world._log("plan_exhausted", uav.id, cell=uav.current_cell)
            return
        world._enter_cell(uav, plan.cells[idx + 1], Point3.from_array(uav.position))


def record_tick(world):
    """`World._record_tick`."""
    from skygrid.adsb import AdsbMessage, OccupancyReport, PositionReport
    from skygrid.sim import UavPhase

    world._counts = [0] * world.grid.n_cells
    tick, publish = world.tick, world.bus.publish
    for uav in world.uavs:
        if uav.phase is UavPhase.FLYING:
            x, y, z = uav.position.tolist()
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"{uav.id}: non-finite position {(x, y, z)}")
            publish(AdsbMessage(uav.id, tick, PositionReport(uav.id, x, y, z)))
    world.occupancy = tuple(world._counts)
    world.bus.publish(
        AdsbMessage(sender="ground-station", tick=world.tick, payload=OccupancyReport(world.occupancy))
    )
    np.maximum(world.metrics.max_occupancy, world.occupancy, out=world.metrics.max_occupancy)


def shortcut(path, boxes):
    """`sampling.shortcut` on a (n, 3) array; its slab test is the frozen
    `segment_free` above."""
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


def moving_average_smooth(path, boxes, window):
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


def smooth(raw, boxes, window):
    """`sampling._smooth`."""
    path = shortcut(np.asarray(raw, dtype=float), boxes)
    path = moving_average_smooth(path, boxes, window)
    return shortcut(path, boxes)


# -- the swarm's scoring; geometry goes through the frozen kernels above ------

VIOLATION_PENALTY = 1.0e6


def _segments(paths):
    """Segment vectors (P, J-1, 3), their lengths (P, J-1) and the path
    lengths (P,) of a (P, J, 3) batch."""
    diffs = paths[:, 1:] - paths[:, :-1]
    lengths = np.linalg.norm(diffs, axis=2)
    return diffs, lengths, lengths.sum(axis=1)


def _batch_cost(paths, total_len, static_lo, static_hi, sudden_lo, sudden_hi, cp):
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


def _batch_penalty(paths, diffs, lengths, total_len, constraints, all_lo, all_hi):
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


def _split_obstacles(obstacles):
    static = [o for o in obstacles if o.kind is ObstacleKind.STATIC]
    sudden = [o for o in obstacles if o.kind is ObstacleKind.SUDDEN]
    return static, sudden


def optimize(seeds, obstacles, cp, constraints, params, rng):
    """Returns (best Waypath, history)."""
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

    def evaluate(x):
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


# -- the result writer: every CSV row through csv.writer ----------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_table(path, header, rows, fmt):
    if fmt == "csv":
        with open(path + ".csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    elif fmt == "jsonl":
        with open(path + ".jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")
