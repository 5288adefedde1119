"""Frozen copies of kernels before their overhead rewrites.

The collision kernels in `skygrid.sampling` and `skygrid.geometry`, the tree
planners `rrt_plan`/`birrt_plan` (per-draw RNG calls, `einsum` nearest-node
ranking), the clearance kernel `points_to_cuboids_distance`, the coarse
search `skygrid.coarse.plan_coarse`, `AirspaceGrid.locate`/`neighbors`, the
resampling `resample_polyline`/`straight_waypath` (small-array numpy) and the
simulation's `World._advance` were rewritten to give the same results with
less per-call overhead. `test_kernel_exactness.py`,
`test_coarse_exactness.py` and `test_bookkeeping_exactness.py` compare them
with these copies, which must stay as they are.
"""

import heapq
import math

import numpy as np

from skygrid.grid import OutOfAirspace
from skygrid.sampling import PlanningFailed, flatten_obstacles, point_free


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


def points_to_cuboids_distance(points, lo, hi):
    p = points[..., None, :]
    clamped = np.clip(p, lo, hi)
    return np.linalg.norm(p - clamped, axis=-1)


def einsum_nearest(nodes, target) -> int:
    """The tree planners' nearest node: first argmin of einsum squared distances."""
    d = np.asarray(nodes, dtype=float) - target
    return int(np.einsum("ij,ij->i", d, d).argmin())


def _dist(a, b) -> float:
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


def advance(world, uav, distance):
    """`World._advance`, to be bound to a World with types.MethodType."""
    from skygrid.geometry import Point3
    from skygrid.sim import UavPhase

    remaining = distance
    while remaining > 1e-9 and uav.phase is UavPhase.FLYING:
        wp = uav.active_waypath.waypoints
        target = wp[uav.next_waypoint_index]
        gap = float(np.linalg.norm(target - uav.position))
        if gap > remaining:
            uav.position = uav.position + (target - uav.position) * (remaining / gap)
            uav.flown_length += remaining
            return
        uav.position = target.copy()
        uav.flown_length += gap
        remaining -= gap
        if uav.next_waypoint_index < len(wp) - 1:
            uav.next_waypoint_index += 1
            continue
        goal_cell = world.grid.locate(uav.goal)
        if uav.current_cell == goal_cell and np.allclose(uav.position, uav.goal.as_array()):
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
