"""Discrete-time multi-UAV simulation of the divided airspace.

Each tick: airborne UAVs broadcast positions, the ground station aggregates
per-cell occupancy, pending sudden obstacles are injected, and UAVs advance
at constant speed along their planned waypoints. Entering a new cell triggers
a coarse re-plan (sliding window), exit-point selection (attraction), and a
fine plan for the entered cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .adsb import (
    AdsbBus,
    AdsbMessage,
    OccupancyReport,
    PositionReport,
    aggregate_occupancy,
    broadcast_sudden_obstacle,
)
from .coarse import (
    CoarsePlan,
    attraction_region,
    plan_coarse,
    select_exit_point,
    sliding_window_replan,
)
from .geometry import CuboidObstacle, ObstacleKind, Point3, path_is_collision_free
from .grid import AirspaceGrid
from .pso import ConstraintParams, build_seed_population, feasibility_penalty, optimize
from .replan import RepairFailed, repair, should_replan
from .sampling import (
    PlanningFailed,
    Waypath,
    birrt_plan,
    flatten_obstacles,
    point_free,
    rrt_plan,
    smooth_and_resample,
    straight_waypath,
)
from .scenario import Scenario, ValidationError

FINE_PLAN_ATTEMPTS = 5


class Mode(Enum):
    SSP = "SSP"
    NO_SLIDING_WINDOW = "NoSlidingWindow"
    NO_ATTRACTION = "NoAttraction"
    RRT_ONLY = "RrtOnly"
    BIRRT_ONLY = "BirrtOnly"


class UavPhase(Enum):
    PLANNING = "Planning"
    FLYING = "Flying"
    ARRIVED = "Arrived"
    FAILED = "Failed"


@dataclass
class UavState:
    id: str
    position: np.ndarray
    goal: Point3
    speed: float = 5.0
    takeoff_tick: int = 0
    phase: UavPhase = UavPhase.PLANNING
    coarse_plan: Optional[CoarsePlan] = None
    active_waypath: Optional[Waypath] = None
    next_waypoint_index: int = 0
    current_cell: int = 0
    flown_length: float = 0.0
    rng: Optional[np.random.Generator] = None


@dataclass
class ExecutedPath:
    uav_id: str
    cell: int
    waypoints: np.ndarray


@dataclass
class SimMetrics:
    n_cells: int
    max_occupancy: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    per_uav_length: dict[str, float] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    executed: list[ExecutedPath] = field(default_factory=list)
    convergence: list[tuple[str, list[float]]] = field(default_factory=list)
    min_separation: list[tuple[int, float]] = field(default_factory=list)
    arrived: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    ticks: int = 0

    def __post_init__(self):
        if len(self.max_occupancy) == 0:
            self.max_occupancy = np.zeros(self.n_cells, dtype=int)


class World:
    """Simulation state: grid, message bus, UAVs, and recorded metrics."""

    def __init__(self, scenario: Scenario, mode: Mode):
        if not isinstance(scenario, Scenario):
            raise ValidationError("expected a Scenario instance")
        self.scenario = scenario
        self.mode = mode
        self.grid = AirspaceGrid(
            extent=scenario.extent, counts=scenario.counts, obstacles=list(scenario.obstacles)
        )
        self.obstacle_counts = self.grid.static_obstacle_counts()
        self.sudden_obstacles: list[CuboidObstacle] = [
            ob for ob in scenario.obstacles if ob.kind is ObstacleKind.SUDDEN
        ]
        self.pending_injections = sorted(scenario.injections, key=lambda x: x[0])
        self.tick = 0
        self.metrics = SimMetrics(n_cells=self.grid.n_cells)
        self.occupancy = np.zeros(self.grid.n_cells, dtype=int)
        self._delivered: dict[str, PositionReport] = {}
        self._plan_counter = 0

        root = np.random.SeedSequence(scenario.seed)
        streams = root.spawn(len(scenario.uavs) + 1)
        self.bus = AdsbBus(
            loss_rate=scenario.loss_rate, rng=np.random.default_rng(streams[-1])
        )
        self.bus.subscribe(self._ground_station)
        self.uavs: list[UavState] = []
        for i, spec in enumerate(scenario.uavs):
            self.uavs.append(
                UavState(
                    id=spec.id,
                    position=spec.start.as_array(),
                    goal=spec.goal,
                    speed=spec.speed,
                    takeoff_tick=i * scenario.stagger,
                    rng=np.random.default_rng(streams[i]),
                )
            )

    # -- planning -----------------------------------------------------------

    def _cell_obstacles(self, cell: int) -> list[CuboidObstacle]:
        static = self.grid.obstacles_in_cell(cell)
        lo, hi = (b.tolist() for b in self.grid.cell_bounds(cell))
        sudden = [ob for ob in self.sudden_obstacles if ob.overlaps(lo, hi)]
        seen = {id(o) for o in static}
        return static + [o for o in sudden if id(o) not in seen]

    def _constraints_for(self, cell: int) -> ConstraintParams:
        lo, hi = self.grid.cell_bounds(cell)
        return ConstraintParams(**self.scenario.constraint_limits, bounds_lo=lo, bounds_hi=hi)

    def _coarse_plan(self, uav: UavState, current_cell: int) -> CoarsePlan:
        goal_cell = self.grid.locate(uav.goal)
        if uav.coarse_plan is None:
            return plan_coarse(
                self.grid, self.scenario.ssp, self.occupancy, current_cell, goal_cell,
                self.obstacle_counts,
            )
        if self.mode is Mode.NO_SLIDING_WINDOW:
            return uav.coarse_plan
        return sliding_window_replan(
            self.grid, self.scenario.ssp, self.occupancy, uav.coarse_plan,
            current_cell, goal_cell, self.obstacle_counts,
        )

    def _exit_point(self, uav: UavState, plan: CoarsePlan, cell: int, entry: Point3) -> Optional[Point3]:
        idx = plan.cells.index(cell)
        if idx == len(plan.cells) - 1:
            return None  # goal cell: fly to the goal itself
        nxt = plan.cells[idx + 1]
        face = self.grid.shared_face(cell, nxt)
        if self.mode is not Mode.NO_ATTRACTION:
            window = plan.cells[idx : idx + self.scenario.ssp.window_length]
            if len(window) >= 2:
                face = attraction_region(self.grid, window, face)
        obstacles = self._cell_obstacles(cell) + self._cell_obstacles(nxt)
        # Face points inside an obstacle are unusable as entry/exit; resample,
        # preferring a little clearance. A point whose straight line from the
        # entry climbs/dives steeper than the pitch limit is also rejected
        # when possible: zigzagging cannot make up much horizontal run under
        # the turn-angle limit, so such targets are usually unreachable.
        pa_max = math.radians(self.scenario.constraint_limits["pa_max"])
        goal_next = uav.goal if nxt == self.grid.locate(uav.goal) else None

        def too_steep(a: Point3, b: Point3) -> bool:
            rise = abs(b.z - a.z)
            run = math.hypot(b.x - a.x, b.y - a.y)
            return rise > 1e-12 and math.atan2(rise, run) > pa_max

        for margin, check_pitch in ((1.0, True), (1.0, False), (0.0, False)):
            boxes = flatten_obstacles(obstacles, margin)
            for _ in range(100):
                p = select_exit_point(face, uav.rng)
                if not point_free((p.x, p.y, p.z), boxes):
                    continue
                if check_pitch and (
                    too_steep(entry, p) or (goal_next is not None and too_steep(p, goal_next))
                ):
                    continue
                return p
        raise PlanningFailed(f"no collision-free exit point on face {cell}->{nxt}")

    def _fine_plan(self, uav: UavState, cell: int, entry: Point3, target: Point3) -> Waypath:
        """Plan the in-cell trajectory; retries with fresh draws before failing."""
        bounds = self.grid.cell_bounds(cell)
        obstacles = self._cell_obstacles(cell)
        constraints = self._constraints_for(cell)
        count = self.scenario.waypoints_per_cell
        smooth_window = self.scenario.smooth_window

        if self.mode in (Mode.RRT_ONLY, Mode.BIRRT_ONLY):
            planner = rrt_plan if self.mode is Mode.RRT_ONLY else birrt_plan
            raw = planner(bounds, obstacles, entry, target, self.scenario.rrt, uav.rng)
            return smooth_and_resample(raw, obstacles, count, smooth_window, cell)

        # Obstacle-free cell: the straight line is the exact optimum of the
        # clearance-free cost, so the seed/PSO machinery is skipped when it
        # also satisfies the kinematic constraints.
        if not obstacles:
            straight = straight_waypath(entry, target, count, cell)
            if feasibility_penalty(straight, constraints, obstacles) == 0.0:
                return straight

        last_error: Optional[Exception] = None
        for _ in range(FINE_PLAN_ATTEMPTS):
            try:
                seeds = build_seed_population(
                    bounds, obstacles, entry, target, uav.rng,
                    self.scenario.rrt, self.scenario.swarm, count, smooth_window, cell,
                )
                best, history = optimize(
                    seeds, obstacles, self.scenario.cost, constraints,
                    self.scenario.swarm, uav.rng,
                )
            except PlanningFailed as exc:
                last_error = exc
                continue
            run_id = f"{uav.id}-c{cell}-{self._plan_counter}"
            self._plan_counter += 1
            self.metrics.convergence.append((run_id, history))
            if feasibility_penalty(best, constraints, obstacles) == 0.0 and path_is_collision_free(
                best.waypoints, obstacles
            ):
                return best
            last_error = PlanningFailed("optimizer result violated constraints")
        raise PlanningFailed(f"fine planning failed in cell {cell}: {last_error}")

    def _enter_cell(self, uav: UavState, cell: int, entry: Point3) -> None:
        """Coarse re-plan, exit-point choice, and fine plan on cell entry."""
        plan = self._coarse_plan(uav, cell)
        if cell not in plan.cells:
            plan = plan_coarse(
                self.grid, self.scenario.ssp, self.occupancy, cell,
                self.grid.locate(uav.goal), self.obstacle_counts,
            )
        uav.coarse_plan = plan
        try:
            waypath = None
            last_error: Optional[PlanningFailed] = None
            # If fine planning cannot satisfy the constraints for one exit
            # point (e.g. an awkward corner draw), a fresh draw usually can.
            for _ in range(3):
                exit_point = self._exit_point(uav, plan, cell, entry)
                target = exit_point if exit_point is not None else uav.goal
                idx = plan.cells.index(cell)
                if exit_point is not None:
                    plan.exit_points[idx] = exit_point
                try:
                    waypath = self._fine_plan(uav, cell, entry, target)
                    break
                except PlanningFailed as exc:
                    last_error = exc
                    if exit_point is None:
                        raise  # the goal itself cannot be re-drawn
            if waypath is None:
                raise last_error if last_error is not None else PlanningFailed("no exit point")
        except PlanningFailed as exc:
            uav.phase = UavPhase.FAILED
            self._log("fine_plan_failed", uav.id, cell=cell, reason=str(exc))
            return
        uav.active_waypath = waypath
        uav.next_waypoint_index = 1
        uav.current_cell = cell
        self.metrics.executed.append(ExecutedPath(uav.id, cell, waypath.waypoints.copy()))
        self._log("cell_entered", uav.id, cell=cell)

    # -- sudden obstacles ---------------------------------------------------

    def inject_sudden_obstacle(self, ob: CuboidObstacle, tick: int) -> None:
        if ob.kind is not ObstacleKind.SUDDEN:
            raise ValidationError("injected obstacles must be sudden")
        broadcast_sudden_obstacle(self.bus, ob, self.grid, tick)
        self.sudden_obstacles.append(ob)
        self._log("sudden_obstacle", "ground-station", cell=self.grid.locate(ob.center))
        for uav in self.uavs:
            if uav.phase is not UavPhase.FLYING or uav.active_waypath is None:
                continue
            if not should_replan(uav.active_waypath, uav.next_waypoint_index, ob):
                continue
            constraints = self._constraints_for(uav.current_cell)
            obstacles = [o for o in self._cell_obstacles(uav.current_cell) if o is not ob]
            try:
                old = uav.active_waypath.waypoints
                repaired = repair(
                    uav.active_waypath, ob, obstacles, constraints, uav.rng,
                    self.scenario.rrt, self.scenario.smooth_window,
                )
                # If bracket widening removed the current target waypoint,
                # retarget the first spliced-in point.
                k = 0
                limit = min(len(old), len(repaired.waypoints))
                while k < limit and np.array_equal(old[k], repaired.waypoints[k]):
                    k += 1
                uav.active_waypath = repaired
                uav.next_waypoint_index = min(uav.next_waypoint_index, max(k, 1))
                self.metrics.executed.append(
                    ExecutedPath(uav.id, uav.current_cell, repaired.waypoints.copy())
                )
                self._log("repair", uav.id, cell=uav.current_cell)
            except RepairFailed:
                # Escalate: re-plan the rest of the cell from the current position.
                self._log("repair_failed", uav.id, cell=uav.current_cell)
                try:
                    target = Point3.from_array(uav.active_waypath.waypoints[-1])
                    uav.active_waypath = self._fine_plan(
                        uav, uav.current_cell, Point3.from_array(uav.position), target
                    )
                    uav.next_waypoint_index = 1
                    self.metrics.executed.append(
                        ExecutedPath(uav.id, uav.current_cell, uav.active_waypath.waypoints.copy())
                    )
                    self._log("cell_replanned", uav.id, cell=uav.current_cell)
                except PlanningFailed as exc:
                    uav.phase = UavPhase.FAILED
                    self._log("replan_failed", uav.id, cell=uav.current_cell, reason=str(exc))

    # -- time stepping ------------------------------------------------------

    def step(self, dt: float = 1.0) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        while self.pending_injections and self.pending_injections[0][0] <= self.tick:
            _, ob = self.pending_injections.pop(0)
            self.inject_sudden_obstacle(ob, self.tick)

        for uav in self.uavs:
            if uav.phase is UavPhase.PLANNING and self.tick >= uav.takeoff_tick:
                cell = self.grid.locate(Point3.from_array(uav.position))
                self._enter_cell(uav, cell, Point3.from_array(uav.position))
                if uav.phase is not UavPhase.FAILED:
                    uav.phase = UavPhase.FLYING
            if uav.phase is UavPhase.FLYING:
                self._advance(uav, uav.speed * dt)

        self.tick += 1
        self._record_tick()

    def _advance(self, uav: UavState, distance: float) -> None:
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
            # End of the cell's waypath: either arrived or crossing a face.
            goal_cell = self.grid.locate(uav.goal)
            if uav.current_cell == goal_cell and np.allclose(uav.position, uav.goal.as_array()):
                uav.phase = UavPhase.ARRIVED
                self._log("arrived", uav.id, cell=uav.current_cell)
                return
            plan = uav.coarse_plan
            idx = plan.cells.index(uav.current_cell)
            if idx >= len(plan.cells) - 1:
                uav.phase = UavPhase.FAILED
                self._log("plan_exhausted", uav.id, cell=uav.current_cell)
                return
            self._enter_cell(uav, plan.cells[idx + 1], Point3.from_array(uav.position))

    def _ground_station(self, msg: AdsbMessage) -> None:
        """Bus subscriber: keeps the position reports delivered this tick."""
        if isinstance(msg.payload, PositionReport):
            self._delivered[msg.payload.uav_id] = msg.payload

    def _record_tick(self) -> None:
        airborne = [u for u in self.uavs if u.phase is UavPhase.FLYING]
        self._delivered = {}
        for uav in airborne:
            report = PositionReport(uav_id=uav.id, position=Point3.from_array(uav.position))
            self.bus.publish(AdsbMessage(sender=uav.id, tick=self.tick, payload=report))
        self.occupancy = aggregate_occupancy(self._delivered, self.grid)
        self.bus.publish(
            AdsbMessage(
                sender="ground-station", tick=self.tick,
                payload=OccupancyReport(counts=tuple(int(c) for c in self.occupancy)),
            )
        )
        np.maximum(self.metrics.max_occupancy, self.occupancy, out=self.metrics.max_occupancy)
        if len(airborne) >= 2:
            pos = np.stack([u.position for u in airborne])
            d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            self.metrics.min_separation.append((self.tick, float(d.min())))

    def _log(self, kind: str, who: str, **details) -> None:
        self.metrics.events.append({"tick": self.tick, "kind": kind, "who": who, **details})

    # -- driving ------------------------------------------------------------

    def done(self) -> bool:
        return all(u.phase in (UavPhase.ARRIVED, UavPhase.FAILED) for u in self.uavs)

    def run(self) -> SimMetrics:
        while not self.done() and self.tick < self.scenario.max_ticks:
            self.step(self.scenario.dt)
        self.metrics.ticks = self.tick
        for uav in self.uavs:
            self.metrics.per_uav_length[uav.id] = uav.flown_length
            if uav.phase is UavPhase.ARRIVED:
                self.metrics.arrived.append(uav.id)
            elif uav.phase is UavPhase.FAILED:
                self.metrics.failed.append(uav.id)
        return self.metrics


def run_scenario(scenario: Scenario, mode: Mode | str = Mode.SSP) -> SimMetrics:
    """Run a complete scenario in the given mode and return its metrics."""
    if isinstance(mode, str):
        try:
            mode = Mode(mode)
        except ValueError as exc:
            raise ValidationError(f"unknown mode {mode!r}") from exc
    world = World(scenario, mode)
    return world.run()
