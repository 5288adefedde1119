"""Discrete-time multi-UAV simulation of the divided airspace.

Each tick: pending sudden obstacles are injected, UAVs advance at constant
speed along their planned waypoints, then airborne UAVs broadcast positions
and the World, as ground station, counts them per cell. Entering a new cell
triggers a coarse re-plan (sliding window), exit-point selection
(attraction), and a fine plan for the entered cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .adsb import AdsbBus, AdsbMessage, OccupancyReport, PositionReport, SuddenObstacleAlert
from .coarse import (
    CoarsePlan,
    attraction_region,
    node_costs,
    plan_coarse,
    select_exit_point,
    sliding_window_replan,
)
from .geometry import CuboidObstacle, ObstacleKind, Point3, Xyz
from .grid import AirspaceGrid, OutOfAirspace
from .pso import (
    ConstraintParams,
    _angle_limits,
    _obstacle_free_feasible,
    build_seed_population,
    feasibility_penalty,
    optimize,
)
from .replan import repair
from .sampling import (
    PlanningFailed,
    Waypath,
    birrt_plan,
    flatten_obstacles,
    point_free,
    rrt_plan,
    smooth_and_resample,
    straight_points,
)
from .scenario import Mode, Scenario, ValidationError, parse_mode

FINE_PLAN_ATTEMPTS = 5
EXIT_DRAWS = 3


class UavPhase(Enum):
    PLANNING = "Planning"
    FLYING = "Flying"
    ARRIVED = "Arrived"
    FAILED = "Failed"


@dataclass
class UavState:
    id: str
    xyz: Xyz  # the position
    goal: Point3
    goal_cell: int
    speed: float = 5.0
    takeoff_tick: int = 0
    phase: UavPhase = UavPhase.PLANNING
    coarse_plan: Optional[CoarsePlan] = None
    route: tuple[Xyz, ...] = ()  # the installed waypoints; `World._commit` writes it
    next_waypoint_index: int = 0
    current_cell: int = 0
    flown_length: float = 0.0
    rng: Optional[np.random.Generator] = None

    @property
    def position(self) -> np.ndarray:
        """A fresh (3,) float64 copy of `xyz`: an edit in place is lost.
        `World._advance` is the one writer of `xyz`."""
        return np.array(self.xyz)

    @property
    def active_waypath(self) -> Optional[Waypath]:
        """A fresh array view of `route` in `current_cell`, the cell it was
        installed in; None before the first plan."""
        return Waypath(np.array(self.route), self.current_cell) if self.route else None


@dataclass
class ExecutedPath:
    uav_id: str
    cell: int
    waypoints: np.ndarray


@dataclass
class SimMetrics:
    n_cells: int
    max_occupancy: np.ndarray = field(init=False)
    per_uav_length: dict[str, float] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    executed: list[ExecutedPath] = field(default_factory=list)
    convergence: list[tuple[str, list[float]]] = field(default_factory=list)
    arrived: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    ticks: int = 0

    def __post_init__(self):
        self.max_occupancy = np.zeros(self.n_cells, dtype=int)


class CellContext(NamedTuple):
    """What planning in one cell reads that stays fixed for a World: nothing
    changes the grid's obstacles or a ConstraintParams after construction."""

    obstacles: list[CuboidObstacle]  # scenario obstacles overlapping the cell
    lo: Xyz
    hi: Xyz
    constraints: ConstraintParams


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
        # Injected while running; the scenario's sudden obstacles are in grid.obstacles.
        self.injected: list[CuboidObstacle] = []
        self.pending_injections = sorted(scenario.injections, key=lambda x: x[0])
        self._cells: dict[int, CellContext] = {}
        self.tick = 0
        self.metrics = SimMetrics(n_cells=self.grid.n_cells)
        self.occupancy = (0,) * self.grid.n_cells  # index 0 = cell 1
        self._counts = list(self.occupancy)  # position reports received this tick, per cell
        self._peaks = list(self.occupancy)  # metrics.max_occupancy as Python ints
        self._costs_of: Optional[tuple[int, ...]] = None  # the occupancy `_costs` was built from
        self._costs: list[float] = []
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
                    xyz=tuple(spec.start),
                    goal=spec.goal,
                    goal_cell=self.grid.locate(spec.goal),
                    speed=spec.speed,
                    takeoff_tick=i * scenario.stagger,
                    rng=np.random.default_rng(streams[i]),
                )
            )

    # -- planning -----------------------------------------------------------

    def _cell(self, cell: int) -> CellContext:
        context = self._cells.get(cell)
        if context is None:
            lo, hi = self.grid.cell_bounds(cell)
            context = self._cells[cell] = CellContext(
                self.grid.obstacles_in_cell(cell), lo, hi,
                ConstraintParams(**self.scenario.constraint_limits, bounds_lo=lo, bounds_hi=hi),
            )
        return context

    def _cell_obstacles(self, cell: int) -> list[CuboidObstacle]:
        """Scenario obstacles in the cell, then injected ones in injection order."""
        c = self._cell(cell)
        return c.obstacles + [ob for ob in self.injected if ob.overlaps(c.lo, c.hi)]

    def _node_costs(self) -> list[float]:
        """The coarse search's cell costs for the current occupancy, built at
        most once per tick: occupancy changes only when a tick is recorded."""
        if self._costs_of is not self.occupancy:
            self._costs_of = self.occupancy
            self._costs = node_costs(self.scenario.ssp, self.occupancy, self.obstacle_counts)
        return self._costs

    def _coarse_plan(self, uav: UavState, current_cell: int) -> CoarsePlan:
        """A coarse plan through current_cell: the takeoff cell, or the next
        cell of the UAV's own plan."""
        if uav.coarse_plan is None:
            return plan_coarse(self.grid, self._node_costs(), current_cell, uav.goal_cell)
        if self.mode is Mode.NO_SLIDING_WINDOW:
            return uav.coarse_plan
        return sliding_window_replan(
            self.grid, self.scenario.ssp, self._node_costs(), uav.coarse_plan,
            current_cell, uav.goal_cell,
        )

    def _exit_point(self, uav: UavState, plan: CoarsePlan, cell: int, entry: Point3) -> Optional[Point3]:
        idx = plan.cells.index(cell)
        if idx == len(plan.cells) - 1:
            return None  # goal cell: fly to the goal itself
        nxt = plan.cells[idx + 1]
        face = self.grid.shared_face(cell, nxt)
        if self.mode is not Mode.NO_ATTRACTION:
            window = plan.cells[idx : idx + self.scenario.ssp.window_length]
            face = attraction_region(self.grid, window, face)
        obstacles = self._cell_obstacles(cell) + self._cell_obstacles(nxt)
        # Face points inside an obstacle are unusable as entry/exit; resample,
        # preferring a little clearance. A point whose straight line from the
        # entry climbs/dives steeper than the pitch limit is also rejected
        # when possible: zigzagging cannot make up much horizontal run under
        # the turn-angle limit, so such targets are usually unreachable.
        sin_pa, _ = _angle_limits(self._cell(cell).constraints)
        goal_next = uav.goal if nxt == uav.goal_cell else None

        def too_steep(a: Point3, b: Point3) -> bool:
            dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
            return abs(dz) > sin_pa * math.sqrt((dx * dx + dy * dy) + dz * dz)

        for margin, check_pitch in ((1.0, True), (1.0, False), (0.0, False)):
            boxes = flatten_obstacles(obstacles, margin)
            for _ in range(100):
                p = select_exit_point(face, uav.rng)
                if not point_free(p, boxes):
                    continue
                if check_pitch and (
                    too_steep(entry, p) or (goal_next is not None and too_steep(p, goal_next))
                ):
                    continue
                return p
        raise PlanningFailed(f"no collision-free exit point on face {cell}->{nxt}")

    def _fine_plan(self, uav: UavState, cell: int, entry: Point3, target: Point3) -> list[Xyz]:
        """Plan the in-cell trajectory as float triples; retries with fresh
        draws before failing."""
        obstacles = self._cell_obstacles(cell)
        constraints = self._cell(cell).constraints
        bounds = (constraints.bounds_lo, constraints.bounds_hi)
        count = self.scenario.waypoints_per_cell

        if self.mode in (Mode.RRT_ONLY, Mode.BIRRT_ONLY):
            planner = rrt_plan if self.mode is Mode.RRT_ONLY else birrt_plan
            raw = planner(bounds, obstacles, entry, target, self.scenario.rrt, uav.rng)
            return smooth_and_resample(raw, obstacles, count)

        # No path of `count` waypoints within the length limits spans more
        # than `reach`; the slack keeps rounding from deciding.
        reach = min((count - 1) * constraints.l_max, constraints.L_max)
        distance = math.dist(entry, target)
        if distance > reach * (1.0 + 1e-9):
            raise PlanningFailed(
                f"entry to target is {distance:.3f} m, more than {count} waypoints span ({reach:.3f} m)"
            )

        # Obstacle-free cell: the straight line is the exact optimum of the
        # clearance-free cost, so the seed/PSO machinery is skipped when it
        # also satisfies the kinematic constraints.
        if not obstacles:
            straight = straight_points(entry, target, count)
            if _obstacle_free_feasible(straight, constraints):
                return straight

        last_error: Optional[Exception] = None
        for _ in range(FINE_PLAN_ATTEMPTS):
            try:
                seeds = build_seed_population(
                    bounds, obstacles, entry, target, uav.rng,
                    self.scenario.rrt, self.scenario.swarm, count,
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
            # The penalty counts colliding segments too.
            if feasibility_penalty(best, constraints, obstacles) == 0.0:
                return [tuple(p) for p in best.tolist()]
            last_error = PlanningFailed("optimizer result violated constraints")
        raise PlanningFailed(f"fine planning failed in cell {cell}: {last_error}")

    def _enter_cell(self, uav: UavState, cell: int, entry: Point3) -> None:
        """Coarse re-plan, exit-point choice, and fine plan on cell entry."""
        plan = uav.coarse_plan = self._coarse_plan(uav, cell)
        try:
            # If fine planning cannot satisfy the constraints for one exit
            # point (e.g. an awkward corner draw), a fresh draw usually can;
            # the goal itself cannot be re-drawn.
            for draw in range(EXIT_DRAWS):
                exit_point = self._exit_point(uav, plan, cell, entry)
                try:
                    waypoints = self._fine_plan(uav, cell, entry, exit_point or uav.goal)
                    break
                except PlanningFailed:
                    if draw == EXIT_DRAWS - 1 or exit_point is None:
                        raise
        except PlanningFailed as exc:
            uav.phase = UavPhase.FAILED
            self._log("fine_plan_failed", uav.id, cell=cell, reason=str(exc))
            return
        uav.current_cell = cell
        self._commit(uav, waypoints, 1, "cell_entered")

    def _commit(self, uav: UavState, waypoints: list[Xyz], next_index: int, event: str) -> None:
        """Install float triples as the route in the UAV's current cell,
        record them as a (J, 3) array and log why."""
        uav.route = tuple(waypoints)
        uav.next_waypoint_index = next_index
        self.metrics.executed.append(ExecutedPath(uav.id, uav.current_cell, np.array(waypoints)))
        self._log(event, uav.id, cell=uav.current_cell)

    # -- sudden obstacles ---------------------------------------------------

    def inject_sudden_obstacle(self, ob: CuboidObstacle, tick: int) -> None:
        if ob.kind is not ObstacleKind.SUDDEN:
            raise ValidationError("injected obstacles must be sudden")
        try:
            alert = SuddenObstacleAlert(obstacle=ob, sub_airspace=self.grid.locate(ob.center))
        except OutOfAirspace as exc:
            raise ValidationError(f"injected obstacle's centre outside the airspace: {exc}") from exc
        self.bus.publish(AdsbMessage(sender="ground-station", tick=tick, payload=alert))
        self.injected.append(ob)
        self._log("sudden_obstacle", "ground-station", cell=alert.sub_airspace)
        for uav in self.uavs:
            if uav.phase is not UavPhase.FLYING:
                continue
            # Only the route ahead of the UAV is checked, so an obstacle behind it is ignored.
            wp, nxt, cell = uav.route, uav.next_waypoint_index, uav.current_cell
            obstacles = [o for o in self._cell_obstacles(cell) if o is not ob]
            try:
                route = repair(
                    (uav.xyz,) + wp[nxt:], ob, obstacles,
                    self._cell(cell).constraints, uav.rng, self.scenario.rrt,
                )
                event = "repair"
            except PlanningFailed as exc:
                # Escalate: re-plan the rest of the cell from the current
                # position. An exit point the cell's obstacles now cover is
                # drawn afresh, as on a cell entry; the goal cannot be.
                self._log("repair_failed", uav.id, cell=cell, reason=str(exc))
                here = Point3(*uav.xyz)
                try:
                    target = Point3(*wp[-1])
                    boxes = flatten_obstacles(self._cell_obstacles(cell))
                    if cell != uav.goal_cell and not point_free(wp[-1], boxes):
                        target = self._exit_point(uav, uav.coarse_plan, cell, here)
                    route = self._fine_plan(uav, cell, here, target)
                except PlanningFailed as exc:
                    uav.phase = UavPhase.FAILED
                    self._log("replan_failed", uav.id, cell=cell, reason=str(exc))
                    continue
                event = "cell_replanned"
            if route is None:
                continue  # the route ahead is clear of the obstacle
            # A repair and a re-plan both start at the position and are float
            # triples like the route; the flown part is kept.
            if route[1] == wp[nxt]:
                # The detour leaves after the position, a point of the leg being flown.
                head, route, target = wp[:nxt], route[1:], nxt
            else:
                # The detour leaves from the position, which becomes a vertex (held once).
                keep = nxt - 1 if uav.xyz == wp[nxt - 1] else nxt
                head, target = wp[:keep], keep + 1
            self._commit(uav, [*head, *route], target, event)

    # -- time stepping ------------------------------------------------------

    def step(self, dt: float = 1.0) -> None:
        if not dt > 0:
            raise ValueError("dt must be positive")
        while self.pending_injections and self.pending_injections[0][0] <= self.tick:
            _, ob = self.pending_injections.pop(0)
            self.inject_sudden_obstacle(ob, self.tick)

        for uav in self.uavs:
            if uav.phase is UavPhase.FLYING:
                self._advance(uav, uav.speed * dt)
            elif uav.phase is UavPhase.PLANNING and self.tick >= uav.takeoff_tick:
                entry = Point3(*uav.xyz)
                self._enter_cell(uav, self.grid.locate(entry), entry)
                if uav.phase is not UavPhase.FAILED:
                    uav.phase = UavPhase.FLYING
                    self._advance(uav, uav.speed * dt)

        self.tick += 1
        self._record_tick()

    def _advance(self, uav: UavState, distance: float) -> None:
        """Fly `distance` along the route."""
        remaining = distance
        while remaining > 1e-9 and uav.phase is UavPhase.FLYING:
            target = uav.route[uav.next_waypoint_index]
            (tx, ty, tz), (x, y, z) = target, uav.xyz
            dx, dy, dz = tx - x, ty - y, tz - z
            gap = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if gap > remaining:
                s = remaining / gap
                uav.xyz = (x + dx * s, y + dy * s, z + dz * s)
                uav.flown_length += remaining
                return
            uav.xyz = target
            uav.flown_length += gap
            remaining -= gap
            if uav.next_waypoint_index < len(uav.route) - 1:
                uav.next_waypoint_index += 1
                continue
            # End of the cell's route: either arrived or crossing a face.
            if uav.current_cell == uav.goal_cell and all(  # np.allclose, on floats
                abs(p - g) <= 1e-8 + 1e-5 * abs(g) for p, g in zip(uav.xyz, uav.goal)
            ):
                uav.phase = UavPhase.ARRIVED
                self._log("arrived", uav.id, cell=uav.current_cell)
                return
            plan = uav.coarse_plan
            idx = plan.cells.index(uav.current_cell)
            if idx >= len(plan.cells) - 1:
                uav.phase = UavPhase.FAILED
                self._log("plan_exhausted", uav.id, cell=uav.current_cell)
                return
            self._enter_cell(uav, plan.cells[idx + 1], Point3(*uav.xyz))

    def _ground_station(self, msg: AdsbMessage) -> None:
        """Bus subscriber: counts each position report it receives in its cell."""
        if type(msg.payload) is PositionReport:
            self._counts[self.grid.locate(msg.payload) - 1] += 1

    def _record_tick(self) -> None:
        """Every flying UAV, in order, broadcasts its position; then the
        ground station broadcasts the counts it received. The reports are
        checked before any is published, so a non-finite position publishes
        nothing of the tick."""
        self._counts = [0] * self.grid.n_cells
        tick, flying, isfinite = self.tick, UavPhase.FLYING, math.isfinite
        reports = []
        for uav in self.uavs:
            if uav.phase is flying:
                x, y, z = uav.xyz
                if not (isfinite(x) and isfinite(y) and isfinite(z)):
                    raise ValueError(f"{uav.id}: non-finite position {(x, y, z)}")
                reports.append(AdsbMessage(uav.id, tick, PositionReport(uav.id, x, y, z)))
        self.bus.publish(*reports)
        self.occupancy = tuple(self._counts)
        self.bus.publish(AdsbMessage("ground-station", tick, OccupancyReport(self.occupancy)))
        # `_peaks` mirrors `metrics.max_occupancy` as Python ints; both start
        # at zero and this loop is the only writer of either, so they stay equal.
        peaks = self._peaks
        for i, c in enumerate(self._counts):
            if c > peaks[i]:
                peaks[i] = c
                self.metrics.max_occupancy[i] = c

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


def run_scenario(scenario: Scenario, mode: Mode | str | None = None) -> SimMetrics:
    """Run a complete scenario in the given mode (by default its own) and
    return its metrics."""
    if mode is None:
        mode = scenario.mode
    if isinstance(mode, str):
        mode = parse_mode(mode)
    world = World(scenario, mode)
    return world.run()
