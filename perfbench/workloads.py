"""Request generation and execution for each workload.

Every request mirrors ``skygrid simulate`` through the public library: a
scenario goes to ``sim.World``, which is stepped tick by tick and finished
with ``World.run``, and ``output.emit_results`` writes the tables to disk.
Inputs come only from the benchmark seed and the request index.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from skygrid import output, pso, sampling, scenario as scenario_mod, sim
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3

import oracle

WORKLOADS = ("fleet", "open-sky", "cell-repair")
_TAGS = {"fleet": 1, "open-sky": 2, "cell-repair": 3, "probe": 4}

# uavs: random UAVs per scenario; probes: open-cell repair requests after each
# scenario; min_requests: requests every run completes, whose outputs give the
# quality metrics and digests and are replayed by the traced run. `fleet` runs
# but is not among the gated workloads: see README.md.
SIZES = {
    "fleet": {"uavs": 4, "probes": 16, "min_requests": 10},
    "open-sky": {"uavs": 150, "probes": 24, "min_requests": 8},
    "cell-repair": {"probes": 0, "min_requests": 200},
}
SMOKE_SIZES = {
    "fleet": {"uavs": 2, "probes": 2, "min_requests": 1},
    "open-sky": {"uavs": 10, "probes": 2, "min_requests": 1},
    "cell-repair": {"probes": 0, "min_requests": 3},
}

TABLES = ("waypoints", "occupancy", "convergence", "events")
PLAN_EVENTS = ("cell_entered", "fine_plan_failed")
CUBE_SIDE_M = 10.0
MIN_CELL_RUN_M = 120.0
ENDPOINT_CLEARANCE_M = 2.0


@dataclass
class Outcome:
    """What one request did. Timings are (perf_counter() at the end, value)."""

    wall_s: float = 0.0  # main request: scenario to result tables on disk
    wall_span: tuple[float, float] = (0.0, 0.0)
    busy_s: float = 0.0  # wall_s plus the program time of the repair probes
    tick_ms: list[tuple[float, float]] = field(default_factory=list)
    plan_ms: list[tuple[float, float]] = field(default_factory=list)
    repair_ms: list[tuple[float, float]] = field(default_factory=list)
    trips: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    flown_m: list[float] = field(default_factory=list)
    peak_occupancy: float = 0.0  # mean per-cell peak UAV count over visited cells
    plan_costs: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    cell_entries: int = 0
    fine_plan_failed: int = 0
    bus_messages: int = 0
    bytes_out: int = 0
    paused_s: float = 0.0  # host-speed sampling inside the request, not counted


def _rng(seed: int, tag: str, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[tag], *index]))


def _scenario_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def scenario_text(workload: str, seed: int, i: int, size: dict) -> str:
    rng = _rng(seed, workload, i)
    lines = [f"random_uavs: {{count: {size['uavs']}, min_cell_separation: 5}}"]
    if workload == "open-sky":
        lines.append("obstacles: []")
    lines += ["mode: SSP", f"seed: {_scenario_seed(rng)}"]
    return "\n".join(lines) + "\n"


def cell_spec(rng: np.random.Generator, empty: bool) -> dict:
    """Seeded start/goal pair in the reference cell, clear of its buildings
    and at least MIN_CELL_RUN_M apart horizontally."""
    ext = scenario_mod.CELL_EXTENT
    blocked = [] if empty else [
        (np.array(a) - ENDPOINT_CLEARANCE_M, np.array(a) + np.array(l) + ENDPOINT_CLEARANCE_M)
        for a, l in scenario_mod.CELL_OBSTACLES
    ]

    def point():
        while True:
            p = np.array([rng.uniform(1.0, ext[0] - 1.0), rng.uniform(1.0, ext[1] - 1.0),
                          rng.uniform(1.0, ext[2] - 1.0)])
            if not any(np.all((p >= lo) & (p <= hi)) for lo, hi in blocked):
                return tuple(float(v) for v in p)

    while True:
        start, goal = point(), point()
        if math.hypot(start[0] - goal[0], start[1] - goal[1]) >= MIN_CELL_RUN_M:
            return {"seed": _scenario_seed(rng), "start": start, "goal": goal, "empty": empty}


def request_spec(workload: str, seed: int, i: int, size: dict) -> dict:
    if workload == "cell-repair":
        return {"cell": cell_spec(_rng(seed, workload, i), empty=False)}
    return {"text": scenario_text(workload, seed, i, size)}


def build_scenario(spec: dict):
    """The scenario a request hands to the program."""
    if "text" in spec:
        return scenario_mod.load_scenario(spec["text"])
    cell = spec["cell"]
    sc = scenario_mod.single_cell_scenario(
        seed=cell["seed"], start=tuple(cell["start"]), goal=tuple(cell["goal"])
    )
    return dataclasses.replace(sc, obstacles=[]) if cell["empty"] else sc


def _step(world, scenario, out: Outcome) -> None:
    events = world.metrics.events
    k = len(events)
    t0 = time.perf_counter()
    world.step(scenario.dt)
    t1 = time.perf_counter()
    sample = (t1, (t1 - t0) * 1e3)
    out.tick_ms.append(sample)
    if any(e["kind"] in PLAN_EVENTS for e in events[k:]):
        out.plan_ms.append(sample)


def _fly(world, scenario, out: Outcome, speed) -> None:
    while not world.done() and world.tick < scenario.max_ticks:
        _step(world, scenario, out)
        if speed is not None:
            t0 = time.perf_counter()
            speed.maybe_sample()
            out.paused_s += time.perf_counter() - t0


def _cube(center: np.ndarray) -> CuboidObstacle:
    half = CUBE_SIDE_M / 2.0
    return CuboidObstacle(
        anchor=Point3(float(center[0]) - half, float(center[1]) - half, max(0.0, float(center[2]) - half)),
        len_x=CUBE_SIDE_M, len_y=CUBE_SIDE_M, len_z=CUBE_SIDE_M,
        kind=ObstacleKind.SUDDEN, id="bench-cube",
    )


def _execute(spec: dict, out_dir: str, out: Outcome, speed):
    """Run one request through the program; returns what the checks need."""
    paused = out.paused_s
    t0 = time.perf_counter()
    sc = build_scenario(spec)
    world = sim.World(sc, sim.Mode(sc.mode))
    sudden = []
    n_planned = None
    if "cell" in spec:
        # Plan, then drop a cube on the middle waypoint of the committed path.
        _step(world, sc, out)
        uav = world.uavs[0]
        if uav.phase is sim.UavPhase.FLYING:
            wp = uav.active_waypath.waypoints
            cube = _cube(wp[len(wp) // 2])
            n_planned = len(world.metrics.executed)
            sudden.append((n_planned, cube))
            t1 = time.perf_counter()
            world.inject_sudden_obstacle(cube, world.tick)
            t2 = time.perf_counter()
            out.repair_ms.append((t2, (t2 - t1) * 1e3))
    _fly(world, sc, out, speed)
    metrics = world.run()
    output.emit_results(metrics, out_dir, "csv", bus_log=world.bus.log)
    t_end = time.perf_counter()
    return (t0, t_end), t_end - t0 - (out.paused_s - paused), sc, world, sudden, n_planned


def _account(out: Outcome, sc, world, sudden, out_dir: str, check: bool) -> None:
    """Counts and, when `check`, the oracle's verdict."""
    events = world.metrics.events
    out.cell_entries += sum(e["kind"] == "cell_entered" for e in events)
    out.fine_plan_failed += sum(e["kind"] == "fine_plan_failed" for e in events)
    out.bus_messages += len(world.bus.log)
    for name in os.listdir(out_dir):
        out.bytes_out += os.path.getsize(os.path.join(out_dir, name))
    if check:
        trips, failed, violations = oracle.check_world(world, sc.obstacles, sudden)
        out.trips += trips
        out.failed += failed
        out.violations += violations


def _digests(out: Outcome, out_dir: str) -> None:
    for table in TABLES:
        with open(os.path.join(out_dir, table + ".csv"), "rb") as fh:
            out.digests[table] = hashlib.sha256(fh.read()).hexdigest()


def _quality(out: Outcome, sc, world, n_planned) -> None:
    """Flown length, crowding and the optimizer's cost of each cell-entry plan."""
    metrics = world.metrics
    out.flown_m = [metrics.per_uav_length[u] for u in metrics.arrived]
    visited = metrics.max_occupancy[metrics.max_occupancy > 0]
    out.peak_occupancy = float(visited.mean()) if len(visited) else 0.0
    for ex in metrics.executed[:n_planned]:
        lo, hi = world.grid.cell_bounds(ex.cell)
        limits = pso.ConstraintParams(**sc.constraint_limits, bounds_lo=lo, bounds_hi=hi)
        path = sampling.Waypath(waypoints=ex.waypoints, sub_airspace=ex.cell)
        out.plan_costs.append(
            pso.penalized_cost(path, world.grid.obstacles_in_cell(ex.cell), sc.cost, limits)
        )


def run_request(workload: str, seed: int, i: int, size: dict, tmp_root: str,
                check: bool = True, speed=None) -> Outcome:
    """One closed-loop request: the workload's scenario, then its repair probes.

    With `check` off (the traced replay) nothing but the program runs between
    the timers, and only counts and digests are recorded. `speed` samples the
    host's speed between ticks; that time is left out of the request's timings.
    """
    out = Outcome()
    probes = [
        {"cell": cell_spec(_rng(seed, "probe", _TAGS[workload], i, j), empty=True)}
        for j in range(size["probes"])
    ]
    for n, spec in enumerate([request_spec(workload, seed, i, size)] + probes):
        main = n == 0
        if speed is not None and n == 1:
            speed.sample()  # the probes run in a burst of ~0.1 s; bracket it
        part = out if main else Outcome()
        out_dir = tempfile.mkdtemp(dir=tmp_root)
        try:
            span, elapsed, sc, world, sudden, n_planned = _execute(spec, out_dir, part, speed)
            out.busy_s += elapsed
            if main:
                out.wall_s = elapsed
                out.wall_span = span
                _digests(out, out_dir)
                if check:
                    _quality(out, sc, world, n_planned)
            else:
                out.repair_ms += part.repair_ms
            _account(out, sc, world, sudden, out_dir, check)
        finally:
            shutil.rmtree(out_dir)
    if speed is not None and probes:
        speed.sample()
    return out


def warm_up(tmp_root: str) -> None:
    """One small untimed request, so lazy first-call costs stay out of the figures."""
    run_request("open-sky", 0, 0, {"uavs": 2, "probes": 1}, tmp_root, check=False)
