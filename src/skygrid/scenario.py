"""Scenario configuration: parsing, validation, defaults, and random content.

A scenario is a YAML document with nested sections for the airspace, the
obstacle field, the UAV fleet, sudden-obstacle injections, and every
parameter block. Omitted fields fall back to the reference defaults
(1000x1000x250 m airspace in 5x5x5 cells, 75 random obstacles with heights
in [25, 240] m, one UAV from (0, 0, 0) to (750, 900, 80) at 5 m/s).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np
import yaml

from .coarse import SspParams
from .geometry import CuboidObstacle, ObstacleKind, Point3
from .grid import AirspaceGrid, OutOfAirspace
from .pso import ConstraintParams, CostParams, SwarmParams
from .sampling import DEFAULT_WAYPOINT_COUNT, RrtParams, flatten_obstacles, point_free

DEFAULT_EXTENT = (1000.0, 1000.0, 250.0)
DEFAULT_COUNTS = (5, 5, 5)
DEFAULT_START = (0.0, 0.0, 0.0)
DEFAULT_GOAL = (750.0, 900.0, 80.0)
DEFAULT_SPEED = 5.0
DEFAULT_OBSTACLE_COUNT = 75
DEFAULT_HEIGHT_RANGE = (25.0, 240.0)
DEFAULT_FOOTPRINT_RANGE = (20.0, 60.0)
# The adjacency table, the static obstacle counts and every tick's occupancy
# report grow with the cell count (16 x 16 x 16 at most).
MAX_CELLS = 4096
# Inclusive (low, high) ranges of the numeric inputs, by key; None leaves an
# end open. `_scalar` checks each value it parses under one of these keys, and
# `_entries` each list length. The upper ends bound the inputs that size the
# planner's work and memory per cell (4 to 200 times their defaults), and those
# that size a run: the random fleet (20 times the CLI's 50 UAVs), the random
# buildings (13 times the 75 by default), the explicit lists (the same 1000
# entries each) and the ticks (4 times the default), each of which logs one
# report per airborne UAV.
BOUNDS = {
    "seed": (0, None),
    "stagger": (0, None),
    "loss_rate": (0.0, 1.0),
    "waypoints_per_cell": (3, 1000),
    "max_ticks": (1, 20_000),
    "rrt.max_iterations": (None, 20_000),
    "swarm.max_iterations": (None, 10_000),
    "random_uavs.count": (0, 1000),
    "random_uavs.min_cell_separation": (0, None),
    "random_obstacles.count": (0, 1000),
    "uavs": (None, 1000),
    "obstacles": (None, 1000),
    "injections": (None, 1000),
    "airspace.cells": (1, None),
    # Each axis, in metres. 100 km holds any city's low-altitude airspace, and
    # the planners square coordinate differences, which overflow near 1e154.
    "airspace.extent": (None, 100_000.0),
}

# Reference single-cell environment: 200x200x50 m box with three buildings.
CELL_EXTENT = (200.0, 200.0, 50.0)
CELL_OBSTACLES = (
    ((40.0, 50.0, 0.0), (50.0, 50.0, 100.0)),
    ((20.0, 120.0, 0.0), (30.0, 30.0, 100.0)),
    ((150.0, 125.0, 0.0), (30.0, 30.0, 100.0)),
)

# Parameter sections: each YAML key maps onto the same-named dataclass fields.
PARAM_SECTIONS = {"ssp": SspParams, "rrt": RrtParams, "cost": CostParams, "swarm": SwarmParams}
# Top-level scalars; their defaults and types are those of the Scenario fields.
SCALAR_KEYS = (
    "waypoints_per_cell", "seed", "mode", "max_ticks", "stagger", "loss_rate", "dt",
)


def _default_limits() -> dict[str, float]:
    """The scalar limits of ConstraintParams (its fields with a plain default)."""
    return {f.name: f.default for f in fields(ConstraintParams) if f.default is not MISSING}


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


class Mode(Enum):
    SSP = "SSP"
    NO_SLIDING_WINDOW = "NoSlidingWindow"
    NO_ATTRACTION = "NoAttraction"
    RRT_ONLY = "RrtOnly"
    BIRRT_ONLY = "BirrtOnly"


def parse_mode(name: str, key: str = "mode") -> Mode:
    """The Mode called `name`, or a ValidationError naming the key."""
    try:
        return Mode(name)
    except ValueError:
        choices = " | ".join(m.value for m in Mode)
        raise ValidationError(f"{key}: unknown mode {name!r}, expected {choices}") from None


@dataclass(frozen=True)
class UavSpec:
    id: str
    start: Point3
    goal: Point3
    speed: float = DEFAULT_SPEED


@dataclass
class Scenario:
    extent: tuple[float, float, float] = DEFAULT_EXTENT
    counts: tuple[int, int, int] = DEFAULT_COUNTS
    obstacles: list[CuboidObstacle] = field(default_factory=list)
    uavs: list[UavSpec] = field(default_factory=list)
    injections: list[tuple[int, CuboidObstacle]] = field(default_factory=list)
    ssp: SspParams = field(default_factory=SspParams)
    rrt: RrtParams = field(default_factory=RrtParams)
    cost: CostParams = field(default_factory=CostParams)
    swarm: SwarmParams = field(default_factory=SwarmParams)
    constraint_limits: dict[str, float] = field(default_factory=_default_limits)
    waypoints_per_cell: int = DEFAULT_WAYPOINT_COUNT
    seed: int = 0
    mode: str = "SSP"
    max_ticks: int = 5000
    stagger: int = 0
    loss_rate: float = 0.0
    dt: float = 1.0


def _scalar(value, cast, name: str):
    """cast(value) within its BOUNDS range, with a ValidationError naming the
    key for a malformed or out-of-range value, a boolean or non-finite number
    where a number is expected, or a non-integral number where an int is
    expected."""
    if cast in (int, float) and isinstance(value, bool):
        raise ValidationError(f"{name}: expected {cast.__name__}, got {value!r}")
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: expected {cast.__name__}, got {value!r}") from exc
    if cast is int and isinstance(value, float) and out != value:
        raise ValidationError(f"{name}: expected int, got {value!r}")
    if cast is float and not math.isfinite(out):
        raise ValidationError(f"{name}: expected a finite number, got {value!r}")
    return _bounded(out, name)


def _bounded(value, name: str):
    """value, or a ValidationError naming the key if it lies outside its BOUNDS range."""
    low, high = BOUNDS.get(name, (None, None))
    if low is not None and value < low:
        raise ValidationError(f"{name}: at least {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{name}: at most {high}, got {value}")
    return value


def _positive(value, name: str) -> float:
    """The float value, or a ValidationError naming the key unless it is above 0."""
    out = _scalar(value, float, name)
    if not out > 0:
        raise ValidationError(f"{name} must be positive, got {out}")
    return out


def _range(value, high_max: float, name: str) -> tuple[float, float]:
    """[low, high] with 0 < low <= high <= high_max, or a ValidationError naming the key."""
    low, high = _floats(value, 2, name)
    if not 0 < low <= high <= high_max:
        raise ValidationError(f"{name} must satisfy 0 < low <= high <= {high_max}, got [{low}, {high}]")
    return low, high


def _floats(value, count: int, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValidationError(f"{name} must be a list of {count} numbers")
    return tuple(_scalar(v, float, name) for v in value)


def _parse_obstacle(cfg: dict, index: int, kind: ObstacleKind, where: str) -> CuboidObstacle:
    _reject_unknown(cfg, {"anchor", "lengths", "kind", "id"}, where)
    anchor = _floats(cfg.get("anchor"), 3, f"{where}.anchor")
    lengths = _floats(cfg.get("lengths"), 3, f"{where}.lengths")
    if "kind" in cfg:
        try:
            kind = ObstacleKind(cfg["kind"])
        except ValueError as exc:
            raise ValidationError(f"{where}.kind: {exc}") from exc
    try:
        return CuboidObstacle(
            anchor=Point3(*anchor),
            len_x=lengths[0],
            len_y=lengths[1],
            len_z=lengths[2],
            kind=kind,
            id=str(cfg.get("id", f"ob{index}")),
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _reject_unknown(cfg: dict, allowed: set[str], where: str) -> None:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} must be a mapping, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _entries(cfg: dict, key: str) -> list:
    """The list under key (empty when absent or null), bounded in length before
    any entry is parsed, or a ValidationError naming the key."""
    value = cfg.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a list")
    _bounded(len(value), key)
    return value


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a mapping")
    return value


def generate_obstacles(
    extent: tuple[float, float, float],
    count: int,
    height_range: tuple[float, float],
    footprint_range: tuple[float, float],
    keep_clear: list[Point3],
    rng: np.random.Generator,
) -> list[CuboidObstacle]:
    """Seeded uniform placement of grounded cuboids avoiding the given points."""
    out: list[CuboidObstacle] = []
    # One budget for the whole field. The default field, the golden cases and
    # the benchmark's scenarios place `count` buildings in at most count + 5.
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10 * count + 100:
            raise ValidationError("could not place random obstacles clear of UAV endpoints")
        sx = float(rng.uniform(*footprint_range))
        sy = float(rng.uniform(*footprint_range))
        h = float(min(rng.uniform(*height_range), extent[2]))
        x = float(rng.uniform(0.0, extent[0] - sx))
        y = float(rng.uniform(0.0, extent[1] - sy))
        ob = CuboidObstacle(
            anchor=Point3(x, y, 0.0), len_x=sx, len_y=sy, len_z=h, id=f"rob{len(out)}"
        )
        boxes = flatten_obstacles([ob], margin=5.0)
        if all(point_free(p, boxes) for p in keep_clear):
            out.append(ob)
    return out


def generate_uavs(
    grid: AirspaceGrid,
    count: int,
    min_cell_separation: int,
    speed: float,
    rng: np.random.Generator,
    taken_ids: set[str],
) -> list[UavSpec]:
    """Random collision-free start/goal pairs at least the given number of
    cells apart (L1 distance of cell coordinates), with the ids uav0, uav1,
    ... that are not in taken_ids."""
    ids = (f"uav{k}" for k in itertools.count() if f"uav{k}" not in taken_ids)
    boxes = flatten_obstacles(grid.obstacles, margin=1.0)
    out: list[UavSpec] = []
    # One budget of endpoint draws for the whole fleet. The default fleet, the
    # golden cases and the benchmark's scenarios draw at most 6 * count + 20.
    budget = 1000 * count + 10000
    draws = 0

    def free_point() -> Point3:
        nonlocal draws
        while True:
            draws += 1
            if draws > budget:
                raise ValidationError(
                    f"random_uavs: could not sample {count} collision-free start/goal pairs"
                    f" {min_cell_separation} cells apart within {budget} draws"
                )
            p = tuple(float(rng.uniform(0.0, grid.extent[i])) for i in range(3))
            if point_free(p, boxes):
                return Point3(*p)

    for _ in range(count):
        while True:
            start = free_point()
            goal = free_point()
            cs = grid.cell_coords(grid.locate(start))
            cg = grid.cell_coords(grid.locate(goal))
            if sum(abs(a - b) for a, b in zip(cs, cg)) >= min_cell_separation:
                out.append(UavSpec(id=next(ids), start=start, goal=goal, speed=speed))
                break
    return out


def load_scenario(
    source: str,
    seed_override: Optional[int] = None,
    mode_override: Optional[str] = None,
) -> Scenario:
    """Parse YAML text (or an empty string for all defaults) into a Scenario.

    Random-content blocks (random_obstacles, random_uavs) are materialized
    here from the scenario seed, so the returned Scenario is fully explicit.
    """
    try:
        cfg = yaml.safe_load(source) or {}
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("scenario must be a YAML mapping")

    _reject_unknown(
        cfg,
        {
            "airspace", "obstacles", "random_obstacles", "uavs", "random_uavs",
            "injections", "constraints", *PARAM_SECTIONS, *SCALAR_KEYS,
        },
        "scenario",
    )

    airspace = _section(cfg, "airspace")
    _reject_unknown(airspace, {"extent", "cells"}, "airspace")
    extent = _floats(airspace.get("extent", DEFAULT_EXTENT), 3, "airspace.extent")
    for e in extent:
        _positive(e, "airspace.extent")
    cells_raw = airspace.get("cells", DEFAULT_COUNTS)
    if not isinstance(cells_raw, (list, tuple)) or len(cells_raw) != 3:
        raise ValidationError("airspace.cells must be a list of three integers")
    counts = tuple(_scalar(c, int, "airspace.cells") for c in cells_raw)
    if math.prod(counts) > MAX_CELLS:
        raise ValidationError(f"airspace.cells: at most {MAX_CELLS} cells, got {math.prod(counts)}")

    overrides = {"seed": seed_override, "mode": mode_override}
    scalars = {}
    for f in fields(Scenario):
        if f.name in SCALAR_KEYS:
            value = overrides.get(f.name)
            raw = cfg.get(f.name, f.default) if value is None else value
            scalars[f.name] = _scalar(raw, type(f.default), f.name)
    parse_mode(scalars["mode"])
    _positive(scalars["dt"], "dt")
    seed = scalars["seed"]

    sections = {}
    for section, cls in PARAM_SECTIONS.items():
        raw = _section(cfg, section)
        _reject_unknown(raw, {f.name for f in fields(cls)}, section)
        values = {}
        for f in fields(cls):
            if f.name in raw:
                key = f"{section}.{f.name}"
                values[f.name] = _scalar(raw[f.name], type(f.default), key)
        try:
            sections[section] = cls(**values)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{section}: {exc}") from exc
    constraints_raw = _section(cfg, "constraints")
    limits = _default_limits()
    _reject_unknown(constraints_raw, set(limits), "constraints")
    for k, v in constraints_raw.items():
        limits[k] = _positive(v, f"constraints.{k}")

    # Explicit obstacles; the random block fills in the default field when
    # neither is given.
    obstacles = [
        _parse_obstacle(ob_cfg, i, ObstacleKind.STATIC, f"obstacles[{i}]")
        for i, ob_cfg in enumerate(_entries(cfg, "obstacles"))
    ]
    # Random obstacles are added to this grid's list once they are generated.
    grid = AirspaceGrid(extent=extent, counts=counts, obstacles=obstacles)

    # Explicit UAVs.
    uavs: list[UavSpec] = []
    ids: set[str] = set()
    for i, u in enumerate(_entries(cfg, "uavs")):
        _reject_unknown(u, {"id", "start", "goal", "speed"}, f"uavs[{i}]")
        start = Point3(*_floats(u.get("start"), 3, f"uavs[{i}].start"))
        goal = Point3(*_floats(u.get("goal"), 3, f"uavs[{i}].goal"))
        speed = _positive(u.get("speed", DEFAULT_SPEED), f"uavs[{i}].speed")
        if start == goal:
            raise ValidationError(f"uavs[{i}]: start equals goal [{start.x}, {start.y}, {start.z}]")
        uav_id = u.get("id", f"uav{i}")
        if isinstance(uav_id, bool) or not isinstance(uav_id, (str, int)) or uav_id == "":
            raise ValidationError(f"uavs[{i}].id: expected a non-empty string or an int, got {uav_id!r}")
        uav_id = str(uav_id)
        if uav_id in ids:
            raise ValidationError(f"uavs[{i}].id: {uav_id!r} is the id of an earlier UAV")
        ids.add(uav_id)
        uavs.append(UavSpec(id=uav_id, start=start, goal=goal, speed=speed))

    # Injections.
    injections: list[tuple[int, CuboidObstacle]] = []
    for i, inj in enumerate(_entries(cfg, "injections")):
        _reject_unknown(inj, {"tick", "obstacle"}, f"injections[{i}]")
        tick = _scalar(inj.get("tick", -1), int, f"injections[{i}].tick")
        if tick < 0:
            raise ValidationError(f"injections[{i}].tick must be >= 0")
        ob = _parse_obstacle(
            inj.get("obstacle", {}), i, ObstacleKind.SUDDEN, f"injections[{i}].obstacle"
        )
        if ob.kind is not ObstacleKind.SUDDEN:
            raise ValidationError(f"injections[{i}].obstacle.kind must be sudden")
        # The alert is tagged with the cell holding the centre.
        try:
            grid.locate(ob.center)
        except OutOfAirspace as exc:
            raise ValidationError(f"injections[{i}].obstacle: centre outside the airspace: {exc}") from exc
        injections.append((tick, ob))

    want_random_obstacles = "random_obstacles" in cfg or (
        "obstacles" not in cfg and "random_obstacles" not in cfg
    )
    rob = _section(cfg, "random_obstacles")
    _reject_unknown(rob, {"count", "height_range", "footprint_range"}, "random_obstacles")

    want_random_uavs = "random_uavs" in cfg
    ruav = _section(cfg, "random_uavs")
    _reject_unknown(ruav, {"count", "min_cell_separation", "speed"}, "random_uavs")

    # Every value of the random blocks is checked before anything is generated.
    if want_random_obstacles:
        n_obstacles = _scalar(rob.get("count", DEFAULT_OBSTACLE_COUNT), int, "random_obstacles.count")
        # Heights are cut at the airspace top; a footprint must fit the extent.
        hr = _range(rob.get("height_range", DEFAULT_HEIGHT_RANGE), math.inf, "random_obstacles.height_range")
        fr = _range(
            rob.get("footprint_range", DEFAULT_FOOTPRINT_RANGE), min(extent[:2]),
            "random_obstacles.footprint_range",
        )
    if want_random_uavs:
        n_uavs = _scalar(ruav.get("count", 1), int, "random_uavs.count")
        sep = _scalar(ruav.get("min_cell_separation", 0), int, "random_uavs.min_cell_separation")
        # The largest cell distance (L1 of cell coordinates) in the grid.
        max_sep = sum(c - 1 for c in counts)
        if sep > max_sep:
            raise ValidationError(
                f"random_uavs.min_cell_separation: at most {max_sep} in this grid, got {sep}"
            )
        speed = _positive(ruav.get("speed", DEFAULT_SPEED), "random_uavs.speed")

    if not uavs and not want_random_uavs:
        uavs = [UavSpec(id="uav0", start=Point3(*DEFAULT_START), goal=Point3(*DEFAULT_GOAL))]

    if want_random_obstacles:
        keep_clear = [p for u in uavs for p in (u.start, u.goal)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0B5)))
        obstacles.extend(generate_obstacles(extent, n_obstacles, hr, fr, keep_clear, rng))

    if want_random_uavs:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0A7)))
        uavs = uavs + generate_uavs(grid, n_uavs, sep, speed, rng, ids)

    # Endpoint validation: inside the extent and collision-free.
    boxes = flatten_obstacles(obstacles)
    for u in uavs:
        for name, p in (("start", u.start), ("goal", u.goal)):
            try:
                grid.locate(p)
            except OutOfAirspace as exc:
                raise ValidationError(f"uav {u.id} {name}: {exc}") from exc
            if not point_free(p, boxes):
                raise ValidationError(f"uav {u.id} {name} lies inside an obstacle")

    scenario = Scenario(
        extent=extent,
        counts=counts,
        obstacles=obstacles,
        uavs=uavs,
        injections=injections,
        constraint_limits=limits,
        **sections,
        **scalars,
    )
    return scenario


def load_scenario_file(
    path: str, seed_override: Optional[int] = None, mode_override: Optional[str] = None
) -> Scenario:
    """`load_scenario` of a UTF-8 file; a file that cannot be read is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    return load_scenario(text, seed_override, mode_override)


def single_cell_scenario(
    seed: int = 0,
    start: tuple[float, float, float] = (10.0, 90.0, 10.0),
    goal: tuple[float, float, float] = (190.0, 130.0, 10.0),
) -> Scenario:
    """Reference single sub-airspace environment with its three buildings.

    The default start/goal pair has a building directly on the straight line.
    """
    obstacles = [
        CuboidObstacle(anchor=Point3(*a), len_x=l[0], len_y=l[1], len_z=l[2], id=f"ob{i+1}")
        for i, (a, l) in enumerate(CELL_OBSTACLES)
    ]
    return Scenario(
        extent=CELL_EXTENT,
        counts=(1, 1, 1),
        obstacles=obstacles,
        uavs=[UavSpec(id="uav0", start=Point3(*start), goal=Point3(*goal))],
        seed=seed,
    )
