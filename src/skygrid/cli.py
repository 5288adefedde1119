"""Command-line surface.

Subcommands:
  plan-sub     plan one trajectory in the reference single sub-airspace
  plan         fly one UAV through the full airspace
  simulate     multi-UAV simulation
  compare      paired-mode runs over a seed range
  replan-demo  sudden-obstacle repair demonstration

Exit codes: 0 success, 1 planning failure, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .geometry import CuboidObstacle, ObstacleKind, Point3
from .output import WAYPOINTS_HEADER, emit_comparison, emit_results, write_table
from .replan import detect_conflicts
from .sampling import PlanningFailed
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    load_scenario,
    load_scenario_file,
    parse_mode,
    single_cell_scenario,
)
from .sim import ExecutedPath, Mode, SimMetrics, UavPhase, World

DEFAULT_MULTI_UAV_CONFIG = "random_uavs: {count: 50, min_cell_separation: 5}\n"
# As many as an explicit list of a scenario file may hold.
MAX_SEEDS = 1000


def _load(args, default_text: str = "") -> Scenario:
    if args.scenario:
        return load_scenario_file(args.scenario, args.seed, args.mode)
    return load_scenario(default_text, args.seed, args.mode)


def _unfinished(world: World) -> list[str]:
    """One line each for the UAVs still flying at `max_ticks` and for those
    that never took off; none when every UAV arrived or failed."""
    lines = []
    for phase, what in ((UavPhase.FLYING, "still flying"), (UavPhase.PLANNING, "not launched")):
        ids = [uav.id for uav in world.uavs if uav.phase is phase]
        if ids:
            lines.append(f"{what} after {world.tick} ticks: {', '.join(ids)}")
    return lines


def _run_and_emit(scenario: Scenario, args) -> int:
    world = World(scenario, Mode(scenario.mode))
    metrics = world.run()
    emit_results(metrics, args.out, args.format, bus_log=world.bus.log)
    unfinished = _unfinished(world)
    if metrics.failed:
        print(f"planning failed for: {', '.join(metrics.failed)}", file=sys.stderr)
    for line in unfinished:
        print(line, file=sys.stderr)
    if metrics.failed or unfinished:
        return 1
    print(f"done: {len(metrics.arrived)}/{len(scenario.uavs)} arrived in {metrics.ticks} ticks")
    return 0


def cmd_plan_sub(args) -> int:
    if args.scenario:
        scenario = _load(args)
    else:
        scenario = single_cell_scenario(seed=args.seed or 0)
        if args.mode:
            scenario.mode = parse_mode(args.mode, "--mode").value
    return _run_and_emit(scenario, args)


def cmd_plan(args) -> int:
    return _run_and_emit(_load(args), args)


def cmd_simulate(args) -> int:
    return _run_and_emit(_load(args, DEFAULT_MULTI_UAV_CONFIG), args)


def _parse_seed_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = (int(s) for s in text.split("..", 1))
            if hi - lo + 1 > MAX_SEEDS:
                raise ValidationError(f"--seeds: at most {MAX_SEEDS} seeds, got {hi - lo + 1}")
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        seeds = []
    if not seeds:
        raise ValidationError(f"--seeds: expected 'a..b' with a <= b or a comma list of integers, got {text!r}")
    if len(seeds) > MAX_SEEDS:
        raise ValidationError(f"--seeds: at most {MAX_SEEDS} seeds, got {len(seeds)}")
    return seeds


def cmd_compare(args) -> int:
    modes = [parse_mode(m, "--mode") for m in args.mode.split(",")] if args.mode else [
        Mode.SSP, Mode.NO_SLIDING_WINDOW
    ]
    seeds = _parse_seed_range(args.seeds)
    rows = []
    any_failed = False
    for seed in seeds:
        for mode in modes:
            if args.scenario:
                scenario = load_scenario_file(args.scenario, seed, mode.value)
            else:
                scenario = load_scenario(DEFAULT_MULTI_UAV_CONFIG, seed, mode.value)
            world = World(scenario, mode)
            metrics = world.run()
            unfinished = _unfinished(world)
            for line in unfinished:
                print(f"seed {seed} {mode.value}: {line}", file=sys.stderr)
            any_failed = any_failed or bool(metrics.failed) or bool(unfinished)
            rows.append(
                {
                    "seed": seed,
                    "mode": mode.value,
                    "total_length_m": float(sum(metrics.per_uav_length.values())),
                    "max_occupancy": int(metrics.max_occupancy.max(initial=0)),
                    "arrived": len(metrics.arrived),
                    "failed": len(metrics.failed),
                }
            )
    emit_comparison(rows, args.out, args.format)
    print(f"compared {len(modes)} mode(s) over {len(seeds)} seed(s)")
    return 1 if any_failed else 0


def cmd_replan_demo(args) -> int:
    scenario = single_cell_scenario(seed=args.seed or 0)
    world = World(scenario, Mode.SSP)
    uav = world.uavs[0]
    world.step(scenario.dt)
    if not uav.route:
        print("initial planning failed", file=sys.stderr)
        return 1
    committed = np.array(uav.route)
    x, y, z = uav.route[5]
    side = 10.0
    ob = CuboidObstacle(
        anchor=Point3(x - side / 2, y - side / 2, max(0.0, z - side / 2)),
        len_x=side,
        len_y=side,
        len_z=side,
        kind=ObstacleKind.SUDDEN,
        id="demo-sudden",
    )
    conflicts = detect_conflicts(uav.route, ob)
    world.inject_sudden_obstacle(ob, world.tick)
    failed = [e for e in world.metrics.events if e["kind"] == "repair_failed"]
    if failed:
        print(f"repair failed: {failed[0]['reason']}", file=sys.stderr)
        return 1
    repaired = uav.route
    metrics = SimMetrics(n_cells=1)
    metrics.convergence = world.metrics.convergence
    metrics.executed = [ExecutedPath("committed", 1, committed)]
    emit_results(metrics, args.out, args.format)
    write_table(
        f"{args.out}/waypoints_repaired",
        WAYPOINTS_HEADER,
        [["repaired", i, x, y, z, 1] for i, (x, y, z) in enumerate(repaired)],
        args.format,
    )
    print(
        f"conflicts at waypoints {sorted(conflicts)}; repaired path has "
        f"{len(repaired)} waypoints"
    )
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skygrid",
        description="Grid-divided low-altitude airspace trajectory planning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_scenario=True):
        if with_scenario:
            p.add_argument("--scenario", help="scenario YAML file")
            p.add_argument(
                "--mode",
                default=None,
                help="SSP | NoSlidingWindow | NoAttraction | RrtOnly | BirrtOnly",
            )
        p.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="csv", choices=("csv", "jsonl"))

    p = sub.add_parser("plan-sub", help="plan inside the reference sub-airspace")
    common(p)
    p.set_defaults(func=cmd_plan_sub)

    p = sub.add_parser("plan", help="one UAV through the full airspace")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="multi-UAV simulation")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired-mode runs over a seed range")
    common(p)
    p.add_argument("--seeds", default="1..5", help="seed range 'a..b' or comma list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replan-demo", help="sudden-obstacle repair demonstration")
    common(p, with_scenario=False)
    p.set_defaults(func=cmd_replan_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PlanningFailed as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Inputs are validated at load, so this is the planner's own failure.
        print(f"planning error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
