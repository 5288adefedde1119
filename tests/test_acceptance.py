"""Acceptance suite: one test per release criterion.

Heavy simulation work is shared through module-scoped fixtures so each
experiment runs once; the per-criterion tests then assert on the recorded
results. Collision-freedom and constraint satisfaction are verified with
independent oracles (dense sampling, direct angle/length recomputation,
exhaustive path search), never with the planner's own feasibility code.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from conftest import (
    DegenerateSegment,
    SegmentDelta,
    dense_sample_penetrates,
    exhaustive_min_cost,
    make_sudden,
    pitch_angle,
    separation_minima,
    turn_angle,
)
from skygrid.adsb import AdsbMessage, OccupancyReport, PositionReport
from skygrid.cli import main as cli_main
from skygrid.coarse import node_costs, plan_coarse, SspParams
from skygrid.grid import AirspaceGrid
from skygrid.pso import ConstraintParams, CostParams, SwarmParams, build_seed_population, optimize, penalized_cost
from skygrid.replan import detect_conflicts
from skygrid.sampling import RrtParams, Waypath
from skygrid.scenario import load_scenario, single_cell_scenario
from skygrid.sim import Mode, World

MULTI_UAV = "random_uavs: {count: 50, min_cell_separation: 5}\n"
CORRIDOR = (
    "obstacles: []\n"
    "uavs:\n"
    "  - {start: [10, 100, 25], goal: [990, 100, 25]}\n"
)


# -- independent constraint oracle -------------------------------------------


def constraint_violations(waypoints, lo, hi, l_max=40.0, L_max=400.0, ta_max=60.0, pa_max=45.0):
    """Re-derive the seven trajectory constraints from raw geometry."""
    problems = []
    deltas = [
        SegmentDelta(*(b - a)) for a, b in zip(waypoints[:-1], waypoints[1:])
    ]
    lengths = [math.sqrt(d.qx**2 + d.qy**2 + d.qz**2) for d in deltas]
    for i, l in enumerate(lengths):
        if l > l_max + 1e-9:
            problems.append(f"segment {i} length {l:.2f} > {l_max}")
    if sum(lengths) > L_max + 1e-9:
        problems.append(f"total length {sum(lengths):.2f} > {L_max}")
    for i, (a, b) in enumerate(zip(deltas[:-1], deltas[1:])):
        try:
            if turn_angle(a, b) > ta_max + 1e-9:
                problems.append(f"turn at junction {i + 1} exceeds {ta_max}")
        except DegenerateSegment:
            problems.append(f"vertical heading at junction {i + 1}")
    for i, d in enumerate(deltas):
        try:
            if abs(pitch_angle(d)) > pa_max + 1e-9:
                problems.append(f"pitch of segment {i} exceeds {pa_max}")
        except DegenerateSegment:
            problems.append(f"zero-length segment {i}")
    for i, p in enumerate(waypoints[1:-1], start=1):
        if np.any(p < lo - 1e-9) or np.any(p > hi + 1e-9):
            problems.append(f"interior waypoint {i} outside sub-airspace box")
    return problems


def direction_changes(grid, cells):
    """Number of heading changes in a coarse cell sequence."""
    coords = [grid.cell_coords(c) for c in cells]
    moves = [tuple(b[i] - a[i] for i in range(3)) for a, b in zip(coords, coords[1:])]
    return sum(1 for a, b in zip(moves, moves[1:]) if a != b)


# -- shared experiment fixtures ----------------------------------------------


@pytest.fixture(scope="module")
def reference_cell_runs():
    """Criterion 1 workload: 20 seeded fine-planning runs in the reference
    sub-airspace, keeping per-seed costs, results, and timings."""
    sc = single_cell_scenario()
    obstacles = list(sc.obstacles)
    bounds = (np.zeros(3), np.array(sc.extent))
    constraints = ConstraintParams(bounds_lo=bounds[0], bounds_hi=bounds[1])
    cp, sp, rp = CostParams(), SwarmParams(), RrtParams()
    start, goal = sc.uavs[0].start, sc.uavs[0].goal
    runs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        seeds = build_seed_population(bounds, obstacles, start, goal, rng, rp, sp, 10)
        seed_costs = [penalized_cost(Waypath(s), obstacles, cp, constraints) for s in seeds]
        best, history = optimize(seeds, obstacles, cp, constraints, sp, rng)
        final = penalized_cost(Waypath(best), obstacles, cp, constraints)
        runs.append(
            {
                "elapsed": time.perf_counter() - t0,
                "n_seeds": len(seeds),
                "seed_costs": seed_costs,
                "final": final,
                "best": best,
                "history": history,
                "bounds": bounds,
            }
        )
    return {"runs": runs, "obstacles": obstacles}


@pytest.fixture(scope="module")
def occupancy_comparison():
    """Criterion 5 workload: 5 scenario sets x 50 UAVs, paired SSP vs
    NoSlidingWindow runs."""
    t0 = time.perf_counter()
    sets = []
    for seed in (1, 2, 3, 4, 5):
        pair = {}
        for mode in (Mode.SSP, Mode.NO_SLIDING_WINDOW):
            sc = load_scenario(MULTI_UAV, seed_override=seed, mode_override=mode.value)
            world = World(sc, mode)
            metrics = world.run()
            pair[mode] = {
                "metrics": metrics,
                "obstacles": list(sc.obstacles),
                "grid": world.grid,
                "n_uavs": len(sc.uavs),
                # The separation oracle's input: every position report of the run.
                "log": world.bus.log,
                "speeds": {u.id: u.speed for u in sc.uavs},
                "dt": sc.dt,
            }
        sets.append(pair)
    return {"sets": sets, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def attraction_comparison():
    """Criterion 6 workload: paired SSP vs NoAttraction runs, plus the
    straight-corridor control where attraction has nothing to pull toward."""
    turning = []
    for seed in range(1, 21):
        pair = {"seed": seed}
        for mode in (Mode.SSP, Mode.NO_ATTRACTION):
            sc = load_scenario("", seed_override=seed, mode_override=mode.value)
            world = World(sc, mode)
            metrics = world.run()
            pair[mode] = {
                "metrics": metrics,
                "obstacles": list(sc.obstacles),
                "grid": world.grid,
                "cells": [ex.cell for ex in metrics.executed],
            }
        turning.append(pair)

    corridor = []
    for seed in range(1, 21):
        pair = {"seed": seed}
        for mode in (Mode.SSP, Mode.NO_ATTRACTION):
            sc = load_scenario(CORRIDOR, seed_override=seed, mode_override=mode.value)
            world = World(sc, mode)
            metrics = world.run()
            pair[mode] = {
                "metrics": metrics,
                "obstacles": list(sc.obstacles),
                "grid": world.grid,
                "cells": [ex.cell for ex in metrics.executed],
            }
        corridor.append(pair)
    return {"turning": turning, "corridor": corridor}


@pytest.fixture(scope="module")
def repair_experiment():
    """Criterion 7 workload: commit a path, drop a sudden obstacle exactly on
    waypoint 5, repair, and fly the run to completion."""
    sc = single_cell_scenario(seed=1)
    world = World(sc, Mode.SSP)
    world.step()  # commit the initial plan and start flying
    uav = world.uavs[0]
    committed = uav.active_waypath.waypoints
    assert uav.next_waypoint_index <= 4  # waypoint 5 still ahead
    ob = make_sudden(committed[5])
    conflicts = detect_conflicts(committed, ob)
    world.inject_sudden_obstacle(ob, world.tick)
    repaired = uav.active_waypath.waypoints
    metrics = world.run()
    return {
        "committed": committed,
        "repaired": repaired,
        "conflicts": conflicts,
        "obstacle": ob,
        "metrics": metrics,
        "events": [e["kind"] for e in metrics.events],
        "obstacles": list(sc.obstacles),
    }


def accepted_paths(run_info):
    """(waypoints, cell-obstacles) pairs for every trajectory a run accepted."""
    metrics = run_info["metrics"]
    grid = run_info["grid"]
    out = []
    for ex in metrics.executed:
        cell_obs = grid.obstacles_in_cell(ex.cell)
        out.append((ex.waypoints, cell_obs, ex.cell, grid))
    return out


# -- criteria ----------------------------------------------------------------


def test_criterion_1_swarm_beats_every_seed_trajectory(reference_cell_runs):
    runs = reference_cell_runs["runs"]
    sp = SwarmParams()
    assert sp.n_rrt >= 1 and sp.n_birrt >= 1  # the paper's PSO-RRT seeds with both planners
    # Every sampled plan plus the straight line: no seed failed.
    assert all(r["n_seeds"] == sp.n_rrt + sp.n_birrt + 1 for r in runs)
    not_worse = sum(r["final"] <= min(r["seed_costs"]) + 1e-9 for r in runs)
    strictly = sum(r["final"] < min(r["seed_costs"]) - 1e-9 for r in runs)
    slowest = max(r["elapsed"] for r in runs)
    assert not_worse == 20, f"optimizer beaten by a seed in {20 - not_worse} runs"
    assert strictly >= 15, f"strict improvement in only {strictly}/20 runs"
    assert slowest < 5.0, f"slowest run took {slowest:.2f} s"


def test_criterion_2_convergence_histories_non_increasing(
    reference_cell_runs, occupancy_comparison, attraction_comparison
):
    histories = [r["history"] for r in reference_cell_runs["runs"]]
    for pair in occupancy_comparison["sets"]:
        for info in pair.values():
            histories.extend(h for _, h in info["metrics"].convergence)
    for pair in attraction_comparison["turning"] + attraction_comparison["corridor"]:
        for key in (Mode.SSP, Mode.NO_ATTRACTION):
            histories.extend(h for _, h in pair[key]["metrics"].convergence)
    assert histories
    for h in histories:
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_criterion_3_no_penetrations_anywhere(
    reference_cell_runs, occupancy_comparison, attraction_comparison, repair_experiment
):
    checked = 0
    for r in reference_cell_runs["runs"]:
        assert not dense_sample_penetrates(
            r["best"], reference_cell_runs["obstacles"]
        )
        checked += 1
    for pair in occupancy_comparison["sets"]:
        for info in pair.values():
            for wp, cell_obs, _, _ in accepted_paths(info):
                assert not dense_sample_penetrates(wp, cell_obs)
                checked += 1
    for pair in attraction_comparison["turning"] + attraction_comparison["corridor"]:
        for key in (Mode.SSP, Mode.NO_ATTRACTION):
            for wp, cell_obs, _, _ in accepted_paths(pair[key]):
                assert not dense_sample_penetrates(wp, cell_obs)
                checked += 1
    rep = repair_experiment
    assert not dense_sample_penetrates(
        rep["repaired"], rep["obstacles"] + [rep["obstacle"]]
    )
    checked += 1
    assert checked > 1000  # the oracle really covered the experiment corpus


def test_criterion_4_accepted_waypaths_satisfy_all_constraints(
    reference_cell_runs, occupancy_comparison, attraction_comparison
):
    lo = np.zeros(3)
    hi = np.array([200.0, 200.0, 50.0])
    for r in reference_cell_runs["runs"]:
        assert constraint_violations(r["best"], lo, hi) == []
    run_infos = [
        info for pair in occupancy_comparison["sets"] for info in pair.values()
    ] + [
        pair[key]
        for pair in attraction_comparison["turning"] + attraction_comparison["corridor"]
        for key in (Mode.SSP, Mode.NO_ATTRACTION)
    ]
    for info in run_infos:
        for wp, _, cell, grid in accepted_paths(info):
            cell_lo, cell_hi = map(np.array, grid.cell_bounds(cell))
            problems = constraint_violations(wp, cell_lo, cell_hi)
            assert problems == [], f"cell {cell}: {problems}"


def test_criterion_5_sliding_window_reduces_peak_occupancy(occupancy_comparison):
    sets = occupancy_comparison["sets"]
    ssp_peaks = [int(p[Mode.SSP]["metrics"].max_occupancy.max()) for p in sets]
    base_peaks = [
        int(p[Mode.NO_SLIDING_WINDOW]["metrics"].max_occupancy.max()) for p in sets
    ]
    for pair in sets:
        for info in pair.values():
            assert not info["metrics"].failed
            assert len(info["metrics"].arrived) == info["n_uavs"]
    wins = sum(s <= b for s, b in zip(ssp_peaks, base_peaks))
    assert wins >= 4, f"SSP peak occupancy higher in {5 - wins}/5 sets"
    assert np.mean(ssp_peaks) < np.mean(base_peaks), (ssp_peaks, base_peaks)
    assert occupancy_comparison["elapsed"] < 600.0


# The separation below which two UAVs may touch. The sim flies points; a
# multirotor of the paper's class spans up to about 1.5 m rotor tip to rotor
# tip (a DJI Matrice 300 RTK: 895 mm diagonal wheelbase, 533 mm propellers),
# so two centres closer than 1.5 m cannot be called collision-free. It is a
# contact threshold, the literal reading of the claim; a separation standard
# for traffic would be larger.
CONTACT_SEPARATION_M = 1.5


@pytest.mark.xfail(
    strict=True,
    reason="the sim does not deconflict UAVs from each other; --runxfail prints the per-seed minima",
)
def test_ssp_runs_keep_uav_pairs_apart(occupancy_comparison):
    """The paper's multi-UAV "collision-free" claim, checked on the criterion 5
    SSP runs (seeds 1-5) by an oracle that reads only their ADS-B position
    reports: between any two ticks, no two UAVs come within the contact
    separation."""
    rows = []
    for seed, pair in zip((1, 2, 3, 4, 5), occupancy_comparison["sets"]):
        info = pair[Mode.SSP]
        rows.append((seed, *separation_minima(info["log"], info["speeds"], info["dt"])))
    table = "\n".join(f"seed {s}: sampled {a:.2f} m, lower bound {b:.2f} m" for s, a, b in rows)
    assert min(b for _, _, b in rows) >= CONTACT_SEPARATION_M, table


def test_separation_oracle_bounds_a_pass_between_ticks():
    """Two UAVs at 5 m/s on parallel lines 3 m apart pass each other between
    ticks 1 and 2: both ticks sample sqrt(34) m, and the bound
    (2 sqrt(34) - 10) / 2 lies below the true 3 m at mid-tick. A UAV that
    reports at one tick only counts for the sampled minimum alone."""
    log = [
        AdsbMessage("a", 1, PositionReport("a", 0.0, 0.0, 10.0)),
        AdsbMessage("b", 1, PositionReport("b", 5.0, 3.0, 10.0)),
        AdsbMessage("ground-station", 1, OccupancyReport((2,))),
        AdsbMessage("a", 2, PositionReport("a", 5.0, 0.0, 10.0)),
        AdsbMessage("b", 2, PositionReport("b", 0.0, 3.0, 10.0)),
        AdsbMessage("c", 2, PositionReport("c", 0.0, 40.0, 10.0)),
    ]
    sampled, bound = separation_minima(log, {"a": 5.0, "b": 5.0, "c": 50.0}, 1.0)
    assert sampled == pytest.approx(math.sqrt(34.0))
    assert bound == pytest.approx(math.sqrt(34.0) - 5.0)
    assert bound <= 3.0


def test_criterion_6_attraction_shortens_turning_routes_only(attraction_comparison):
    with_attr, without = [], []
    for pair in attraction_comparison["turning"]:
        grid = pair[Mode.SSP]["grid"]
        assert direction_changes(grid, pair[Mode.SSP]["cells"]) >= 2
        with_attr.append(sum(pair[Mode.SSP]["metrics"].per_uav_length.values()))
        without.append(sum(pair[Mode.NO_ATTRACTION]["metrics"].per_uav_length.values()))
    assert len(with_attr) >= 20
    assert np.mean(with_attr) < np.mean(without)

    corr_attr, corr_none = [], []
    for pair in attraction_comparison["corridor"]:
        grid = pair[Mode.SSP]["grid"]
        assert direction_changes(grid, pair[Mode.SSP]["cells"]) == 0
        corr_attr.append(sum(pair[Mode.SSP]["metrics"].per_uav_length.values()))
        corr_none.append(sum(pair[Mode.NO_ATTRACTION]["metrics"].per_uav_length.values()))
    mean_none = np.mean(corr_none)
    assert abs(np.mean(corr_attr) - mean_none) < 0.02 * mean_none


def test_criterion_7_repair_preserves_prefix_and_suffix(repair_experiment):
    committed = repair_experiment["committed"]
    repaired = repair_experiment["repaired"]
    ob = repair_experiment["obstacle"]
    assert repair_experiment["conflicts"] == {5}
    assert "repair" in repair_experiment["events"]
    assert np.array_equal(repaired[:5], committed[:5])
    tail = committed[6:]
    assert np.array_equal(repaired[-len(tail):], tail)
    assert not dense_sample_penetrates(
        repaired, repair_experiment["obstacles"] + [ob]
    )
    assert repair_experiment["metrics"].arrived == ["uav0"]


def test_criterion_8_coarse_planner_matches_exhaustive_search():
    grid = AirspaceGrid(extent=(3.0, 3.0, 3.0), counts=(3, 3, 3))
    params = SspParams()
    matches = 0
    rng = np.random.default_rng(2026)
    for _ in range(200):
        counts = rng.integers(0, 6, size=27)
        occupancy = rng.integers(0, 4, size=27)
        start, goal = (int(v) for v in rng.choice(27, size=2, replace=False) + 1)
        plan = plan_coarse(grid, node_costs(params, occupancy, counts), start, goal)

        def cost_of(c):
            return params.k1 * int(counts[c - 1]) + params.k2 * int(occupancy[c - 1])

        oracle = exhaustive_min_cost(grid, cost_of, start, goal)
        matches += math.isclose(plan.total_cost, oracle, rel_tol=0, abs_tol=1e-9)
    assert matches == 200, f"coarse planner off-oracle in {200 - matches}/200 grids"


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    corridor = tmp_path / "corridor.yaml"
    corridor.write_text(CORRIDOR)
    invocations = [
        ["plan-sub", "--seed", "1"],
        ["plan", "--seed", "2"],
        ["plan", "--scenario", str(corridor), "--seed", "3", "--format", "jsonl"],
        ["replan-demo", "--seed", "4"],
        ["compare", "--scenario", str(corridor), "--seeds", "1..2"],
    ]
    for i, argv in enumerate(invocations):
        out_a = str(tmp_path / f"a{i}")
        out_b = str(tmp_path / f"b{i}")
        assert cli_main(argv + ["--out", out_a]) == 0
        assert cli_main(argv + ["--out", out_b]) == 0
        files = sorted(os.listdir(out_a))
        assert files == sorted(os.listdir(out_b))
        for name in files:
            assert filecmp.cmp(
                os.path.join(out_a, name), os.path.join(out_b, name), shallow=False
            ), f"{argv[0]}: {name} differs between repeated runs"
