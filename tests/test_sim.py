import copy
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_float_triples, dense_sample_penetrates, make_sudden
from skygrid import sim
from skygrid.adsb import OccupancyReport, PositionReport, SuddenObstacleAlert
from skygrid import pso
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3
from skygrid.pso import feasibility_penalty
from skygrid.sampling import PlanningFailed, flatten_obstacles, segment_free
from skygrid.scenario import ValidationError, load_scenario, single_cell_scenario
from skygrid.sim import Mode, UavPhase, World, run_scenario
from test_golden import SUDDEN_LOSSY


def empty_single_cell(seed=0):
    sc = single_cell_scenario(seed=seed)
    sc.obstacles = []
    return sc


# -- stepping kinematics -----------------------------------------------------


def test_uav_advances_speed_dt_per_tick():
    sc = empty_single_cell()
    world = World(sc, Mode.SSP)
    world.step()
    uav = world.uavs[0]
    start = np.array(sc.uavs[0].start)
    assert uav.phase is UavPhase.FLYING
    assert np.linalg.norm(uav.position - start) == pytest.approx(5.0)


def test_step_rejects_non_positive_dt():
    world = World(empty_single_cell(), Mode.SSP)
    with pytest.raises(ValueError):
        world.step(0.0)
    with pytest.raises(ValueError):
        world.step(float("nan"))


def test_arrival_at_goal_is_fixpoint():
    sc = empty_single_cell()
    world = World(sc, Mode.SSP)
    metrics = world.run()
    assert metrics.arrived == ["uav0"]
    uav = world.uavs[0]
    assert np.allclose(uav.position, np.array(sc.uavs[0].goal))
    snapshot = uav.position.copy()
    world.step()
    assert np.array_equal(uav.position, snapshot)


def test_straight_path_in_empty_cell_is_exact_line():
    sc = empty_single_cell()
    metrics = run_scenario(sc, Mode.SSP)
    direct = np.linalg.norm(
        np.array(sc.uavs[0].goal) - np.array(sc.uavs[0].start)
    )
    assert metrics.per_uav_length["uav0"] == pytest.approx(direct, abs=1e-6)


def test_flown_length_matches_executed_waypaths():
    sc = single_cell_scenario(seed=2)
    metrics = run_scenario(sc, Mode.SSP)
    assert metrics.arrived == ["uav0"]
    planned = sum(
        np.linalg.norm(np.diff(ex.waypoints, axis=0), axis=1).sum() for ex in metrics.executed
    )
    assert metrics.per_uav_length["uav0"] == pytest.approx(planned, abs=1e-6)


# -- planning on cell entry --------------------------------------------------


def test_single_cell_run_emits_one_plan_and_convergence():
    sc = single_cell_scenario(seed=0)
    metrics = run_scenario(sc, Mode.SSP)
    assert metrics.arrived == ["uav0"]
    assert [e["kind"] for e in metrics.events if e["kind"] == "cell_entered"] == ["cell_entered"]
    assert len(metrics.convergence) >= 1
    for _, history in metrics.convergence:
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_executed_paths_feasible_and_collision_free():
    sc = load_scenario("", seed_override=2)
    world = World(sc, Mode.SSP)
    metrics = world.run()
    assert metrics.arrived == ["uav0"]
    for ex in metrics.executed:
        obstacles = world._cell_obstacles(ex.cell)
        boxes = flatten_obstacles(obstacles)
        assert all(segment_free(a, b, boxes) for a, b in zip(ex.waypoints[:-1], ex.waypoints[1:]))
        constraints = world._cell(ex.cell).constraints
        assert feasibility_penalty(ex.waypoints, constraints, obstacles) == 0.0


def test_full_airspace_cell_sequence_is_face_adjacent():
    sc = load_scenario("", seed_override=1)
    world = World(sc, Mode.SSP)
    metrics = world.run()
    cells = [ex.cell for ex in metrics.executed]
    for a, b in zip(cells, cells[1:]):
        assert b == a or b in world.grid.adjacency[a]
    assert world.grid.locate(sc.uavs[0].goal) == cells[-1]


def test_run_deterministic_per_seed():
    def run():
        m = run_scenario(load_scenario("", seed_override=4), Mode.SSP)
        return (
            m.per_uav_length["uav0"],
            [ex.waypoints.tobytes() for ex in m.executed],
        )

    assert run() == run()


# -- occupancy and ADS-B recording -------------------------------------------


def test_occupancy_metrics_single_uav():
    metrics = run_scenario(single_cell_scenario(seed=0), Mode.SSP)
    assert metrics.max_occupancy.max() == 1
    assert metrics.max_occupancy.sum() == 1  # only one cell exists


OPEN_SKY_FLEET = "obstacles: []\nrandom_uavs: {count: 6, min_cell_separation: 3}\nseed: 5\n"


def test_position_reports_every_tick():
    """Each tick logs one report per flying UAV, in UAV order and at its
    position, then one occupancy report from the ground station."""
    world = World(load_scenario(OPEN_SKY_FLEET), Mode.SSP)
    logged, most_flying = 0, 0
    while not world.done():
        world.step()
        *reports, occupancy = world.bus.log[logged:]
        logged = len(world.bus.log)
        flying = [u for u in world.uavs if u.phase is UavPhase.FLYING]
        most_flying = max(most_flying, len(flying))
        assert [type(m.payload) for m in reports] == [PositionReport] * len(flying)
        assert [(m.sender, m.tick, m.payload.uav_id, m.payload.x, m.payload.y, m.payload.z) for m in reports] == [
            (u.id, world.tick, u.id, *u.position.tolist()) for u in flying
        ]
        assert type(occupancy.payload) is OccupancyReport
        assert (occupancy.sender, occupancy.tick) == ("ground-station", world.tick)
    assert most_flying > 1 and all(u.phase is UavPhase.ARRIVED for u in world.uavs)


def test_a_non_finite_position_raises_before_it_is_published():
    world = World(single_cell_scenario(seed=0), Mode.SSP)
    world.step()
    uav = world.uavs[0]
    assert uav.phase is UavPhase.FLYING
    uav.xyz = (1.0, math.nan, 1.0)
    logged = len(world.bus.log)
    with pytest.raises(ValueError, match="non-finite position"):
        world._record_tick()
    assert len(world.bus.log) == logged
    # The tick's reports are all checked before any is published: a finite
    # report ahead of the non-finite one is not logged either.
    world = World(load_scenario(OPEN_SKY_FLEET), Mode.SSP)
    while sum(u.phase is UavPhase.FLYING for u in world.uavs) < 2:
        world.step()
    second = [u for u in world.uavs if u.phase is UavPhase.FLYING][1]
    second.xyz = (1.0, 1.0, math.inf)
    logged = len(world.bus.log)
    with pytest.raises(ValueError, match=f"{second.id}: non-finite position"):
        world._record_tick()
    assert len(world.bus.log) == logged


def test_position_is_a_fresh_array_of_the_stored_floats():
    world = World(single_cell_scenario(seed=0), Mode.SSP)
    world.step()
    uav = world.uavs[0]
    assert all(type(v) is float for v in uav.xyz)
    p = uav.position
    assert p.shape == (3,) and p.dtype == np.float64 and p.tolist() == list(uav.xyz)
    assert uav.position is not p
    p[0] += 1.0  # an edit in place is lost
    assert uav.position[0] == uav.xyz[0] != p[0]
    assert "lost" in sim.UavState.position.__doc__
    # Read-only: `World._advance` is the one writer of `xyz`.
    with pytest.raises(AttributeError):
        uav.position = np.array([1.0, -0.0, 2.5])
    # What perfbench's oracle reads.
    uav.xyz = tuple(uav.goal)
    goal = np.array(uav.goal)
    assert np.array_equal(uav.position, goal) and uav.position.tolist() == goal.tolist()


def test_nothing_edits_a_position_in_place():
    # `position` is a fresh copy, so an in-place edit would be silently lost.
    in_place = re.compile(r"\.position\s*\[[^\]]*\]\s*[-+*/]?=(?!=)|out=[^,)]*\.position\b|\.position\.(fill|put|sort|resize)\(")
    root = Path(__file__).resolve().parents[1]
    hits = [
        f"{path.relative_to(root)}:{n}"
        for folder in ("src", "perfbench", "tests")
        for path in sorted((root / folder).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if in_place.search(line)
    ]
    assert hits == []


def _fleet_run(loss_rate):
    world = World(load_scenario(OPEN_SKY_FLEET + f"loss_rate: {loss_rate}\n"), Mode.SSP)
    return world, world.run()


def _counts_by_tick(world):
    """(broadcast, ground-station view) per tick, recounted from the bus log."""
    broadcast, station = {}, {}
    for m in world.bus.log:
        if isinstance(m.payload, PositionReport):
            counts = broadcast.setdefault(m.tick, np.zeros(world.grid.n_cells, dtype=int))
            counts[world.grid.locate(Point3(m.payload.x, m.payload.y, m.payload.z)) - 1] += 1
        elif isinstance(m.payload, OccupancyReport):
            station[m.tick] = np.array(m.payload.counts)
    zero = np.zeros(world.grid.n_cells, dtype=int)
    return [(broadcast.get(t, zero), station[t]) for t in sorted(station)]


def test_lossless_ground_station_sees_every_report():
    world, metrics = _fleet_run(0.0)
    ticks = _counts_by_tick(world)
    assert all(np.array_equal(sent, seen) for sent, seen in ticks)
    peak = np.max([seen for _, seen in ticks], axis=0)
    assert np.array_equal(metrics.max_occupancy, peak)
    assert peak.max() >= 1
    assert world.occupancy == world.bus.log[-1].payload.counts


def test_lost_reports_leave_the_occupancy_view():
    world, _ = _fleet_run(0.5)
    ticks = _counts_by_tick(world)
    assert all((seen <= sent).all() for sent, seen in ticks)
    assert sum(seen.sum() for _, seen in ticks) < sum(sent.sum() for sent, _ in ticks)


def test_total_loss_zeroes_max_occupancy():
    world, metrics = _fleet_run(1.0)
    assert not metrics.max_occupancy.any()
    assert any(isinstance(m.payload, PositionReport) for m in world.bus.log)
    assert len(metrics.arrived) == 6


# -- modes -------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(Mode))
def test_all_modes_complete_reference_run(mode):
    sc = load_scenario("", seed_override=3, mode_override=mode.value)
    metrics = run_scenario(sc, mode)
    assert metrics.arrived == ["uav0"], f"{mode} failed: {metrics.events[-3:]}"


def test_mode_string_coercion_and_validation():
    metrics = run_scenario(empty_single_cell(), "SSP")
    assert metrics.arrived == ["uav0"]
    with pytest.raises(ValidationError):
        run_scenario(empty_single_cell(), "NoSuchMode")
    with pytest.raises(ValidationError):
        World("not a scenario", Mode.SSP)
    # Without a mode argument the scenario's own mode runs: RrtOnly optimizes nothing.
    rrt_only = single_cell_scenario(seed=0)
    rrt_only.mode = "RrtOnly"
    assert run_scenario(rrt_only).convergence == []


@pytest.mark.parametrize("mode", ["RrtOnly", "BirrtOnly"])
def test_ablations_never_fly_through_a_building(mode):
    """The reference cell at 3 waypoints, where most smoothed paths keep 4 or
    more vertices: a run either arrives on a clear path or fails the cell."""
    base = single_cell_scenario()
    base.waypoints_per_cell = 3
    base.mode = mode
    for seed in range(30):
        sc = dataclasses.replace(base, seed=seed)
        metrics = run_scenario(sc, mode)
        for path in metrics.executed:
            assert not dense_sample_penetrates(path.waypoints, sc.obstacles), seed
        failed = any(e["kind"] == "fine_plan_failed" for e in metrics.events)
        assert (metrics.arrived == ["uav0"]) != failed, seed


def test_no_sliding_window_plans_once():
    sc = load_scenario("", seed_override=1, mode_override="NoSlidingWindow")
    world = World(sc, Mode.NO_SLIDING_WINDOW)
    world.run()
    # The coarse plan object must be the one computed at takeoff, never
    # replaced mid-flight (same cells flown as planned).
    flown = [ex.cell for ex in world.metrics.executed]
    assert flown == world.uavs[0].coarse_plan.cells[: len(flown)]


# -- sudden obstacles in flight ----------------------------------------------


def test_injected_obstacle_triggers_repair_and_arrival():
    sc = single_cell_scenario(seed=1)
    world = World(sc, Mode.SSP)
    # Let the UAV commit a path, then drop an obstacle on an upcoming waypoint.
    while world.tick < 3:
        world.step()
    uav = world.uavs[0]
    target = uav.active_waypath.waypoints[uav.next_waypoint_index + 2]
    ob = make_sudden(target)
    world.inject_sudden_obstacle(ob, world.tick)
    kinds = {e["kind"] for e in world.metrics.events}
    assert "sudden_obstacle" in kinds
    assert "repair" in kinds or "cell_replanned" in kinds
    metrics = world.run()
    assert metrics.arrived == ["uav0"]
    # Earlier entries per cell are superseded by the repair; only the last
    # plan of each cell is the one actually flown against the new obstacle.
    final = {ex.cell: ex for ex in metrics.executed}
    for ex in final.values():
        assert not dense_sample_penetrates(ex.waypoints, list(sc.obstacles) + [ob])


def test_only_the_route_ahead_triggers_a_repair():
    """A cube on the waypoint just passed is ignored; one on the target or
    the waypoint after it is repaired around."""
    sc = empty_single_cell(seed=1)
    world = World(sc, Mode.SSP)
    for _ in range(10):
        world.step()
    uav = world.uavs[0]
    nxt = uav.next_waypoint_index
    assert np.linalg.norm(uav.position - uav.active_waypath.waypoints[nxt - 1]) > 2.0
    for offset, repaired in ((-1, False), (0, True), (1, True)):
        trial = copy.deepcopy(world)
        route = trial.uavs[0].route
        trial.inject_sudden_obstacle(make_sudden(route[nxt + offset], side=2.0), trial.tick)
        assert any(e["kind"] == "repair" for e in trial.metrics.events) is repaired, offset
        assert (trial.uavs[0].route is route) is not repaired, offset


# Reference-cell runs (seed, ticks flown) in which a 4 m cube 3 m behind the
# UAV, and one 4 m ahead of it, both lie on the segment being flown.
PROBE_CASES = [(2, 3), (4, 3), (5, 9), (5, 12), (14, 6), (15, 12)]


def _flying(seed, ticks):
    """The reference cell's UAV after `ticks` ticks, with the unit direction
    of the segment it is flying."""
    world = World(single_cell_scenario(seed=seed), Mode.SSP)
    while world.tick < ticks:
        world.step()
    uav = world.uavs[0]
    assert uav.phase is UavPhase.FLYING
    wp, nxt = uav.active_waypath.waypoints, uav.next_waypoint_index
    d = wp[nxt] - wp[nxt - 1]
    return world, uav, d / np.linalg.norm(d)


def _route_ahead(uav):
    return np.vstack([uav.position, uav.active_waypath.waypoints[uav.next_waypoint_index:]])


@pytest.mark.parametrize("seed,ticks", PROBE_CASES)
def test_cube_just_behind_the_uav_is_ignored(seed, ticks):
    world, uav, u = _flying(seed, ticks)
    route, nxt = uav.route, uav.next_waypoint_index
    world.inject_sudden_obstacle(make_sudden(uav.position - 3.0 * u, side=4.0), world.tick)
    assert world.metrics.events[-1]["kind"] == "sudden_obstacle"
    assert uav.route is route and uav.next_waypoint_index == nxt


@pytest.mark.parametrize("seed,ticks", PROBE_CASES)
def test_repair_around_a_cube_just_ahead_flies_a_clear_leg(seed, ticks):
    """The leg from the position to the new target and the rest of the route
    miss the cube and the buildings (dense sampling, not the slab test)."""
    world, uav, u = _flying(seed, ticks)
    flown = uav.active_waypath.waypoints[: uav.next_waypoint_index].copy()
    ob = make_sudden(uav.position + 4.0 * u, side=4.0)
    world.inject_sudden_obstacle(ob, world.tick)
    assert world.metrics.events[-1]["kind"] == "repair"
    assert not dense_sample_penetrates(_route_ahead(uav), list(world.scenario.obstacles) + [ob])
    # The flown part of the route is kept as it was.
    assert np.array_equal(uav.active_waypath.waypoints[: len(flown)], flown)


def _position_on_route(uav):
    """The position lies on the leg the recorded route flies next."""
    wp, nxt = uav.active_waypath.waypoints, uav.next_waypoint_index
    a, b = wp[nxt - 1], wp[nxt]
    t = np.clip(np.dot(uav.position - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
    return np.linalg.norm(a + t * (b - a) - uav.position) < 1e-6


@pytest.fixture(scope="module")
def probe_worlds():
    return {case: _flying(*case)[0] for case in PROBE_CASES}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(PROBE_CASES),
    where=st.floats(0.0, 1.0),
    side=st.floats(1.0, 10.0),
)
def test_repair_keeps_the_route_ahead_clear_wherever_the_cube_lands(probe_worlds, case, where, side):
    """A cube anywhere on the cell's route: one clear of the route ahead
    changes nothing; otherwise the UAV flies on from its position along a
    recorded route that misses the cube and the buildings."""
    world = copy.deepcopy(probe_worlds[case])
    uav = world.uavs[0]
    route, nxt = uav.route, uav.next_waypoint_index
    wp = np.array(route)
    # The point at arc-length fraction `where` of the cell's route.
    lengths = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    s = where * lengths.sum()
    k = min(int(np.searchsorted(np.cumsum(lengths), s)), len(lengths) - 1)
    centre = wp[k] + (wp[k + 1] - wp[k]) * ((s - lengths[:k].sum()) / lengths[k])
    ob = make_sudden(centre, side=side)
    grown = make_sudden(centre, side=side + 1.0)
    assume(not dense_sample_penetrates([uav.position, uav.position], [grown]))
    ahead = _route_ahead(uav)
    world.inject_sudden_obstacle(ob, world.tick)
    if not dense_sample_penetrates(ahead, [grown]):
        assert uav.route is route and uav.next_waypoint_index == nxt
    if uav.phase is UavPhase.FLYING:
        assert _position_on_route(uav)
        assert not dense_sample_penetrates(_route_ahead(uav), list(world.scenario.obstacles) + [ob])
        assert np.array_equal(uav.active_waypath.waypoints[: nxt - 1], wp[: nxt - 1])


def test_repair_from_a_uav_stopped_on_a_vertex_records_no_zero_length_segment():
    """A UAV stopped exactly on a waypoint: the detour leaves from that
    waypoint, which the recorded route then holds once."""
    sc = empty_single_cell(seed=1)
    planned = World(sc, Mode.SSP)
    planned.step()
    wp = planned.uavs[0].active_waypath.waypoints
    # One tick whose step just reaches waypoint 1; the float residue is far
    # below the advance loop's 1e-9 m cut-off.
    world = World(sc, Mode.SSP)
    world.step(float(np.linalg.norm(wp[1] - wp[0])) / sc.uavs[0].speed * (1 + 1e-14))
    uav = world.uavs[0]
    assert np.array_equal(uav.position, wp[1]) and uav.next_waypoint_index == 2
    ob = make_sudden((wp[1] + wp[2]) / 2, side=6.0)
    world.inject_sudden_obstacle(ob, world.tick)
    assert world.metrics.events[-1]["kind"] == "repair"
    new = uav.active_waypath.waypoints
    assert np.array_equal(new[:2], wp[:2]) and uav.next_waypoint_index == 2
    assert np.all(np.linalg.norm(np.diff(new, axis=0), axis=1) > 0.0)
    assert np.array_equal(world.metrics.executed[-1].waypoints, new)
    assert not dense_sample_penetrates(_route_ahead(uav), [ob])


def test_an_escalated_replan_keeps_the_flown_part_of_the_cell(monkeypatch):
    """When the repair fails, the cell is re-planned from the position and the
    recorded route still starts with the waypoints already flown."""

    def fail(*args, **kwargs):
        raise PlanningFailed("no bracket")

    monkeypatch.setattr(sim, "repair", fail)
    world = World(empty_single_cell(seed=1), Mode.SSP)
    for _ in range(10):
        world.step()
    uav = world.uavs[0]
    wp, nxt = uav.active_waypath.waypoints, uav.next_waypoint_index
    assert not np.array_equal(uav.position, wp[nxt - 1])
    world.inject_sudden_obstacle(make_sudden(wp[nxt + 1], side=2.0), world.tick)
    assert [e["kind"] for e in world.metrics.events[-2:]] == ["repair_failed", "cell_replanned"]
    assert world.metrics.events[-2]["reason"] == "no bracket"
    new = uav.active_waypath.waypoints
    assert np.array_equal(new[:nxt], wp[:nxt])
    assert np.array_equal(new[nxt], uav.position) and uav.next_waypoint_index == nxt + 1
    metrics = world.run()
    assert metrics.arrived == ["uav0"]
    recorded = np.linalg.norm(np.diff(metrics.executed[-1].waypoints, axis=0), axis=1).sum()
    assert recorded == pytest.approx(metrics.per_uav_length["uav0"], abs=1e-6)


TWO_CELLS = """\
airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}
obstacles: []
uavs:
  - {start: [10, 100, 10], goal: [390, 100, 10]}
"""


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_sudden_obstacle_over_the_exit_point_redraws_it(seed):
    """A cube over the route's last point, the exit point, leaves the repair no
    bracket; the escalation re-plans to a fresh exit point and the UAV arrives."""
    world = World(load_scenario(TWO_CELLS, seed_override=seed), Mode.SSP)
    world.step()
    uav = world.uavs[0]
    exit_point = uav.route[-1]
    assert exit_point[0] == 200.0 and uav.current_cell != uav.goal_cell
    world.inject_sudden_obstacle(make_sudden(exit_point, side=10.0), world.tick)
    assert [e["kind"] for e in world.metrics.events[-2:]] == ["repair_failed", "cell_replanned"]
    assert world.metrics.events[-2]["reason"] == "no collision-free bracketing waypoints remain"
    new_exit = uav.route[-1]
    assert new_exit[0] == 200.0 and new_exit != exit_point
    assert world.run().arrived == ["uav0"]


def test_a_sudden_obstacle_over_the_goal_fails_the_uav():
    """The goal cannot be redrawn: a cube over it fails the UAV."""
    world = World(empty_single_cell(seed=1), Mode.SSP)
    world.step()
    uav = world.uavs[0]
    world.inject_sudden_obstacle(make_sudden(uav.route[-1], side=10.0), world.tick)
    assert [e["kind"] for e in world.metrics.events[-2:]] == ["repair_failed", "replan_failed"]
    assert uav.phase is UavPhase.FAILED


def test_a_replan_from_inside_the_cube_names_the_position_as_a_point():
    """The escalation hands the planner the position as a `Point3`, so the
    failure text names it in the `Point3(x=…, y=…, z=…)` form."""
    world = World(single_cell_scenario(seed=3), Mode.RRT_ONLY)
    world.step()
    uav = world.uavs[0]
    world.inject_sudden_obstacle(make_sudden(uav.xyz, side=10.0), world.tick)
    assert world.metrics.events[-1]["kind"] == "replan_failed"
    assert world.metrics.events[-1]["reason"] == f"start point {Point3(*uav.xyz)} lies inside an obstacle"
    assert world.metrics.events[-1]["reason"].startswith("start point Point3(x=")


def test_the_route_is_the_installed_path_after_every_tick():
    """The sudden-obstacle golden run: after every tick each UAV's route is
    the array last recorded for it, bit for bit, and `active_waypath` is
    that route in the UAV's current cell."""
    sc = load_scenario(SUDDEN_LOSSY, seed_override=3)
    world = World(sc, Mode(sc.mode))
    while not world.done() and world.tick < sc.max_ticks:
        world.step(sc.dt)
        last = {ex.uav_id: ex for ex in world.metrics.executed}
        for uav in world.uavs:
            if uav.id not in last:
                assert uav.route == () and uav.active_waypath is None
                continue
            recorded = last[uav.id]
            route = np.array(uav.route)
            assert route.shape == recorded.waypoints.shape
            assert route.tobytes() == recorded.waypoints.tobytes(), (world.tick, uav.id)
            view = uav.active_waypath
            assert view.waypoints.tobytes() == route.tobytes()
            assert view.sub_airspace == uav.current_cell == recorded.cell
    assert {"repair", "cell_entered"} <= {e["kind"] for e in world.metrics.events}


class TripleCheckingWorld(World):
    """A World that checks every route it installs: the waypoints handed to
    `_commit` and the stored route are float triples."""

    def __init__(self, *args):
        super().__init__(*args)
        self.commits = []

    def _commit(self, uav, waypoints, next_index, event):
        assert_float_triples(waypoints)
        super()._commit(uav, waypoints, next_index, event)
        assert type(uav.route) is tuple
        assert_float_triples(uav.route)
        self.commits.append(event)


def _cube_ahead(world):
    for _ in range(3):
        world.step()
    uav = world.uavs[0]
    d = np.subtract(uav.route[uav.next_waypoint_index], uav.route[uav.next_waypoint_index - 1])
    world.inject_sudden_obstacle(make_sudden(uav.position + 4.0 * d / np.linalg.norm(d), side=4.0), world.tick)


def _cube_over_the_exit_point(world):
    world.step()
    world.inject_sudden_obstacle(make_sudden(world.uavs[0].route[-1], side=10.0), world.tick)


# name -> (scenario, mode, what to do before the run, the commit it must see)
ROUTE_CASES = {
    "cell entry": (lambda: single_cell_scenario(seed=0), Mode.SSP, None, "cell_entered"),
    "straight line": (empty_single_cell, Mode.SSP, None, "cell_entered"),
    "RrtOnly": (lambda: single_cell_scenario(seed=0), Mode.RRT_ONLY, None, "cell_entered"),
    "BirrtOnly": (lambda: single_cell_scenario(seed=0), Mode.BIRRT_ONLY, None, "cell_entered"),
    "repair": (lambda: single_cell_scenario(seed=2), Mode.SSP, _cube_ahead, "repair"),
    "escalation": (
        lambda: load_scenario(TWO_CELLS, seed_override=1), Mode.SSP, _cube_over_the_exit_point, "cell_replanned",
    ),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_every_committed_route_is_float_triples(case):
    make, mode, before, event = ROUTE_CASES[case]
    world = TripleCheckingWorld(make(), mode)
    if before is not None:
        before(world)
    metrics = world.run()
    assert event in world.commits and metrics.arrived == ["uav0"]
    # The straight line skips the swarm; the reference cell's entry runs it.
    assert (metrics.convergence == []) == (case in ("straight line", "RrtOnly", "BirrtOnly"))


def test_obstacle_behind_uav_is_ignored():
    sc = empty_single_cell(seed=1)
    world = World(sc, Mode.SSP)
    for _ in range(10):
        world.step()
    uav = world.uavs[0]
    flown = uav.active_waypath.waypoints[max(0, uav.next_waypoint_index - 2)]
    before = uav.route
    world.inject_sudden_obstacle(make_sudden(flown, side=2.0), world.tick)
    assert uav.route is before  # no repair: conflict already flown


def test_injection_via_scenario_schedule():
    sc = single_cell_scenario(seed=3)
    world0 = World(sc, Mode.SSP)
    world0._enter_cell(world0.uavs[0], 1, sc.uavs[0].start)
    wp5 = world0.uavs[0].active_waypath.waypoints[5]
    text_ob = make_sudden(wp5)
    sc2 = single_cell_scenario(seed=3)
    sc2.injections = [(3, text_ob)]
    metrics = run_scenario(sc2, Mode.SSP)
    assert metrics.arrived == ["uav0"]
    assert any(e["kind"] == "sudden_obstacle" for e in metrics.events)


@pytest.mark.parametrize("anchor", [(195.0, 95.0, 45.0), (500.0, 95.0, 10.0)])
def test_injection_centred_outside_the_airspace_is_rejected_before_any_effect(anchor):
    """The alert is tagged with the cell of the centre: outside the airspace
    there is none, so nothing is published, logged or recorded."""
    sc = single_cell_scenario(seed=1)
    world = World(sc, Mode.SSP)
    while world.tick < 3:
        world.step()
    log, events = len(world.bus.log), len(world.metrics.events)
    route = world.uavs[0].route
    ob = CuboidObstacle(Point3(*anchor), 12.0, 12.0, 12.0, kind=ObstacleKind.SUDDEN)
    with pytest.raises(ValidationError, match="centre outside the airspace"):
        world.inject_sudden_obstacle(ob, world.tick)
    assert (len(world.bus.log), len(world.metrics.events)) == (log, events)
    assert world.injected == [] and world.uavs[0].route is route


def test_a_static_obstacle_is_rejected_before_anything_is_published():
    world = World(single_cell_scenario(seed=1), Mode.SSP)
    while world.tick < 3:
        world.step()
    log, events = len(world.bus.log), len(world.metrics.events)
    static = CuboidObstacle(Point3(90.0, 90.0, 0.0), 6.0, 6.0, 6.0)
    with pytest.raises(ValidationError, match="must be sudden"):
        world.inject_sudden_obstacle(static, world.tick)
    assert (len(world.bus.log), len(world.metrics.events)) == (log, events)
    assert world.injected == []


def test_the_world_broadcasts_the_alert_tagged_with_the_centre_cell():
    world = World(load_scenario(OPEN_SKY_FLEET), Mode.SSP)
    for _ in range(3):
        world.step()
    ob = make_sudden((610.0, 430.0, 120.0), side=4.0)
    world.inject_sudden_obstacle(ob, world.tick)
    msg = world.bus.log[-1]
    assert isinstance(msg.payload, SuddenObstacleAlert) and msg.payload.obstacle is ob
    assert (msg.sender, msg.tick) == ("ground-station", world.tick)
    [event] = [e for e in world.metrics.events if e["kind"] == "sudden_obstacle"]
    assert msg.payload.sub_airspace == world.grid.locate(ob.center) == event["cell"] != 1
    assert world.injected == [ob]


# -- planner failures --------------------------------------------------------


def test_no_feasible_seed_is_recorded_as_fine_plan_failure(monkeypatch):
    calls = []

    def optimize(*args, **kwargs):
        calls.append(1)
        raise PlanningFailed("no particle reached a finite penalized cost")

    monkeypatch.setattr(sim, "optimize", optimize)
    metrics = run_scenario(single_cell_scenario(seed=0), Mode.SSP)
    assert metrics.failed == ["uav0"]
    assert [e["kind"] for e in metrics.events] == ["fine_plan_failed"]
    assert metrics.events[0]["reason"].endswith("no particle reached a finite penalized cost")
    assert len(calls) == sim.FINE_PLAN_ATTEMPTS


def test_fine_plan_retries_after_no_feasible_seed(monkeypatch):
    real = sim.optimize
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise PlanningFailed("no particle reached a finite penalized cost")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "optimize", flaky)
    metrics = run_scenario(single_cell_scenario(seed=0), Mode.SSP)
    assert metrics.arrived == ["uav0"]
    assert len(calls) == 2


def test_fine_plan_fails_at_once_when_the_cell_is_too_long_for_its_waypoints(monkeypatch):
    """Reference cell entry to goal is 184.4 m; 5 waypoints span at most
    4 x 40 m, so no seed is planned and no RRT call is made."""
    calls = []
    monkeypatch.setattr(pso, "rrt_plan", lambda *args: calls.append(1))
    sc = single_cell_scenario(seed=0)
    sc.waypoints_per_cell = 5
    metrics = run_scenario(sc, Mode.SSP)
    assert metrics.failed == ["uav0"] and calls == []
    [event] = metrics.events
    assert event["kind"] == "fine_plan_failed"
    assert "184.391 m" in event["reason"] and "160.000 m" in event["reason"]


def test_fine_plan_length_check_leaves_the_ablations_alone(monkeypatch):
    calls = []
    real = sim.rrt_plan
    monkeypatch.setattr(sim, "rrt_plan", lambda *args: calls.append(1) or real(*args))
    sc = single_cell_scenario(seed=0)
    sc.waypoints_per_cell = 5
    run_scenario(sc, Mode.RRT_ONLY)
    assert calls
