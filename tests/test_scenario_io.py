import re

import numpy as np
import pytest

from skygrid.geometry import ObstacleKind
from skygrid.pso import SwarmParams
from skygrid.sampling import flatten_obstacles, point_free
from skygrid.scenario import (
    ParseError,
    ValidationError,
    load_scenario,
    load_scenario_file,
    single_cell_scenario,
)


# -- defaults ----------------------------------------------------------------


def test_empty_scenario_gets_reference_defaults():
    sc = load_scenario("")
    assert sc.extent == (1000.0, 1000.0, 250.0)
    assert sc.counts == (5, 5, 5)
    assert len(sc.obstacles) == 75
    assert all(ob.kind is ObstacleKind.STATIC for ob in sc.obstacles)
    assert all(25.0 <= ob.len_z <= 240.0 for ob in sc.obstacles)
    assert len(sc.uavs) == 1
    u = sc.uavs[0]
    assert (u.start.x, u.start.y, u.start.z) == (0.0, 0.0, 0.0)
    assert (u.goal.x, u.goal.y, u.goal.z) == (750.0, 900.0, 80.0)
    assert u.speed == 5.0
    assert sc.ssp.k1 == 0.01 and sc.ssp.k2 == 0.99 and sc.ssp.window_length == 4
    assert sc.constraint_limits == {"l_max": 40.0, "L_max": 400.0, "ta_max": 60.0, "pa_max": 45.0}


def test_default_obstacles_deterministic_per_seed():
    a = load_scenario("", seed_override=3)
    b = load_scenario("", seed_override=3)
    c = load_scenario("", seed_override=4)
    key = lambda sc: [(ob.anchor.x, ob.anchor.y, ob.len_x, ob.len_y, ob.len_z) for ob in sc.obstacles]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_random_obstacles_avoid_uav_endpoints():
    sc = load_scenario("", seed_override=1)
    boxes = flatten_obstacles(sc.obstacles)
    for u in sc.uavs:
        assert point_free((u.start.x, u.start.y, u.start.z), boxes)
        assert point_free((u.goal.x, u.goal.y, u.goal.z), boxes)


def test_explicit_obstacles_suppress_random_generation():
    sc = load_scenario(
        "obstacles:\n"
        "  - {anchor: [10, 10, 0], lengths: [5, 5, 30]}\n"
        "uavs:\n"
        "  - {start: [0, 0, 0], goal: [900, 900, 100]}\n"
    )
    assert len(sc.obstacles) == 1


def test_empty_obstacle_list_means_no_obstacles():
    sc = load_scenario("obstacles: []\n")
    assert sc.obstacles == []


# -- random UAV fleets -------------------------------------------------------


def test_random_uavs_generated_with_separation():
    from skygrid.grid import AirspaceGrid

    sc = load_scenario("random_uavs: {count: 10, min_cell_separation: 5}\n", seed_override=2)
    assert len(sc.uavs) == 10
    grid = AirspaceGrid(extent=sc.extent, counts=sc.counts, obstacles=sc.obstacles)
    for u in sc.uavs:
        cs = grid.cell_coords(grid.locate(u.start))
        cg = grid.cell_coords(grid.locate(u.goal))
        assert sum(abs(a - b) for a, b in zip(cs, cg)) >= 5


def test_uav_streams_stable_under_fleet_growth():
    a = load_scenario("random_uavs: {count: 3, min_cell_separation: 2}\n", seed_override=5)
    b = load_scenario("random_uavs: {count: 5, min_cell_separation: 2}\n", seed_override=5)
    for ua, ub in zip(a.uavs, b.uavs):
        assert (ua.start, ua.goal) == (ub.start, ub.goal)


# -- validation --------------------------------------------------------------


def test_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        load_scenario("bogus: 1\n")
    with pytest.raises(ValidationError):
        load_scenario("airspace: {extent: [1, 1, 1], cells: [1, 1, 1], shape: cube}\n")


def test_rejects_invalid_yaml_and_non_mapping():
    with pytest.raises(ParseError):
        load_scenario("{unbalanced\n")
    with pytest.raises(ParseError):
        load_scenario("- just\n- a list\n")


def test_rejects_uav_endpoint_out_of_airspace():
    with pytest.raises(ValidationError):
        load_scenario(
            "obstacles: []\nuavs:\n  - {start: [0, 0, 0], goal: [2000, 0, 0]}\n"
        )


def test_rejects_uav_endpoint_inside_obstacle():
    with pytest.raises(ValidationError):
        load_scenario(
            "obstacles:\n  - {anchor: [0, 0, 0], lengths: [50, 50, 50]}\n"
            "uavs:\n  - {start: [10, 10, 10], goal: [900, 900, 100]}\n"
        )


def test_rejects_bad_parameter_values():
    with pytest.raises(ValidationError):
        load_scenario("ssp: {k1: 0.5, k2: 0.6}\nobstacles: []\n")
    with pytest.raises(ValidationError):
        load_scenario("constraints: {l_max: -1}\nobstacles: []\n")
    with pytest.raises(ValidationError):
        load_scenario("obstacles:\n  - {anchor: [0, 0, 0], lengths: [0, 5, 5]}\n")
    with pytest.raises(ValidationError):
        load_scenario("loss_rate: 1.5\nobstacles: []\n")
    with pytest.raises(ValidationError):
        load_scenario("waypoints_per_cell: 2\nobstacles: []\n")


@pytest.mark.parametrize(
    "text,key_path",
    [
        ("uavs: [x]\n", "uavs[0]"),
        ("injections: [3]\n", "injections[0]"),
        ("injections:\n  - {tick: 1, obstacle: {anchor: 5, lengths: [1, 1, 1]}}\n",
         "injections[0].obstacle.anchor"),
        ("obstacles:\n  - {anchor: [0, 0, [0]], lengths: [1, 1, 1]}\n", "obstacles[0].anchor"),
        ("airspace: {cells: [[1], 1, 1]}\n", "airspace.cells"),
        ("constraints: {l_max: [1]}\n", "constraints.l_max"),
        ("random_obstacles: {count: [3]}\n", "random_obstacles.count"),
        ("random_obstacles: {footprint_range: [1, 2, 3]}\n", "random_obstacles.footprint_range"),
        ("random_uavs: {speed: fast}\n", "random_uavs.speed"),
        ("max_ticks: many\n", "max_ticks"),
        ("swarm: {v_max: 0}\nobstacles: []\n", "swarm"),
    ],
)
def test_malformed_values_name_their_key(text, key_path):
    with pytest.raises(ValidationError, match=re.escape(key_path)):
        load_scenario(text)


def test_injections_parsed_as_sudden():
    sc = load_scenario(
        "obstacles: []\n"
        "injections:\n"
        "  - {tick: 7, obstacle: {anchor: [100, 100, 20], lengths: [5, 5, 5]}}\n"
    )
    assert len(sc.injections) == 1
    tick, ob = sc.injections[0]
    assert tick == 7
    assert ob.kind is ObstacleKind.SUDDEN
    with pytest.raises(ValidationError):
        load_scenario(
            "injections:\n  - {tick: -1, obstacle: {anchor: [0, 0, 0], lengths: [1, 1, 1]}}\n"
        )


# -- overrides and roundtrip -------------------------------------------------


def test_seed_and_mode_overrides():
    sc = load_scenario("seed: 9\nmode: SSP\nobstacles: []\n", seed_override=42, mode_override="RrtOnly")
    assert sc.seed == 42
    assert sc.mode == "RrtOnly"


def test_yaml_roundtrip_is_stable():
    sc = load_scenario("", seed_override=6)
    text = sc.to_yaml()
    again = load_scenario(text)
    assert again.to_yaml() == text
    assert len(again.obstacles) == len(sc.obstacles)


def test_swarm_stall_fields_roundtrip():
    sc = single_cell_scenario(seed=1)
    sc.swarm = SwarmParams(stall_iterations=7, stall_tolerance=0.5)
    again = load_scenario(sc.to_yaml())
    assert again.swarm == sc.swarm
    assert again.to_dict() == sc.to_dict()


def test_load_scenario_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text("obstacles: []\nseed: 3\n")
    sc = load_scenario_file(str(p))
    assert sc.seed == 3 and sc.obstacles == []


# -- reference single-cell environment ---------------------------------------


def test_single_cell_scenario_layout():
    sc = single_cell_scenario(seed=1)
    assert sc.extent == (200.0, 200.0, 50.0)
    assert sc.counts == (1, 1, 1)
    assert [(ob.anchor.x, ob.anchor.y) for ob in sc.obstacles] == [(40, 50), (20, 120), (150, 125)]
    assert sc.seed == 1
    # The default start/goal line is blocked by the first building.
    from skygrid.geometry import path_is_collision_free

    u = sc.uavs[0]
    line = np.stack([u.start.as_array(), u.goal.as_array()])
    assert not path_is_collision_free(line, sc.obstacles)
