import re

import numpy as np
import pytest

from skygrid.coarse import SspParams
from skygrid.geometry import ObstacleKind
from skygrid.pso import ConstraintParams, CostParams, SwarmParams
from skygrid import scenario as scenario_module
from skygrid.sampling import RrtParams, flatten_obstacles, point_free
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


def test_unplaceable_random_field_gives_up_within_one_budget(monkeypatch):
    """Every footprint covers the UAV's endpoints, so no building can be
    placed: the field's one budget, linear in the count, runs out and the
    input is rejected after at most 10 * 1000 + 100 placements."""
    placements = []
    real = scenario_module.flatten_obstacles

    def flatten(obstacles, margin=0.0):
        placements.append(1)
        return real(obstacles, margin)

    monkeypatch.setattr(scenario_module, "flatten_obstacles", flatten)
    with pytest.raises(ValidationError, match="could not place random obstacles"):
        load_scenario(
            "airspace: {extent: [30, 30, 30], cells: [1, 1, 1]}\n"
            "uavs:\n  - {start: [15, 15, 15], goal: [16, 16, 16]}\n"
            "random_obstacles: {count: 1000, footprint_range: [25, 30]}\n"
        )
    assert len(placements) == 10 * 1000 + 100


def test_unplaceable_random_fleet_gives_up_within_one_budget(monkeypatch):
    """One cell is filled by a building and the other up to z = 97, so no
    endpoint with a one-metre margin is free: the fleet's one budget, linear
    in the count, runs out after 1000 * 1 + 10000 endpoint draws."""
    draws = []
    real = scenario_module.point_free

    def counted(p, boxes):
        draws.append(1)
        return real(p, boxes)

    monkeypatch.setattr(scenario_module, "point_free", counted)
    with pytest.raises(ValidationError, match="random_uavs: could not sample 1 collision-free"):
        load_scenario(
            "airspace: {extent: [100, 100, 100], cells: [2, 1, 1]}\n"
            "obstacles:\n"
            "  - {anchor: [50, 0, 0], lengths: [50, 100, 100]}\n"
            "  - {anchor: [0, 0, 0], lengths: [50, 100, 97]}\n"
            "random_uavs: {count: 1, min_cell_separation: 1}\n"
        )
    assert len(draws) == 1000 * 1 + 10000


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
        ("rrt: {max_iterations: 2.5}\n", "rrt.max_iterations"),
        ("ssp: {window_length: 1.5}\n", "ssp.window_length"),
        ("swarm: {stall_tolerance: tiny}\n", "swarm.stall_tolerance"),
        ("stagger: 0.5\n", "stagger"),
        ("stagger: -7\n", "stagger"),
        ("max_ticks: .inf\n", "max_ticks"),
        ("dt: .inf\nobstacles: []\n", "dt"),
        ("dt: 0\nobstacles: []\n", "dt"),
        ("ssp: {k1: .nan, k2: .nan}\nobstacles: []\n", "ssp.k1"),
        ("swarm: {inertia: .nan}\nobstacles: []\n", "swarm.inertia"),
        ("rrt: {step_size: .inf}\nobstacles: []\n", "rrt.step_size"),
        ("constraints: {L_max: .inf}\nobstacles: []\n", "constraints.L_max"),
        ("max_ticks: true\n", "max_ticks"),
        ("swarm: {c1: false}\nobstacles: []\n", "swarm.c1"),
        ("airspace: {cells: [17, 16, 16]}\nobstacles: []\n", "airspace.cells"),
        ("rrt: {max_iterations: 100000000000}\nobstacles: []\n", "rrt.max_iterations"),
        ("rrt: {max_iterations: 20001}\nobstacles: []\n", "rrt.max_iterations"),
        ("swarm: {max_iterations: 10001}\nobstacles: []\n", "swarm.max_iterations"),
        ("waypoints_per_cell: 2000000000\nobstacles: []\n", "waypoints_per_cell"),
        ("smooth_window: 1001\nobstacles: []\n", "smooth_window"),
        ("swarm: {n_rrt: 0, n_birrt: 0}\nobstacles: []\n", "swarm: n_rrt + n_birrt"),
        ("swarm: {n_rrt: -3}\nobstacles: []\n", "swarm: n_rrt"),
        ("swarm: {n_birrt: -1}\nobstacles: []\n", "n_birrt"),
        ("swarm: {max_iterations: -3}\nobstacles: []\n", "swarm: max_iterations"),
        ("swarm: {stall_iterations: -3}\nobstacles: []\n", "swarm: stall_iterations"),
        ("swarm: {stall_iterations: 0}\nobstacles: []\n", "swarm: stall_iterations"),
        ("swarm: {stall_tolerance: -1.0}\nobstacles: []\n", "swarm: stall_tolerance"),
        ("smooth_window: -5\nobstacles: []\n", "smooth_window"),
        ("random_uavs: {count: -3}\n", "random_uavs.count"),
        ("random_uavs: {speed: 0}\n", "random_uavs.speed"),
        ("random_uavs: {speed: -5}\n", "random_uavs.speed"),
        ("random_uavs: {count: 1001}\n", "random_uavs.count"),
        ("random_obstacles: {count: 1001}\n", "random_obstacles.count"),
        ("max_ticks: 20001\n", "max_ticks"),
        ("airspace: {extent: [100001, 1000, 250]}\nobstacles: []\n", "airspace.extent: at most"),
        ("mode: Nope\n", "mode"),
        ("mode: [SSP]\n", "mode"),
        ("cost: {k4: -1.0, k5: -100.0}\nobstacles: []\n", "cost: k4"),
        ("cost: {k6: -0.5}\nobstacles: []\n", "cost: k6"),
        ("cost: {k3: .nan}\nobstacles: []\n", "cost.k3"),
        ("cost: {k5: .inf}\nobstacles: []\n", "cost.k5"),
        # 1001 malformed entries: the length is checked before any entry.
        pytest.param("uavs: [" + "x, " * 1001 + "]\n", "uavs: at most 1000", id="uavs-1001"),
        pytest.param("obstacles: [" + "x, " * 1001 + "]\n", "obstacles: at most 1000", id="obstacles-1001"),
        pytest.param("injections: [" + "x, " * 1001 + "]\n", "injections: at most 1000", id="injections-1001"),
    ],
)
def test_malformed_values_name_their_key(text, key_path):
    with pytest.raises(ValidationError, match=re.escape(key_path)):
        load_scenario(text)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "cls,kwargs",
    [
        (SspParams, {"k1": NAN, "k2": NAN}),
        (SwarmParams, {"inertia": NAN}),
        (SwarmParams, {"stall_tolerance": INF}),
        (SwarmParams, {"v_max": INF}),
        (RrtParams, {"step_size": INF}),
        (RrtParams, {"step_size": NAN}),
        (ConstraintParams, {"l_max": NAN}),
        (ConstraintParams, {"ta_max": INF}),
        (CostParams, {"k3": NAN}),
        (CostParams, {"k4": INF}),
        (CostParams, {"k6": NAN}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_parameter_blocks_reject_non_finite_values(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"n_rrt": -1}, {"n_birrt": -1}, {"n_rrt": 0, "n_birrt": 0}], ids=repr
)
def test_swarm_needs_a_seed_path(kwargs):
    with pytest.raises(ValueError):
        SwarmParams(**kwargs)


def test_inputs_at_their_lower_bounds_load():
    sc = load_scenario(
        "swarm: {max_iterations: 0, stall_iterations: 1, stall_tolerance: 0.0}\nsmooth_window: 0\nobstacles: []\n"
    )
    assert (sc.swarm.max_iterations, sc.swarm.stall_iterations, sc.swarm.stall_tolerance) == (0, 1, 0.0)
    assert sc.smooth_window == 0


def test_inputs_at_their_upper_bounds_load():
    sc = load_scenario(
        "rrt: {max_iterations: 20000}\nswarm: {max_iterations: 10000, n_rrt: 0, n_birrt: 1}\n"
        "waypoints_per_cell: 1000\nsmooth_window: 1000\nobstacles: []\n"
    )
    assert (sc.rrt.max_iterations, sc.swarm.max_iterations) == (20000, 10000)
    assert (sc.waypoints_per_cell, sc.smooth_window) == (1000, 1000)
    assert (sc.swarm.n_rrt, sc.swarm.n_birrt) == (0, 1)


@pytest.mark.parametrize(
    "text",
    [
        "random_uavs: {count: 1001}\n",
        "random_uavs: {count: 2, speed: 0}\n",
        "random_obstacles: {count: 1001}\n",
        "random_obstacles: {count: 5}\nrandom_uavs: {count: -1}\n",
    ],
)
def test_random_block_values_are_checked_before_generation(monkeypatch, text):
    def generate(*args, **kwargs):
        raise AssertionError("generated before the random blocks were checked")

    monkeypatch.setattr(scenario_module, "generate_obstacles", generate)
    monkeypatch.setattr(scenario_module, "generate_uavs", generate)
    with pytest.raises(ValidationError):
        load_scenario(text)


def test_run_sizes_at_their_upper_bounds_load(monkeypatch):
    sizes = {}

    def generate_obstacles(extent, count, *args):
        sizes["obstacles"] = count
        return []

    def generate_uavs(grid, count, *args):
        sizes["uavs"] = count
        return []

    # Stubbed: the bounds are checked, nothing that large is generated.
    monkeypatch.setattr(scenario_module, "generate_obstacles", generate_obstacles)
    monkeypatch.setattr(scenario_module, "generate_uavs", generate_uavs)
    sc = load_scenario(
        "random_uavs: {count: 1000}\nrandom_obstacles: {count: 1000}\nmax_ticks: 20000\n"
        "obstacles: [" + "{anchor: [0, 0, 0], lengths: [1, 1, 1]}, " * 1000 + "]\n"
        "uavs: [" + "{start: [10, 10, 10], goal: [900, 900, 100]}, " * 1000 + "]\n"
        "injections: [" + "{tick: 5, obstacle: {anchor: [0, 0, 0], lengths: [1, 1, 1]}}, " * 1000 + "]\n"
    )
    assert sizes == {"obstacles": 1000, "uavs": 1000} and sc.max_ticks == 20000
    assert (len(sc.obstacles), len(sc.uavs), len(sc.injections)) == (1000, 1000, 1000)


def test_largest_grid_loads():
    sc = load_scenario("airspace: {cells: [16, 16, 16]}\nobstacles: []\n")
    assert sc.counts == (16, 16, 16)


def test_largest_extent_loads():
    sc = load_scenario("airspace: {extent: [100000, 100000, 100000]}\nobstacles: []\n")
    assert sc.extent == (100000.0, 100000.0, 100000.0)


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


ABOVE_THE_TOP = (
    "airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}\n"
    "uavs:\n  - {start: [10, 100, 10], goal: [390, 100, 10]}\n"
    "injections: [{tick: 3, obstacle: {anchor: [%s], lengths: [12, 12, 12]}}]\n"
)


@pytest.mark.parametrize(
    "anchor,message",
    [
        ("195, 95, 45", "coordinate 51.0 outside [0, 50.0] on axis 2"),
        ("500, 95, 10", "coordinate 506.0 outside [0, 400.0] on axis 0"),
    ],
)
def test_rejects_injection_centred_outside_the_airspace(anchor, message):
    with pytest.raises(ValidationError, match=re.escape(f"injections[0].obstacle: centre outside the airspace: {message}")):
        load_scenario(ABOVE_THE_TOP % anchor)


def test_injection_centred_on_the_airspace_top_loads():
    """A box poking out of the airspace is fine while its centre is inside."""
    sc = load_scenario(ABOVE_THE_TOP % "195, 95, 44")
    assert sc.injections[0][1].center.z == 50.0


def test_rejects_uav_whose_start_equals_its_goal():
    with pytest.raises(ValidationError, match=re.escape("uavs[1]: start equals goal [50.0, 100.0, 10.0]")):
        load_scenario(
            "obstacles: []\nuavs:\n  - {start: [10, 100, 10], goal: [390, 100, 10]}\n"
            "  - {start: [50, 100, 10], goal: [50, 100, 10.0]}\n"
        )


TWO_UAVS = """\
obstacles: []
uavs:
  - {%s start: [10, 100, 10], goal: [390, 100, 10]}
  - {%s start: [10, 60, 20], goal: [390, 150, 30]}
"""


@pytest.mark.parametrize(
    "first,second,uav_id",
    [("id: a,", "id: a,", "a"), ("id: uav1,", "", "uav1"), ("", "id: uav0,", "uav0")],
)
def test_rejects_a_repeated_uav_id(first, second, uav_id):
    with pytest.raises(ValidationError, match=re.escape(f"uavs[1].id: {uav_id!r} is the id of an earlier UAV")):
        load_scenario(TWO_UAVS % (first, second))


@pytest.mark.parametrize("uav_id", ["[1, 2]", "{a: 1}", "null", '""', "true", "1.5"])
def test_rejects_a_uav_id_that_is_not_a_string_or_an_int(uav_id):
    with pytest.raises(ValidationError, match=re.escape("uavs[1].id: expected a non-empty string or an int")):
        load_scenario(TWO_UAVS % ("", f"id: {uav_id},"))


def test_an_int_uav_id_is_taken_as_its_text():
    sc = load_scenario(TWO_UAVS % ("id: 7,", "id: ab,"))
    assert [u.id for u in sc.uavs] == ["7", "ab"]


def test_random_uavs_take_ids_no_listed_uav_holds():
    sc = load_scenario(
        TWO_UAVS % ("", "id: uav2,")
        + "airspace: {cells: [2, 2, 1]}\nrandom_uavs: {count: 3, min_cell_separation: 1}\n"
    )
    assert [u.id for u in sc.uavs] == ["uav0", "uav2", "uav1", "uav3", "uav4"]


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


def test_section_values_take_their_field_types():
    # YAML 1.1 reads 1e-6 (no dot) as a string.
    sc = load_scenario("swarm: {stall_tolerance: 1e-6}\nrrt: {step_size: 4}\nobstacles: []\n")
    assert sc.swarm.stall_tolerance == 1e-06 and type(sc.swarm.stall_tolerance) is float
    assert type(sc.rrt.step_size) is float
    assert load_scenario("rrt: {max_iterations: 300.0}\nobstacles: []\n").rrt.max_iterations == 300
    # A cost weight of 0 turns its term off.
    assert load_scenario("cost: {k3: 0, k6: 0}\nobstacles: []\n").cost == CostParams(k3=0.0, k6=0.0)


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
    from skygrid.sampling import flatten_obstacles, segment_free

    u = sc.uavs[0]
    assert not segment_free(u.start.as_array(), u.goal.as_array(), flatten_obstacles(sc.obstacles))
