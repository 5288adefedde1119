import filecmp
import json
import os

import pytest

from skygrid import sim
from skygrid.cli import main
from skygrid.sampling import PlanningFailed

SMALL_SCENARIO = """\
airspace: {extent: [200, 200, 50], cells: [1, 1, 1]}
obstacles: []
uavs:
  - {start: [10, 10, 10], goal: [190, 190, 40]}
"""

SEALED_SCENARIO = """\
airspace: {extent: [200, 200, 50], cells: [1, 1, 1]}
obstacles:
  - {anchor: [185, 185, 0], lengths: [15, 2, 50]}
  - {anchor: [185, 185, 0], lengths: [2, 15, 50]}
uavs:
  - {start: [10, 10, 10], goal: [195, 195, 10]}
rrt: {max_iterations: 60}
swarm: {n_rrt: 1, n_birrt: 1, max_iterations: 5}
"""


@pytest.fixture
def small_scenario(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(SMALL_SCENARIO)
    return str(p)


# -- subcommands -------------------------------------------------------------


def test_plan_sub_writes_result_tables(tmp_path):
    out = str(tmp_path / "out")
    assert main(["plan-sub", "--seed", "1", "--out", out]) == 0
    for name in ("waypoints", "occupancy", "convergence", "lengths", "adsb_log", "events"):
        assert os.path.exists(os.path.join(out, name + ".csv"))


def test_plan_runs_scenario_file(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    assert main(["plan", "--scenario", small_scenario, "--seed", "2", "--out", out]) == 0
    with open(os.path.join(out, "lengths.csv")) as fh:
        header, row = fh.read().strip().splitlines()
    assert header == "uav_id,length_m,arrived"
    assert row.startswith("uav0,") and row.endswith(",True")


def test_simulate_uses_scenario_fleet(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--scenario", small_scenario, "--seed", "1", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "waypoints.csv"))


def test_compare_writes_summary(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    code = main(
        ["compare", "--scenario", small_scenario, "--seeds", "1,2", "--out", out]
    )
    assert code == 0
    with open(os.path.join(out, "comparison.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "seed,mode,total_length_m,max_occupancy,arrived,failed"
    assert len(lines) == 1 + 2 * 2  # 2 seeds x 2 default modes


def test_compare_seed_range_syntax(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    assert main(
        ["compare", "--scenario", small_scenario, "--seeds", "3..4", "--mode", "SSP", "--out", out]
    ) == 0
    with open(os.path.join(out, "comparison.csv")) as fh:
        assert len(fh.read().strip().splitlines()) == 3


def test_replan_demo_outputs_before_and_after(tmp_path):
    out = str(tmp_path / "out")
    assert main(["replan-demo", "--seed", "0", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "waypoints.csv"))
    assert os.path.exists(os.path.join(out, "waypoints_repaired.csv"))


# -- output formats ----------------------------------------------------------


def test_listed_and_random_uavs_each_get_their_own_rows(tmp_path):
    scenario = tmp_path / "mixed.yaml"
    scenario.write_text(
        "airspace: {extent: [400, 400, 50], cells: [2, 2, 1]}\nobstacles: []\n"
        "uavs: [{start: [10, 10, 10], goal: [390, 390, 40]}]\n"
        "random_uavs: {count: 2, min_cell_separation: 1}\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(out)]) == 0
    rows = (out / "lengths.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["uav0", "uav1", "uav2"]


def test_jsonl_format(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    assert main(
        ["plan", "--scenario", small_scenario, "--seed", "1", "--out", out, "--format", "jsonl"]
    ) == 0
    with open(os.path.join(out, "waypoints.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows and set(rows[0]) == {"uav_id", "seq", "x", "y", "z", "cell_id"}


# -- exit codes --------------------------------------------------------------


def test_exit_2_on_invalid_scenario(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("bogus_key: 1\n")
    assert main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "text,key_path",
    [
        ("obstacles: [5]\n", "obstacles[0]"),
        ("seed: [1]\n", "seed"),
        ("random_obstacles: {height_range: 5}\n", "random_obstacles.height_range"),
        ("rrt: {max_iterations: 2.5}\n", "rrt.max_iterations"),
        ("ssp: {window_length: 1.5}\n", "ssp.window_length"),
        ("dt: .nan\n", "dt"),
        ("max_ticks: 0\n", "max_ticks"),
        ("max_ticks: -1\n", "max_ticks"),
        ("ssp: {k1: .nan, k2: .nan}\n", "ssp.k1"),
        ("swarm: {inertia: .nan}\n", "swarm.inertia"),
        ("rrt: {step_size: .inf}\n", "rrt.step_size"),
        ("max_ticks: true\n", "max_ticks"),
        ("rrt: {max_iterations: 100000000000}\n", "rrt.max_iterations"),
        ("waypoints_per_cell: 2000000000\n", "waypoints_per_cell"),
        ("swarm: {n_rrt: 0, n_birrt: 0}\n", "swarm: n_rrt + n_birrt"),
        ("swarm: {n_rrt: -3}\n", "swarm: n_rrt"),
        ("random_uavs: {count: -3}\n", "random_uavs.count"),
        ("random_uavs: {speed: 0}\n", "random_uavs.speed"),
        ("random_uavs: {speed: -5}\n", "random_uavs.speed"),
        ("random_uavs: {count: 1001}\n", "random_uavs.count"),
        ("random_obstacles: {count: 1001}\n", "random_obstacles.count"),
        ("max_ticks: 20001\n", "max_ticks"),
        ("stagger: -7\n", "stagger"),
        ("mode: Nope\n", "mode"),
        ("cost: {k4: -1.0, k5: -100.0}\n", "cost: k4"),
        ("cost: {k3: .nan}\n", "cost.k3"),
        # The smoothing window is fixed: no key sets it.
        ("smooth_window: 5\n", "unknown key(s) ['smooth_window']"),
        pytest.param("uavs: [" + "x, " * 1001 + "]\n", "uavs: at most 1000", id="uavs-1001"),
        pytest.param(
            "airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}\n"
            "uavs: [{start: [10, 100, 10], goal: [390, 100, 10]}]\n"
            "injections: [{tick: 3, obstacle: {anchor: [195, 95, 45], lengths: [12, 12, 12]}}]\n",
            "injections[0].obstacle", id="injection-above-the-top",
        ),
        pytest.param(
            "injections: [{tick: 3, obstacle: {anchor: [1500, 95, 45], lengths: [12, 12, 12]}}]\n",
            "injections[0].obstacle", id="injection-beyond-x",
        ),
        pytest.param(
            # The box centre, (x0 + x1) / 2, overflows to inf.
            "airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}\n"
            "uavs: [{start: [10, 100, 10], goal: [390, 100, 10]}]\n"
            "injections: [{tick: 1, obstacle: {anchor: [1.0e308, 0, 0], lengths: [10, 10, 10], kind: sudden}}]\n",
            "injections[0].obstacle", id="injection-centre-overflows",
        ),
        pytest.param(
            # The far box corner, anchor + length, overflows to inf.
            "airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}\n"
            "obstacles: [{anchor: [1.0e308, 0, 0], lengths: [1.0e308, 10, 10]}]\n"
            "uavs: [{start: [10, 100, 10], goal: [390, 100, 10]}]\n",
            "obstacles[0]", id="obstacle-corner-overflows",
        ),
        pytest.param(
            # Beyond the bound, the planners' squares of coordinate differences overflow.
            "airspace: {extent: [1.0e200, 1.0e200, 1.0e200], cells: [1, 1, 1]}\n"
            "obstacles: [{anchor: [50, 0, 0], lengths: [10, 1.0e200, 1.0e200]}]\n"
            "uavs: [{start: [10, 50, 10], goal: [100, 50, 10]}]\n",
            "airspace.extent", id="oversized-extent",
        ),
        pytest.param(
            "obstacles: []\nuavs: [{start: [50, 100, 10], goal: [50, 100, 10]}]\n",
            "uavs[0]", id="start-equals-goal",
        ),
        pytest.param(
            "obstacles: []\nuavs: [{id: a, start: [10, 100, 10], goal: [390, 100, 10]},"
            " {id: a, start: [10, 60, 20], goal: [390, 150, 30]}]\n",
            "uavs[1].id: 'a'", id="repeated-uav-id",
        ),
        pytest.param(
            "obstacles: []\nuavs: [{id: [1, 2], start: [10, 100, 10], goal: [390, 100, 10]}]\n",
            "uavs[0].id", id="list-uav-id",
        ),
    ],
)
def test_exit_2_names_the_key_of_a_malformed_value(tmp_path, capsys, text, key_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and key_path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["plan", "compare"])
@pytest.mark.parametrize(
    "make,reason",
    [
        (lambda p: p.write_bytes(b"\xff\xfeseed: 1\n"), "is not UTF-8 text"),
        (lambda p: None, "No such file or directory"),
        (lambda p: p.mkdir(), "Is a directory"),
    ],
    ids=["not-utf8", "missing", "directory"],
)
def test_exit_2_on_an_unreadable_scenario_file(tmp_path, capsys, command, make, reason):
    path = tmp_path / "scenario.yaml"
    make(path)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err and reason in err


def test_exit_1_when_the_output_directory_cannot_be_written(small_scenario, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")  # under a regular file
    assert main(["plan", "--scenario", small_scenario, "--seed", "1", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("io error: ")


def test_exit_2_on_unknown_mode(small_scenario, tmp_path):
    code = main(
        ["plan", "--scenario", small_scenario, "--mode", "Nope", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_exit_2_on_unknown_plan_sub_mode(tmp_path, capsys):
    assert main(["plan-sub", "--mode", "Nope", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("input error: --mode")


@pytest.mark.parametrize("seeds", ["1..x", "a,b", "1.5", "5..1", ",", "0..1000000000000"])
def test_exit_2_on_bad_seeds(small_scenario, tmp_path, capsys, seeds):
    code = main(
        ["compare", "--scenario", small_scenario, "--seeds", seeds, "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --seeds") and "Traceback" not in err


def test_exit_2_on_bad_arguments():
    assert main(["no-such-command"]) == 2


def test_replan_demo_takes_no_scenario(tmp_path):
    assert main(["replan-demo", "--scenario", str(tmp_path / "none.yaml"), "--seed", "4"]) == 2


@pytest.mark.parametrize("command", ["plan-sub", "replan-demo", "plan"])
def test_exit_2_on_a_negative_seed(tmp_path, command):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2


def test_exit_1_on_planning_failure(tmp_path):
    sealed = tmp_path / "sealed.yaml"
    sealed.write_text(SEALED_SCENARIO)
    out = str(tmp_path / "out")
    assert main(["plan", "--scenario", str(sealed), "--seed", "1", "--out", out]) == 1
    # Partial results are still written for post-mortem inspection.
    assert os.path.exists(os.path.join(out, "events.csv"))


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_exit_1_when_uavs_are_still_flying_at_max_ticks(tmp_path, capsys, command):
    short = tmp_path / "short.yaml"
    short.write_text(SMALL_SCENARIO + "max_ticks: 3\n")
    out = str(tmp_path / "out")
    assert main([command, "--scenario", str(short), "--seed", "1", "--out", out]) == 1
    assert "still flying after 3 ticks: uav0" in capsys.readouterr().err
    # The tables are still written.
    assert os.listdir(out)


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_exit_1_names_the_uavs_that_never_took_off(tmp_path, capsys, command):
    late = tmp_path / "late.yaml"
    late.write_text(SMALL_SCENARIO + "  - {start: [190, 10, 10], goal: [10, 190, 40]}\n"
                    "stagger: 500\nmax_ticks: 3\n")
    out = str(tmp_path / "out")
    assert main([command, "--scenario", str(late), "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "still flying after 3 ticks: uav0\n" in err
    assert "not launched after 3 ticks: uav1\n" in err
    assert "uav1" not in err.split("not launched")[0]


# The reference cell (`single_cell_scenario`) at 3 waypoints, RRT only.
REFERENCE_CELL_3 = """\
airspace: {extent: [200, 200, 50], cells: [1, 1, 1]}
obstacles:
  - {id: ob1, anchor: [40, 50, 0], lengths: [50, 50, 100]}
  - {id: ob2, anchor: [20, 120, 0], lengths: [30, 30, 100]}
  - {id: ob3, anchor: [150, 125, 0], lengths: [30, 30, 100]}
uavs:
  - {start: [10, 90, 10], goal: [190, 130, 10]}
waypoints_per_cell: 3
mode: RrtOnly
"""


def test_exit_1_when_a_smoothed_path_needs_more_waypoints(tmp_path):
    # This seed's RRT path keeps 4 vertices.
    path = tmp_path / "ref3.yaml"
    path.write_text(REFERENCE_CELL_3)
    out = str(tmp_path / "out")
    assert main(["plan", "--scenario", str(path), "--seed", "1", "--out", out]) == 1
    with open(os.path.join(out, "events.csv")) as fh:
        assert "fine_plan_failed" in fh.read()


def test_exit_1_when_no_seed_is_feasible(tmp_path, monkeypatch, capsys):
    def optimize(*args, **kwargs):
        raise PlanningFailed("no particle reached a finite penalized cost")

    monkeypatch.setattr(sim, "optimize", optimize)
    assert main(["plan-sub", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert "planning failed for: uav0" in capsys.readouterr().err
    assert "no particle reached a finite penalized cost" in (tmp_path / "o" / "events.csv").read_text()


def test_exit_1_on_a_planner_value_error(tmp_path, monkeypatch, capsys):
    def optimize(*args, **kwargs):
        raise ValueError("seed population is empty")

    monkeypatch.setattr(sim, "optimize", optimize)
    assert main(["plan-sub", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "planning error: seed population is empty\n"


def test_replan_demo_exit_1_when_repair_fails(tmp_path, monkeypatch, capsys):
    def repair(*args, **kwargs):
        raise PlanningFailed("no collision-free bracketing waypoints remain")

    monkeypatch.setattr(sim, "repair", repair)
    assert main(["replan-demo", "--seed", "0", "--out", str(tmp_path / "o")]) == 1
    assert "repair failed: no collision-free bracketing waypoints remain" in capsys.readouterr().err


# -- determinism -------------------------------------------------------------


def test_repeated_run_is_byte_identical(small_scenario, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["plan", "--scenario", small_scenario, "--seed", "7", "--out", out_a]) == 0
    assert main(["plan", "--scenario", small_scenario, "--seed", "7", "--out", out_b]) == 0
    for name in os.listdir(out_a):
        assert filecmp.cmp(os.path.join(out_a, name), os.path.join(out_b, name), shallow=False)


def test_different_seeds_differ(small_scenario, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["plan-sub", "--seed", "1", "--out", out_a]) == 0
    assert main(["plan-sub", "--seed", "2", "--out", out_b]) == 0
    assert not filecmp.cmp(
        os.path.join(out_a, "waypoints.csv"), os.path.join(out_b, "waypoints.csv"), shallow=False
    )
