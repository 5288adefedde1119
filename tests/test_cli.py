import filecmp
import json
import os

import pytest

from skygrid import sim
from skygrid.cli import main
from skygrid.pso import NoFeasibleSeed
from skygrid.replan import RepairFailed

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
    ],
)
def test_exit_2_names_the_key_of_a_malformed_value(tmp_path, capsys, text, key_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and key_path in err
    assert "Traceback" not in err


def test_exit_2_on_unknown_mode(small_scenario, tmp_path):
    code = main(
        ["plan", "--scenario", small_scenario, "--mode", "Nope", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_exit_2_on_bad_arguments():
    assert main(["no-such-command"]) == 2


def test_exit_1_on_planning_failure(tmp_path):
    sealed = tmp_path / "sealed.yaml"
    sealed.write_text(SEALED_SCENARIO)
    out = str(tmp_path / "out")
    assert main(["plan", "--scenario", str(sealed), "--seed", "1", "--out", out]) == 1
    # Partial results are still written for post-mortem inspection.
    assert os.path.exists(os.path.join(out, "events.csv"))


def test_exit_1_when_no_seed_is_feasible(tmp_path, monkeypatch, capsys):
    def optimize(*args, **kwargs):
        raise NoFeasibleSeed("no particle reached a finite penalized cost")

    monkeypatch.setattr(sim, "optimize", optimize)
    assert main(["plan-sub", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert "planning failed for: uav0" in capsys.readouterr().err


def test_replan_demo_exit_1_when_repair_fails(tmp_path, monkeypatch, capsys):
    def repair(*args, **kwargs):
        raise RepairFailed("no collision-free bracketing waypoints remain")

    monkeypatch.setattr(sim, "repair", repair)
    assert main(["replan-demo", "--seed", "0", "--out", str(tmp_path / "o")]) == 1
    assert "repair failed" in capsys.readouterr().err


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
