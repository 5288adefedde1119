"""Golden outputs: SHA-256 of every result table for fixed CLI runs.

A refactor or a speedup must leave these hashes unchanged. A change that
alters results on purpose regenerates them and says why. The tree planners'
nearest-node ranking is a specified formula, and the tick's gaps and the
tree planners' `sampling._dist` are `sqrt((x*x + y*y) + z*z)`, which IEEE 754
rounds the same on every host; `test_bookkeeping_exactness` checks the tick's
bits under other BLAS kernels and SIMD dispatch, and this module's
`plan-sub --seed 1` tables too. The PSO kernel's pitch and turn limits are
sine and cosine thresholds computed once with `math`, so no `arcsin` or
`arccos` runs. What still depends on the host is numpy's summation order
(`sum`, `np.add.reduce`), which numpy does not promise across versions, and
the frozen copies' `arcsin` and `arccos` in the exactness tests. So another
numpy build may legitimately produce other values.
"""

import hashlib
import os
import re

import numpy
import pytest

from skygrid.cli import main

# The numpy version the hashes below were taken with. .github/workflows/tier1.yml
# installs the same version; change both together (test_ci_installs_the_golden_numpy).
GOLDEN_NUMPY = "2.4.6"

TEN_UAVS = "random_uavs: {count: 10, min_cell_separation: 5}\n"

# The open-sky workload's fleet: no buildings, so nearly every cell plan is the
# straight line, and the coarse search re-plans on zero-cost plateaus.
OPEN_SKY = "random_uavs: {count: 150, min_cell_separation: 5}\nobstacles: []\n"

# A YAML-listed sudden obstacle, two injections from the scenario file and a
# lossy bus; at seed 3 one UAV repairs around the first injected cube.
SUDDEN_LOSSY = """\
airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}
obstacles:
  - {anchor: [60, 20, 0], lengths: [30, 30, 50]}
  - {anchor: [120, 140, 10], lengths: [20, 20, 20], kind: sudden}
uavs:
  - {start: [10, 100, 10], goal: [390, 100, 10]}
  - {start: [10, 60, 20], goal: [390, 150, 30]}
  - {start: [390, 20, 15], goal: [10, 180, 25]}
injections:
  - {tick: 6, obstacle: {anchor: [95, 95, 5], lengths: [12, 12, 12]}}
  - {tick: 30, obstacle: {anchor: [290, 90, 5], lengths: [12, 12, 12]}}
loss_rate: 0.3
"""

GOLDEN = {
    "plan-sub --seed 1": (
        ["plan-sub", "--seed", "1"],
        None,
        {
            "adsb_log": "45edbdc3e85edb7b48a0f51574526b1ef63c5d172c760ef3a5868a897bc64766",
            "convergence": "50854dd77eb0fd5ba6ee0088d24b915e4e03c57f7cc037e06653865ff64b9a2f",
            "events": "647eb938031ff7bc2337b5ed80ac1cfac1df1c710313b291ba96b6b111f5b244",
            "lengths": "16a63f07476fe944c704e51ce406d354c339f26c8359a09682632b5ab85af6a6",
            "occupancy": "dfd4b1e10b99bd04b0b4caff7b801bb8afd8f55ce087520720d4d262cb5b14d1",
            "waypoints": "ec3f74e18b9d75e20c18c9c31657fdcb146478b6472968943ef483358712d593",
        },
    ),
    "plan --seed 2": (
        ["plan", "--seed", "2"],
        None,
        {
            "adsb_log": "38b39796374af0014530d15f335c11ee691290705c13ff5b63ca4a66d0c11787",
            "convergence": "c8aa02d88fb69f01a3b3bc36ee41c6becf7ca029599cb18c7d77bd4e5255274e",
            "events": "10d83349eda51b47802848e2b5aadf23a0e8ecc8c9a067f7bc160252a8a1bbc0",
            "lengths": "de37d690f628c9d8ed996236142b8d02dfa151412ac2f198c7d7325850212410",
            "occupancy": "118de3457215198511ef33c97d7d43458badee6916e2b0a76899c3292fa5c441",
            "waypoints": "57de7efdde490d526d661ea883d56af84f773b6c6e990284b9400ba596d04a4e",
        },
    ),
    "plan --seed 2 --format jsonl": (
        ["plan", "--seed", "2", "--format", "jsonl"],
        None,
        {
            "adsb_log": "5bc6d971da96e5c1d5d0bd09c2ec58340bcb1a3bf9f670260fba6ed5abc4ca79",
            "convergence": "f2b1740d1e490ee53556eec89194860c6ce91f879306568503c25cead16cea76",
            "events": "4a843603c4906f63acb593921340d7e11c89833764c6dbbe36bcf086756e681e",
            "lengths": "61440c4ad07d8ae897ad38a7925f2a626573ff4e4c0ec6adc0b114cc2f14c4a9",
            "occupancy": "cc37112b522991e1c720bfe04232096b1afcd28e5d7cf6af28db46b0f2493e8d",
            "waypoints": "9180d21d4d90781ef1695d859202c4cf034959ef182e35d00b4259fd20848f41",
        },
    ),
    "simulate --seed 1 (10 UAVs)": (
        ["simulate", "--seed", "1"],
        TEN_UAVS,
        {
            "adsb_log": "8ca4ae5511a8898843092a8dd0a9969f757af696835f93d42a777b989f3c1dfc",
            "convergence": "30514f7ded346bf7cb4ead1c7b3a16c3269152aff27d52ba1e4163f8b522e697",
            "events": "d43991d8fe5fa216c01ab05a18746424c4e36a6d932ff02cbf32c1f7115f3725",
            "lengths": "35226e8929ea052d1f62ee7db1865f9d168d99e2ac4214aa48df64bc9963f14e",
            "occupancy": "c37f3cd084d71d5ecf21bf683ef82c9ef6b77dd2b57b5bbefe401d19431f231e",
            "waypoints": "64d1c984dec129809c60767acbdcd5ed9c61ee460e9d127673e1b9ca8cfcd533",
        },
    ),
    "simulate --seed 1 (150 UAVs, open sky)": (
        ["simulate", "--seed", "1"],
        OPEN_SKY,
        {
            "adsb_log": "6a3ad8145fc6b69867d0a4a9d40a948251aae33f36fcf317d1a72988e399cf50",
            "convergence": "4ceea9dd5a9a1dc85fc63bdd9339f3fb379ed0a08490505214b3bb24271bc347",
            "events": "5fe75757634db2d3f63b42416bbc6337244f43906b65285d897ca6ae296da6ef",
            "lengths": "60d713964f726276ee2944f29eece1b3ffc11794b323e27cd8cb10e61a1810ac",
            "occupancy": "eb58c22a9d651c5cabb06d35ab1d4c0c4294bca31f67a6105401a0681a18c45f",
            "waypoints": "b1987571e0d9f775bfe992919beefc40bf71ccfb752a85ac22b3f70245520407",
        },
    ),
    "simulate --seed 3 (sudden obstacles, loss 0.3)": (
        ["simulate", "--seed", "3"],
        SUDDEN_LOSSY,
        {
            "adsb_log": "6047f7e54a2383ee98db5d2df3e17d3e7ab9a5ead303dea77f99e5ffacdb456f",
            "convergence": "bf9915f26ee60703081c19561cfe643479ef652dc5366a90fdb90198a80f4edc",
            "events": "6d9978ad596980ceb51b1cc0375f44b5eeebd3c2f7ace69907895319ae79a5e1",
            "lengths": "6ef4307d09495073237f0520fbeadc8c634419bcefe0a3d1eaa9d80f44b879fd",
            "occupancy": "5b2cea63dbe85ec99bedaa8e60255aa33e4747876b55aa997d5d7ece8d4f581a",
            "waypoints": "5a33dbb5dffae05c1f232adcf9a76f7add883ed62aa21efb68ac1bf9bd83bf66",
        },
    ),
    "replan-demo --seed 4": (
        ["replan-demo", "--seed", "4"],
        None,
        {
            "convergence": "53ebc59999ad347e75e17773dd2ecacf437ed96ceebed2997ff6c14870691bb1",
            "events": "288658d935affc1c1f4101c210b433fbc3d06e036c3871a924b82367af8d5eea",
            "lengths": "d63953529d87d8e052fb42b773b703f0696711f8491921f4397232af2e51462e",
            "occupancy": "35ea3dfdde5808bd0c820efd3c06ff433f803c864c729ca3c730feba8e9196fb",
            "waypoints": "f91b3420b26b2545d9f83b9726b9540fce65ecc6b37b688c3ac55dbe16036679",
            "waypoints_repaired": "93906b504df51ea13f70f0cb62f7b5491e64b359a048cca2b4a3decc54eaed6f",
        },
    ),
}


def _table_hashes(out: str) -> dict[str, str]:
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[os.path.splitext(name)[0]] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("run", list(GOLDEN))
def test_golden_output_hashes(run, tmp_path):
    argv, scenario_text, expected = GOLDEN[run]
    if scenario_text is not None:
        path = tmp_path / "scenario.yaml"
        path.write_text(scenario_text)
        argv = argv + ["--scenario", str(path)]
    out = str(tmp_path / "out")
    assert main(argv + ["--out", out]) == 0
    assert _table_hashes(out) == expected, (
        f"hashes taken with numpy {GOLDEN_NUMPY}, this run used numpy {numpy.__version__}"
    )


def test_golden_replan_demo_summary(tmp_path, capsys):
    assert main(["replan-demo", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "conflicts at waypoints [5]; repaired path has 10 waypoints\n"
    )


def test_ci_installs_the_golden_numpy():
    workflow = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "tier1.yml")
    with open(workflow, encoding="utf-8") as fh:
        pins = re.findall(r"numpy==([0-9][0-9.]*)", fh.read())
    assert pins and set(pins) == {GOLDEN_NUMPY}, pins
