"""Golden outputs: SHA-256 of every result table for fixed CLI runs.

A refactor or a speedup must leave these hashes unchanged. A change that
alters results on purpose regenerates them and says why. The tree planners'
nearest-node ranking is a specified formula, and the tick's gaps are
`sqrt((x*x + y*y) + z*z)`, which IEEE 754 rounds the same on every host;
`test_bookkeeping_exactness` checks the tick's bits under other BLAS kernels
and SIMD dispatch. What still depends on the host: `**` in `sampling._dist`
(libm's `pow`, which need not round correctly), `np.arcsin` and `np.arccos`
in the PSO kernel's `_Scorer` (their bits change with numpy's SIMD
dispatch), and numpy's `sum` and `mean`, whose order of additions numpy does
not promise across versions. So another numpy build or libm may
legitimately produce other values.
"""

import hashlib
import os

import pytest

from skygrid.cli import main

TEN_UAVS = "random_uavs: {count: 10, min_cell_separation: 5}\n"

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
            "adsb_log": "0096846c88177d53dd3a6b9c0b5abf1f625a7476efc7fe0dcfa5ebf831b4d468",
            "convergence": "d49b8ebc37d1321f432a71193214b463f7113ec00ea8b5b1f42eee2e72cdc283",
            "events": "647eb938031ff7bc2337b5ed80ac1cfac1df1c710313b291ba96b6b111f5b244",
            "lengths": "d62e58e59c8711617217658bd26aa506cf16490ce6d669bf6f9a50e739ef4241",
            "occupancy": "dfd4b1e10b99bd04b0b4caff7b801bb8afd8f55ce087520720d4d262cb5b14d1",
            "waypoints": "5cd07096db0639938cec764637528230f4c87eb4cf2befbe1373a9794bc76411",
        },
    ),
    "plan --seed 2": (
        ["plan", "--seed", "2"],
        None,
        {
            "adsb_log": "00f9a7035a23cecc825f42c7109723affee4302bc18e160e742ce18de08020e9",
            "convergence": "9a3f393d0fa34604a126ecdfa0ef037bddd83e48be05cf80f042e31ecd52a24c",
            "events": "560ed5af2ec39bfc1e753dd513101a2c0e1dee49e5e31b91213b1d735301ca09",
            "lengths": "d132c7ff91298ea07b8864a599058a4454481f2f6290c862f1003f36520ffaae",
            "occupancy": "118de3457215198511ef33c97d7d43458badee6916e2b0a76899c3292fa5c441",
            "waypoints": "38461711174bbd4326eb6fe69d6c8c1dd8c97568b6ebed569418cb621eecbf7e",
        },
    ),
    "plan --seed 2 --format jsonl": (
        ["plan", "--seed", "2", "--format", "jsonl"],
        None,
        {
            "adsb_log": "a7a659aca9482cec515d8fbde133b8ab5a363dadb2d2c7b27a31d7b99d4300a2",
            "convergence": "725ede9d604117e898b85b1d2ffa5e9c619e1ba795c60b5f7b0854ac29d75fe2",
            "events": "f321331874f2fa0c09a0e3fa2ee2b68871699180092f38a34781f12d2390ccbc",
            "lengths": "e6063b9d88ae0860938a984870a1f43068c361458f13e107cd69e466271d90f5",
            "occupancy": "cc37112b522991e1c720bfe04232096b1afcd28e5d7cf6af28db46b0f2493e8d",
            "waypoints": "42b12f9c33e90739b80cb0a98bb202ccc856c4162fa7468fd2b451e96b874b03",
        },
    ),
    "simulate --seed 1 (10 UAVs)": (
        ["simulate", "--seed", "1"],
        TEN_UAVS,
        {
            "adsb_log": "a6722e1c2c0c2b3d91a63bd60868ca2a62a4214f9fe004c177b63af33c3a912b",
            "convergence": "7aa15e68e9ea0239fc7e69fd70f8f3ea18fcf953be868a3c878b06272c862382",
            "events": "35c069c593da87496d05929b36dc801aba70115b1b83cf54dc5065413f6e8998",
            "lengths": "aa7d42493d227157eec64dc763be215af85d6e9d899483a30105e4efbfb7de26",
            "occupancy": "4bccdfc88833ee241bcabce388abc87dc3a7f4cd5363645d2b3407879a54296b",
            "waypoints": "b4e5f0b16e4d8f020486a30a63fb65157216c848366d0058a20e537635b36b81",
        },
    ),
    "simulate --seed 3 (sudden obstacles, loss 0.3)": (
        ["simulate", "--seed", "3"],
        SUDDEN_LOSSY,
        {
            "adsb_log": "e01ef071e6b2522fc8ff30be93cdb6fcf7be69c73fccdee02871a1cd2f709f10",
            "convergence": "98356964ca5b3c998795d0412469ba8c97584c47bae0dac75e3c3625657b3de2",
            "events": "03070d7036626c3c7de24c0f9ab85b495f1ac2200c55de76154a667e93786f4e",
            "lengths": "5d9681a53bb72277722b6fd9ef65667b08d593b18268bf6664ac15411f02faf9",
            "occupancy": "5b2cea63dbe85ec99bedaa8e60255aa33e4747876b55aa997d5d7ece8d4f581a",
            "waypoints": "feaffcf302246dbeb11fbccde4fe2ad03cf78f3cae2da57a91b3b5dd1d7fc6f5",
        },
    ),
    "replan-demo --seed 4": (
        ["replan-demo", "--seed", "4"],
        None,
        {
            "convergence": "6ef5612c6b4f7acef6e88c1a934eba517e13816c3681f2a5944793b305f9c4cd",
            "events": "288658d935affc1c1f4101c210b433fbc3d06e036c3871a924b82367af8d5eea",
            "lengths": "d63953529d87d8e052fb42b773b703f0696711f8491921f4397232af2e51462e",
            "occupancy": "35ea3dfdde5808bd0c820efd3c06ff433f803c864c729ca3c730feba8e9196fb",
            "waypoints": "ee7599adf5396ee1daea0ed12d66a0160831ea4f411daa349dab454b3d52dca6",
            "waypoints_repaired": "5321ade794e427ddc4062abdbe9219939436edbf7e4765c18565087bd1f424db",
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
    assert _table_hashes(out) == expected


def test_golden_replan_demo_summary(tmp_path, capsys):
    assert main(["replan-demo", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "conflicts at waypoints [5]; repaired path has 10 waypoints\n"
    )
