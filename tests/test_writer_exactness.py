"""Exactness of the CSV result writer.

`output.write_table` joins a row's values with commas and hands only a row
that needs quoting to `csv.writer`; the ADS-B log formats a position row
that needs no quoting in one step, and so does the waypoint table. They
must write the same bytes as the frozen writer in `reference_kernels.py`,
which passes every row through `csv.writer`: for values with commas, quotes,
CR and LF, empty strings, bools, ints, numpy scalars, -0.0, infinities and
NaN, for a hand-built bus log, for hand-built waypoint paths, and for every
table of a `simulate` run whose UAV id holds a comma and a quote.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from skygrid import output
from skygrid.adsb import AdsbMessage, OccupancyReport, PositionReport, SuddenObstacleAlert
from skygrid.cli import main
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3
from skygrid.sim import ExecutedPath, SimMetrics

value = st.one_of(
    st.text(alphabet=',"\r\n ;|=a', max_size=6),
    st.text(max_size=6),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(-1000, 1000).map(np.int64),
    st.sampled_from(["", -0.0, float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def tables(draw):
    width = draw(st.integers(0, 6))
    header = draw(st.lists(st.text(alphabet=',"\r\nab', max_size=3), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=8))
    return header, rows


@settings(max_examples=400, deadline=None)
@given(tables())
def test_csv_bytes_match_the_reference_writer(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
        output.write_table(new, header, rows, "csv")
        ref.write_table(old, header, rows, "csv")
        with open(new + ".csv", "rb") as a, open(old + ".csv", "rb") as b:
            assert a.read() == b.read()


def _position(sender, uav_id, tick=3, xyz=(1.0, 2.5, 3.0)):
    return AdsbMessage(sender, tick, PositionReport(uav_id, *xyz))


HAND_BUILT_LOG = [
    _position("uav0", "uav0"),
    _position("a,b", "a,b"),
    _position('say "hi"', 'say "hi"', xyz=(-0.0, float("inf"), float("nan"))),
    _position("line\nbreak", "line\nbreak"),
    _position("cr\r", "cr\r"),
    _position("relay", "uav0"),  # a sender that is not the reported UAV
    _position("uav0", "x,y"),
    _position('q"', "uav0"),
    _position("", "uav0", xyz=(1e-7, 123456789.123456789, -2.0)),
    _position("uav0", "uav0", tick=np.int64(4)),
    _position("uav0", "uav0", tick=True),
    _position("uav0", 7),
    _position(7.5, "uav0"),
    AdsbMessage("ground-station", 3, OccupancyReport((0, 2, 1))),
    AdsbMessage(
        "ground-station", 3,
        SuddenObstacleAlert(
            CuboidObstacle(Point3(1.0, 2.0, 0.0), 4.0, 5.0, 6.0, ObstacleKind.SUDDEN, "s,1"), 2
        ),
    ),
    _position("uav0", "uav0", tick=4),
    _position("a,b", "a,b", tick=4),
    _position("uav1", "uav1", tick=4),
    _position("relay", "uav1", tick=4),
    _position("uav2", "uav2", tick=4, xyz=(0.5, 0.25, 0.125)),
]


@pytest.mark.parametrize("chunk_lines", [output.ADSB_CHUNK_LINES, 1, 2])
def test_adsb_log_matches_the_reference_writer(tmp_path, monkeypatch, chunk_lines):
    monkeypatch.setattr(output, "ADSB_CHUNK_LINES", chunk_lines)
    output.emit_results(SimMetrics(n_cells=1), str(tmp_path / "new"), "csv", bus_log=HAND_BUILT_LOG)
    ref.write_table(str(tmp_path / "old"), output.ADSB_HEADER, output.adsb_rows(HAND_BUILT_LOG), "csv")
    written = (tmp_path / "new" / "adsb_log.csv").read_bytes()
    assert written == (tmp_path / "old.csv").read_bytes()
    assert written.count(b"\r\n") > len(HAND_BUILT_LOG)  # some values hold line breaks
    assert b'\r\n3,"a,b",position,"uav=a,b;x=1.000000;' in written


# Mostly rows of the table's own types, which take the one-step format.
waypoint_row = st.tuples(
    st.one_of(st.text(alphabet=',"\r\n ;|=a', max_size=6), value),
    st.one_of(st.integers(0, 10**6), value),
    *[st.one_of(st.floats(), value)] * 3,
    st.one_of(st.integers(1, 4096), value),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(waypoint_row, max_size=8))
def test_waypoint_rows_match_the_reference_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
        output._write_waypoints_csv(new, rows)
        ref.write_table(old, output.WAYPOINTS_HEADER, rows, "csv")
        with open(new + ".csv", "rb") as a, open(old + ".csv", "rb") as b:
            assert a.read() == b.read()


def test_waypoint_table_matches_the_reference_writer(tmp_path):
    metrics = SimMetrics(n_cells=3)
    metrics.executed = [
        ExecutedPath("uav0", 1, np.array([[0.0, 1.0, 2.0], [-0.0, 1e-7, 3.5]])),
        ExecutedPath('a,"b', 2, np.array([[-0.0, 1e-7, 2.0], [4.0, -1e-7, 6.0]])),
        ExecutedPath("uav0", 2, np.array([[-0.0, 1e-7, 3.5], [7.0, 8.0, 9.0]])),
        ExecutedPath("uav1", np.int64(3), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])),
        ExecutedPath("uav2", 3, np.array([[1, 2, 3], [4, 5, 6]])),  # ints, not floats
    ]
    output.emit_results(metrics, str(tmp_path / "new"), "csv")
    rows = output.waypoint_rows(metrics)
    ref.write_table(str(tmp_path / "old"), output.WAYPOINTS_HEADER, rows, "csv")
    written = (tmp_path / "new" / "waypoints.csv").read_bytes()
    assert written == (tmp_path / "old.csv").read_bytes()
    assert b'\r\n"a,""b",0,-0.000000,0.000000,2.000000,2\r\n' in written
    assert b"\r\nuav0,1,-0.000000,0.000000,3.500000,1\r\n" in written
    assert b"\r\nuav2,0,1,2,3,3\r\n" in written


# The first UAV's id needs quoting in every table that names it.
QUOTED_ID_SCENARIO = """\
airspace: {extent: [200, 200, 50], cells: [1, 1, 1]}
obstacles: []
uavs:
  - {id: 'a,"b', start: [10, 10, 10], goal: [190, 190, 40]}
  - {start: [10, 190, 20], goal: [190, 10, 30]}
"""


def test_simulate_tables_match_the_reference_writer(tmp_path, monkeypatch):
    scenario = tmp_path / "quoted.yaml"
    scenario.write_text(QUOTED_ID_SCENARIO)
    argv = ["simulate", "--scenario", str(scenario), "--seed", "1", "--out"]
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(argv + [str(new)]) == 0
    monkeypatch.setattr(output, "write_table", ref.write_table)
    monkeypatch.setattr(
        output, "_write_waypoints_csv",
        lambda path, rows: ref.write_table(path, output.WAYPOINTS_HEADER, rows, "csv"),
    )
    monkeypatch.setattr(
        output, "_write_adsb_csv",
        lambda path, log: ref.write_table(path, output.ADSB_HEADER, output.adsb_rows(log), "csv"),
    )
    assert main(argv + [str(old)]) == 0
    names = sorted(os.listdir(new))
    assert names == sorted(os.listdir(old)) and len(names) == 6
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    assert (new / "lengths.csv").read_bytes().startswith(b'uav_id,length_m,arrived\r\n"a,""b",')
