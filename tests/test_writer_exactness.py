"""Exactness of the CSV result writer.

`output.write_table` joins a row's values with commas and hands only a row
that needs quoting to `csv.writer`. It must write the same bytes as the
frozen writer in `reference_kernels.py`, which passes every row through
`csv.writer`: for values with commas, quotes, CR and LF, empty strings,
bools, ints, numpy scalars, -0.0, infinities and NaN, and for every table of
a `simulate` run whose UAV id holds a comma and a quote.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from skygrid import output
from skygrid.cli import main

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
    assert main(argv + [str(old)]) == 0
    names = sorted(os.listdir(new))
    assert names == sorted(os.listdir(old)) and len(names) == 6
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    assert (new / "lengths.csv").read_bytes().startswith(b'uav_id,length_m,arrived\r\n"a,""b",')
