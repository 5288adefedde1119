"""Exactness of the simulation's per-UAV bookkeeping.

`resample_polyline`, `straight_waypath` and `World._advance` do their scalar
work in Python floats instead of small numpy arrays. They are compared bit
for bit with frozen copies of the numpy code (`reference_kernels.py`): paths
of two points, of eight or more segments (where numpy's sum of the segment
lengths turns pairwise), with zero-length segments, with no length at all,
with tied fractional shares and with no interval to spare; and every UAV's
position and flown length after every tick of an obstacle-free fleet.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from skygrid.geometry import Point3
from skygrid.sampling import resample_polyline, straight_waypath
from skygrid.scenario import load_scenario
from skygrid.sim import Mode, World


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Few distinct values, so that zero-length and equal-length segments (tied
# remainders) come up often; plus arbitrary floats.
GRID_VALUES = [0.0, 1.0, 2.0, 3.0, 10.0, 200.0]
coord = st.one_of(
    st.sampled_from(GRID_VALUES),
    st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coord, coord, coord)


@st.composite
def polylines(draw):
    shape = draw(st.sampled_from(["two", "short", "long", "still"]))
    n = {"two": 2, "short": draw(st.integers(3, 8)), "long": draw(st.integers(9, 30)),
         "still": draw(st.integers(2, 12))}[shape]
    if shape == "still":
        pts = [draw(point)] * n
    else:
        pts = [draw(point)]
        for _ in range(n - 1):
            # Repeat the previous point now and then: a zero-length segment.
            pts.append(pts[-1] if draw(st.integers(0, 5)) == 0 else draw(point))
    # count == n is n_seg + 1: no interval to spare.
    count = draw(st.one_of(st.just(n), st.integers(max(n, 2), 3 * n + 20)))
    return np.array(pts, dtype=float), count


@settings(max_examples=400, deadline=None)
@given(case=polylines())
def test_resample_polyline_matches_reference(case):
    path, count = case
    assert same_bits(resample_polyline(path, count), ref.resample_polyline(path, count))


@pytest.mark.parametrize(
    "path,count",
    [
        # Four equal segments, two spare intervals: the earlier segments win the tie.
        ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1)], 7),
        # All-zero path: total == 0 shares the intervals evenly.
        ([(5, 5, 5)] * 4, 10),
        ([(0, 0, 0)] * 9, 40),
        # Nine segments with no spare interval.
        ([(float(i), float(i % 2), 0.0) for i in range(10)], 10),
        # A single point is repeated.
        ([(1.0, 2.0, 3.0)], 5),
    ],
)
def test_resample_polyline_matches_reference_on_edge_cases(path, count):
    path = np.array(path, dtype=float)
    assert same_bits(resample_polyline(path, count), ref.resample_polyline(path, count))


def test_resample_polyline_matches_reference_on_mirrored_segments():
    # The second segment has the first one's components in reverse order: its
    # length differs from the first's exactly when the order in which the
    # squares are added matters (about one draw in eight here), and then the
    # longer one takes the spare point. Full-mantissa draws, unlike most of
    # hypothesis's floats.
    rng = np.random.default_rng(0)
    for d in rng.uniform(-100.0, 100.0, size=(300, 3)):
        path = np.array([np.zeros(3), d, d + d[::-1]])
        for count in (4, 6):
            assert same_bits(resample_polyline(path, count), ref.resample_polyline(path, count))


def along_x(*hex_xs):
    return [(float.fromhex(x), 0.0, 0.0) for x in hex_xs]


# Paths of eight or more segments, two of them one ulp apart, on which a
# running sum of the lengths instead of numpy's pairwise one moves a point.
PAIRWISE_SUM_CASES = [
    (along_x("0x0.0p+0", "0x1.51636a0176d1bp+6", "-0x1.1c17b0c0f19c0p+3", "0x1.551fa79b82b5ep+6",
             "0x1.27ea1744426bap+5", "0x1.1ee48cb5118cap+6", "-0x1.a30d52d896114p+4",
             "0x1.99fa61b4979e8p+3", "-0x1.4a6bacc7ff0acp+5", "-0x1.e10af4a36c5a0p+1",
             "-0x1.e592646df5cb7p+4", "-0x1.e10af4a36c598p+1", "-0x1.2e341c2ca5e0dp+6"), 28),
    (along_x("0x0.0p+0", "0x1.1c3927a07e9aep+5", "-0x1.ec7404327c2c0p+3", "0x1.e7804dc2d2b88p+2",
             "-0x1.c8a8d3c9b62c0p+4", "0x1.ec1f610af4ff6p+5", "-0x1.a2428faf10dc0p+4",
             "0x1.9f5489932f71ep+4", "-0x1.a2428faf10dc2p+4"), 21),
]


@pytest.mark.parametrize("path,count", PAIRWISE_SUM_CASES)
def test_resample_polyline_keeps_the_pairwise_total(path, count):
    path = np.array(path)
    assert same_bits(resample_polyline(path, count), ref.resample_polyline(path, count))


@settings(max_examples=300, deadline=None)
@given(a=point, b=point, count=st.integers(2, 60))
def test_straight_waypath_matches_reference(a, b, count):
    start, goal = Point3(*a), Point3(*b)
    assert same_bits(
        straight_waypath(start, goal, count).waypoints, ref.straight_waypath(start, goal, count)
    )


def test_resample_polyline_rejects_what_the_reference_rejects():
    path = np.zeros((5, 3))
    for count in (1, 4):
        with pytest.raises(ValueError) as fast:
            resample_polyline(path, count)
        with pytest.raises(ValueError) as frozen:
            ref.resample_polyline(path, count)
        assert str(fast.value) == str(frozen.value)


FLEET = "random_uavs: {count: 20, min_cell_separation: 5}\nobstacles: []\nseed: 4\n"


def test_every_tick_matches_the_frozen_advance():
    scenario = load_scenario(FLEET)
    fast = World(scenario, Mode.SSP)
    frozen = World(load_scenario(FLEET), Mode.SSP)
    frozen._advance = types.MethodType(ref.advance, frozen)
    while not fast.done() and fast.tick < scenario.max_ticks:
        fast.step(scenario.dt)
        frozen.step(scenario.dt)
        for a, b in zip(fast.uavs, frozen.uavs):
            assert same_bits(a.position, b.position), (fast.tick, a.id)
            assert a.flown_length.hex() == b.flown_length.hex(), (fast.tick, a.id)
            assert a.phase is b.phase
    assert frozen.done() and fast.tick > 100
    assert fast.metrics.events == frozen.metrics.events
