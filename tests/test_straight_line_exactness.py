"""Exactness of the obstacle-free straight-line check.

An entered cell without obstacles is flown on the straight line from the
entry to the exit point whenever that line is feasible. `World._fine_plan`
decides this on float triples with `pso._obstacle_free_feasible`, which must
agree with the kernel, `feasibility_penalty(path, constraints, []) == 0.0`,
on every input. The cases aim at the rules' edges: entry == target (zero
lengths), vertical lines (no horizontal heading), limits a few ulps either
side of the path's own pitch, segment length, total length and turn (for
pitch and turn, the smallest limit the kernel passes, found by bisection),
grid turns and a vertical segment exactly at a limit, and end points on the
cell faces or outside the cell.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skygrid import pso
from skygrid.geometry import Point3
from skygrid.pso import ConstraintParams, feasibility_penalty
from skygrid.sampling import straight_points

LO = (100.0, 200.0, 0.0)
HI = (300.0, 400.0, 50.0)
# Coordinates on and just beside the cell faces, and across the cell.
FACES = [LO[0], HI[0], LO[1], HI[1], LO[2], HI[2], 150.0, 20.0, 350.0]
DEFAULT = ConstraintParams()


def kernel_passes(points, **limits) -> bool:
    """The kernel's verdict on a path under `limits`, every other limit loose
    and the cell box around the points."""
    w = np.array(points)
    loose = {"l_max": 1e300, "L_max": 1e300, "pa_max": 90.0, "ta_max": 180.0}
    c = ConstraintParams(**{**loose, **limits}, bounds_lo=w.min(0) - 1.0, bounds_hi=w.max(0) + 1.0)
    return feasibility_penalty(w, c, []) == 0.0


def smallest_passing_limit(points, name: str, loosest: float) -> float:
    """The smallest float `name` limit at which the kernel passes the path,
    by bisection over the bit patterns of the positive floats: 0.0 if every
    positive limit passes, NaN if not even `loosest` does."""
    if not kernel_passes(points, **{name: loosest}):
        return math.nan
    lo, hi = 0, _bits(loosest)  # 0.0 is no limit; `loosest` passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if kernel_passes(points, **{name: _float(mid)}):
            hi = mid
        else:
            lo = mid
    return 0.0 if hi == 1 else _float(hi)


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def kernel_figure(points, name: str) -> float:
    """The path's own figure for one limit; the limits are set around it. The
    largest segment length and the total length by the kernel's formulas;
    for pitch and turn, whose thresholds are sines, the smallest limit at
    which the kernel passes the path."""
    if name == "pa_max":
        return smallest_passing_limit(points, name, 90.0)
    if name == "ta_max":
        return smallest_passing_limit(points, name, 180.0)
    d = np.diff(np.array(points), axis=0)
    lengths = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
    return float(np.max(lengths, initial=0.0) if name == "l_max" else np.add.reduce(lengths))


def nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


@st.composite
def limits(draw, points):
    """Each limit either a free value or the path's own figure moved by a few
    ulps (0 ulps: the path is exactly at the limit, which the rule allows)."""
    out = {}
    for name, default in (("l_max", 40.0), ("L_max", 400.0), ("pa_max", 45.0), ("ta_max", 60.0)):
        figure = kernel_figure(points, name) if draw(st.booleans()) else 0.0
        if figure > 0.0 and math.isfinite(figure):
            out[name] = nudge(figure, draw(st.integers(-3, 3)))
        else:
            out[name] = draw(st.sampled_from([default, 1e-9, 90.0, 180.0, 1e6]))
    return out


coordinate = st.one_of(
    st.sampled_from(FACES),
    st.floats(-50.0, 450.0, allow_nan=False),
    st.sampled_from(FACES).map(lambda v: math.nextafter(v, math.inf)),
    st.sampled_from(FACES).map(lambda v: math.nextafter(v, -math.inf)),
)


@st.composite
def straight_lines(draw):
    entry = Point3(*(draw(coordinate) for _ in range(3)))
    shape = draw(st.sampled_from(["free", "same", "vertical", "flat"]))
    if shape == "same":
        target = entry
    elif shape == "vertical":
        target = Point3(entry.x, entry.y, draw(coordinate))
    elif shape == "flat":
        target = Point3(draw(coordinate), draw(coordinate), entry.z)
    else:
        target = Point3(*(draw(coordinate) for _ in range(3)))
    count = draw(st.sampled_from([2, 3, 10, 17]))
    points = straight_points(entry, target, count)
    constraints = ConstraintParams(**draw(limits(points)), bounds_lo=np.array(LO), bounds_hi=np.array(HI))
    return points, constraints


def agrees(points, constraints) -> bool:
    want = feasibility_penalty(np.array(points), constraints, []) == 0.0
    return pso._obstacle_free_feasible(points, constraints) == want


@settings(max_examples=1500, deadline=None)
@given(case=straight_lines())
def test_straight_line_check_matches_the_kernel(case):
    assert agrees(*case)


def test_check_matches_the_kernel_at_each_limit():
    # Every limit at the path's own figure and one ulp either side: the figure
    # itself passes, one ulp below fails. A straight climb through the cell,
    # and a bent path for the turn.
    climb = straight_points(Point3(100.0, 210.0, 1.0), Point3(300.0, 390.0, 49.0), 10)
    bent = [(110.0, 210.0, 10.0), (130.0, 215.0, 12.0), (150.0, 230.0, 13.0), (160.0, 260.0, 13.0)]
    for points, names in ((climb, ("l_max", "L_max", "pa_max")), (bent, ("l_max", "L_max", "pa_max", "ta_max"))):
        for name in names:
            figure = kernel_figure(points, name)
            verdicts = []
            for ulps in (-1, 0, 1):
                c = ConstraintParams(**{name: nudge(figure, ulps)}, bounds_lo=LO, bounds_hi=HI)
                assert agrees(points, c), (name, ulps)
                verdicts.append(pso._obstacle_free_feasible(points, c))
            assert verdicts == [False, True, True], name


@pytest.mark.parametrize(
    "points,limit,feasible",
    [
        ([(150.0, 250.0, 10.0), (170.0, 250.0, 10.0), (170.0, 270.0, 10.0)], {"ta_max": 90.0}, True),
        ([(150.0, 250.0, 10.0), (170.0, 250.0, 10.0), (150.0, 250.0, 10.0)], {"ta_max": 180.0}, True),
        ([(150.0, 250.0, 10.0), (150.0, 250.0, 40.0)], {"pa_max": 90.0}, True),
        # Grid turns of exactly the limit, where the rounding of the threshold
        # decides: the 45° turn passes, the 135° turn from a diagonal fails.
        ([(150.0, 250.0, 10.0), (170.0, 250.0, 10.0), (190.0, 270.0, 10.0)], {"ta_max": 45.0}, True),
        ([(150.0, 250.0, 10.0), (153.0, 253.0, 10.0), (152.0, 253.0, 10.0)], {"ta_max": 135.0}, False),
    ],
    ids=["right-angle-at-90", "reversal-at-180", "vertical-at-90", "grid-45-at-45", "grid-135-at-135"],
)
def test_grid_angles_at_the_limit(points, limit, feasible):
    c = ConstraintParams(**limit, bounds_lo=LO, bounds_hi=HI)
    assert (feasibility_penalty(np.array(points), c, []) == 0.0) is feasible
    assert pso._obstacle_free_feasible(points, c) is feasible


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), repeat=st.sampled_from([0.0, 0.2]),
    data=st.data(),
)
def test_any_polyline_check_matches_the_kernel(seed, count, repeat, data):
    """Not only straight lines: random polylines in and around the cell, with
    repeated points (zero lengths) and points straight above the previous one."""
    rng = np.random.default_rng(seed)
    w = rng.uniform([80.0, 180.0, -5.0], [320.0, 420.0, 55.0], (count, 3))
    for i in range(1, count):
        if rng.random() < repeat:
            w[i] = w[i - 1]
        elif rng.random() < repeat:
            w[i, :2] = w[i - 1, :2]
    points = [tuple(p) for p in w.tolist()]
    assert agrees(points, DEFAULT)
    assert agrees(points, ConstraintParams(**data.draw(limits(points)), bounds_lo=LO, bounds_hi=HI))
