"""Exactness of the obstacle-free straight-line check.

An entered cell without obstacles is flown on the straight line from the
entry to the exit point whenever that line is feasible. `World._fine_plan`
decides this on float triples with `pso._obstacle_free_feasible`, which must
agree with the kernel, `feasibility_penalty(path, constraints, []) == 0.0`,
on every input. The cases aim at the rules' edges: entry == target (zero
lengths), vertical lines (no horizontal heading), limits a few ulps either
side of the path's own pitch, segment length, total length and turn, and
end points on the cell faces or outside the cell.
"""

import math

import numpy as np
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


def kernel_figures(points) -> dict[str, float]:
    """The largest segment length, |pitch| and turn, and the total length of a
    path, with the kernel's formulas: the limits are set around these."""
    w = np.array(points)
    d = np.diff(w, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lengths = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
        pitch = np.abs(np.degrees(np.arcsin(np.clip(d[:, 2] / lengths, -1.0, 1.0))))
        hn = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        dot = d[:-1, 0] * d[1:, 0] + d[:-1, 1] * d[1:, 1]
        turn = np.degrees(np.arccos(np.clip(dot / (hn[:-1] * hn[1:]), -1.0, 1.0)))
    return {
        "l_max": float(np.nanmax(lengths, initial=0.0)),
        "L_max": float(np.add.reduce(lengths)),
        "pa_max": float(np.nanmax(pitch, initial=0.0)),
        "ta_max": float(np.nanmax(turn, initial=0.0)),
    }


def nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


@st.composite
def limits(draw, points):
    """Each limit either a free value or the path's own figure moved by a few
    ulps (0 ulps: the path is exactly at the limit, which `>` allows)."""
    figures = kernel_figures(points)
    out = {}
    for name, default in (("l_max", 40.0), ("L_max", 400.0), ("pa_max", 45.0), ("ta_max", 60.0)):
        figure = figures[name]
        if figure > 0.0 and math.isfinite(figure) and draw(st.booleans()):
            out[name] = nudge(figure, draw(st.integers(-3, 3)))
        else:
            out[name] = draw(st.sampled_from([default, 1e-9, 90.0, 1e6]))
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
    # Every limit at the path's own figure and one ulp either side: `>` lets
    # the figure itself pass. A straight climb through the cell, and a bent
    # path for the turn.
    climb = straight_points(Point3(100.0, 210.0, 1.0), Point3(300.0, 390.0, 49.0), 10)
    bent = [(110.0, 210.0, 10.0), (130.0, 215.0, 12.0), (150.0, 230.0, 13.0), (160.0, 260.0, 13.0)]
    for points, names in ((climb, ("l_max", "L_max", "pa_max")), (bent, ("l_max", "L_max", "pa_max", "ta_max"))):
        figures = kernel_figures(points)
        for name in names:
            verdicts = []
            for ulps in (-1, 0, 1):
                c = ConstraintParams(**{name: nudge(figures[name], ulps)}, bounds_lo=LO, bounds_hi=HI)
                assert agrees(points, c), (name, ulps)
                verdicts.append(pso._obstacle_free_feasible(points, c))
            assert verdicts == [False, True, True], name


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
