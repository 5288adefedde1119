"""Exactness of the simulation's per-UAV bookkeeping.

`resample_polyline`, `straight_points` and the tick (`World.step`,
`_advance`, `_record_tick`) do their scalar work in Python floats instead of
small numpy arrays. They are compared bit for bit with frozen copies of the
numpy code (`reference_kernels.py`): paths of two points, of eight or more
segments (where numpy's sum of the segment lengths turns pairwise), with
zero-length segments, with no length at all, with tied fractional shares and
with no interval to spare; and, after every tick, every UAV's position,
flown length, next waypoint and phase, the bus log, the events and the
per-cell peak occupancy (`max_occupancy`, which the tick raises cell by cell
instead of with `np.maximum`), on an obstacle-free fleet, a staggered fleet
on a lossy bus, a repair mid-leg and UAVs fast enough to cross several
waypoints and a face in one tick.

The tick takes each gap as `sqrt((x*x + y*y) + z*z)`, which IEEE 754 rounds
the same on every host. The frozen tick takes it as `sqrt(d.dot(d))`, BLAS's
dot kernel, which is that formula only where the kernel fuses no
multiply-add. So the lockstep tests run in a child process under
`OPENBLAS_CORETYPE=Nehalem`, an OpenBLAS kernel without FMA, once the child
has checked that its `ndarray.dot` is the formula; where it is not (a host
that is not x86, or a BLAS that ignores the variable), they skip.

Last, the tick must give the same bits whatever BLAS kernel or SIMD dispatch
the host picks: two scenarios run in child processes under the default
environment, `OPENBLAS_CORETYPE=Nehalem` and numpy without its AVX-512 loops,
and after every tick every UAV's position and flown length and every executed
waypoint must be the same bits in all three. So must every table of the
golden `skygrid plan-sub --seed 1` run, which plans with the swarm and its
kernel.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import types
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from skygrid.cli import main
from skygrid.geometry import Point3
from skygrid.sampling import resample_polyline, straight_points
from skygrid.scenario import load_scenario
from skygrid.sim import Mode, UavPhase, World

TESTS = Path(__file__).resolve().parent
SKIP = 77  # a child's exit status when the host cannot run what it was asked to

# Imports numpy first, so that numpy's warning about an environment variable
# naming CPU features it cannot disable says why the child cannot run.
CHILD = """\
import sys, warnings
sys.path[:0] = {paths!r}
with warnings.catch_warnings():
    warnings.simplefilter("error", ImportWarning)
    try:
        import numpy
    except ImportWarning as w:
        print(w)
        sys.exit({skip})
import test_bookkeeping_exactness as t
{call}
"""


def in_child(call: str, env: dict[str, str]) -> str:
    """Run `call`, a statement on this module as `t`, in a new Python process
    whose environment is this one's plus `env`, and return what it printed.
    The test skips, with the child's reason, if the child exits with SKIP."""
    code = CHILD.format(paths=[str(TESTS.parent / "src"), str(TESTS)], skip=SKIP, call=call)
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, **env}, capture_output=True, text=True, timeout=600
    )
    if proc.returncode == SKIP:
        pytest.skip(f"{env}: {' '.join(proc.stdout.split())}")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


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
def test_straight_points_match_reference(a, b, count):
    start, goal = Point3(*a), Point3(*b)
    assert same_bits(np.array(straight_points(start, goal, count)), ref.straight_waypath(start, goal, count))


def test_resample_polyline_rejects_what_the_reference_rejects():
    path = np.zeros((5, 3))
    for count in (1, 4):
        with pytest.raises(ValueError) as fast:
            resample_polyline(path, count)
        with pytest.raises(ValueError) as frozen:
            ref.resample_polyline(path, count)
        assert str(fast.value) == str(frozen.value)


def frozen_world(text: str) -> World:
    """A World that ticks with the frozen `step`, `_advance` and `_record_tick`."""
    world = World(load_scenario(text), Mode.SSP)
    for name, kernel in (("step", ref.step), ("_advance", ref.advance), ("_record_tick", ref.record_tick)):
        setattr(world, name, types.MethodType(kernel, world))
    return world


def snapshot(uav):
    return uav.phase, uav.current_cell, uav.next_waypoint_index, uav.xyz, uav.route


def dot_is_the_formula() -> None:
    """Exit with SKIP unless `ndarray.dot` of a 3-vector is `(x*x + y*y) + z*z`
    in this process, on random legs of which about a fifth differ under
    OpenBLAS's SkylakeX kernel."""
    legs = np.random.default_rng(0).uniform(-100.0, 100.0, size=(20000, 3))
    differ = sum(float(v.dot(v)) != (x * x + y * y) + z * z for v, (x, y, z) in zip(legs, legs.tolist()))
    if differ:
        print(f"ndarray.dot is not (x*x + y*y) + z*z on {differ} of {len(legs)} legs here, "
              "so the frozen tick's gaps are not the tick's: not an x86 OpenBLAS, or one "
              "that ignores OPENBLAS_CORETYPE")
        sys.exit(SKIP)


def under_nehalem(check):
    """The test `check`, run in a child process under OPENBLAS_CORETYPE=Nehalem."""

    @functools.wraps(check)
    def test():
        in_child(f"t.dot_is_the_formula(); t.{check.__name__}.__wrapped__()", {"OPENBLAS_CORETYPE": "Nehalem"})

    return test


def fly_both(text: str):
    """Tick a World and its frozen twin in lockstep. After every tick, every
    UAV's position bits, flown length, next waypoint and phase, the new bus
    messages and events, and the per-cell peak occupancy must be the same. Returns the World and, per tick,
    each UAV's (before, after) snapshot."""
    scenario = load_scenario(text)
    fast, frozen = World(scenario, Mode.SSP), frozen_world(text)
    ticks = []
    while not fast.done() and fast.tick < scenario.max_ticks:
        before = [snapshot(u) for u in fast.uavs]
        k, e = len(fast.bus.log), len(fast.metrics.events)
        fast.step(scenario.dt)
        frozen.step(scenario.dt)
        for a, b in zip(fast.uavs, frozen.uavs):
            assert same_bits(a.position, b.position), (fast.tick, a.id)
            assert a.flown_length.hex() == b.flown_length.hex(), (fast.tick, a.id)
            assert a.next_waypoint_index == b.next_waypoint_index, (fast.tick, a.id)
            assert a.phase is b.phase, (fast.tick, a.id)
        assert len(fast.bus.log) == len(frozen.bus.log) and fast.bus.log[k:] == frozen.bus.log[k:]
        assert fast.metrics.events[e:] == frozen.metrics.events[e:]
        assert same_bits(fast.metrics.max_occupancy, frozen.metrics.max_occupancy), fast.tick
        ticks.append(list(zip(before, map(snapshot, fast.uavs))))
    assert frozen.done() and frozen.tick == fast.tick
    return fast, ticks


FLEET = "random_uavs: {count: 20, min_cell_separation: 5}\nobstacles: []\nseed: 4\n"


@under_nehalem
def test_every_tick_matches_the_frozen_advance():
    _, ticks = fly_both(FLEET)
    assert len(ticks) > 100


@under_nehalem
def test_staggered_lossy_fleet_ticks_match_the_frozen_tick():
    text = "random_uavs: {count: 12, min_cell_separation: 5}\nobstacles: []\nstagger: 3\nloss_rate: 0.3\nseed: 5\n"
    world, _ = fly_both(text)
    assert world.uavs[-1].takeoff_tick == 33
    assert all(u.phase is UavPhase.ARRIVED for u in world.uavs)


# Two UAVs across two cells; at seed 3 one of them repairs around the cube
# injected at tick 6.
REPAIR = """\
airspace: {extent: [400, 200, 50], cells: [2, 1, 1]}
obstacles:
  - {anchor: [60, 20, 0], lengths: [30, 30, 50]}
uavs:
  - {start: [10, 100, 10], goal: [390, 100, 10]}
  - {start: [10, 60, 20], goal: [390, 150, 30]}
injections:
  - {tick: 6, obstacle: {anchor: [95, 95, 5], lengths: [12, 12, 12]}}
seed: 3
"""


@under_nehalem
def test_a_mid_leg_repair_matches_the_frozen_tick():
    world, ticks = fly_both(REPAIR)
    (repaired,) = [e["who"] for e in world.metrics.events if e["kind"] == "repair"]
    i = [u.id for u in world.uavs].index(repaired)
    (_, _, nxt, xyz, route), _ = ticks[6][i]
    assert xyz != route[nxt - 1] and xyz != route[nxt]  # between two waypoints


@under_nehalem
def test_fast_uavs_cross_waypoints_and_faces_as_the_frozen_tick():
    world, ticks = fly_both("random_uavs: {count: 8, min_cell_separation: 5, speed: 60}\nobstacles: []\nseed: 6\n")
    crossed = spare = 0
    for (phase, cell, nxt, _, _), (phase_after, cell_after, nxt_after, xyz, route) in chain(*ticks):
        if phase is not UavPhase.FLYING or phase_after is not UavPhase.FLYING:
            continue
        if cell_after == cell:
            crossed = max(crossed, nxt_after - nxt)
        elif xyz != route[0]:
            spare += 1  # entered a cell and flew on in the same tick
    assert crossed >= 3 and spare > 0


def tick_bits(text: str) -> list[str]:
    """Per tick, a digest of the bits of every UAV's position and flown length
    and of every waypoint committed in that tick."""
    scenario = load_scenario(text)
    world = World(scenario, Mode.SSP)
    digests = []
    while not world.done() and world.tick < scenario.max_ticks:
        committed = len(world.metrics.executed)
        world.step(scenario.dt)
        floats = [v for u in world.uavs for v in (*u.xyz, u.flown_length)]
        floats += [v for path in world.metrics.executed[committed:] for v in path.waypoints.ravel().tolist()]
        digests.append(hashlib.sha256(" ".join(map(float.hex, floats)).encode()).hexdigest())
    return digests


def print_tick_bits() -> None:
    print(json.dumps({"fleet": tick_bits(FLEET), "repair": tick_bits(REPAIR)}))


@pytest.fixture(scope="module")
def default_tick_bits():
    return json.loads(in_child("t.print_tick_bits()", {}))


def print_golden_hashes() -> None:
    """The SHA-256 of every table that the golden `skygrid plan-sub --seed 1` writes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["plan-sub", "--seed", "1", "--out", out]) == 0
        tables = sorted(Path(out).iterdir())
        print(json.dumps({t.name: hashlib.sha256(t.read_bytes()).hexdigest() for t in tables}))


@pytest.fixture(scope="module")
def default_golden_hashes():
    return json.loads(in_child("t.print_golden_hashes()", {}))


def in_host_child(call: str, env: dict[str, str]):
    """`in_child` under another host's `env`, its printed JSON decoded."""
    if "OPENBLAS_CORETYPE" in env and platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86 kernels; this host is {platform.machine()}")
    return json.loads(in_child(call, env))


OTHER_HOSTS = pytest.mark.parametrize(
    "env",
    [{"OPENBLAS_CORETYPE": "Nehalem"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}],
    ids=["openblas-nehalem", "numpy-without-avx512"],
)


@OTHER_HOSTS
def test_tick_bits_do_not_depend_on_the_host(env, default_tick_bits):
    got = in_host_child("t.print_tick_bits()", env)
    for name, want in default_tick_bits.items():
        assert len(got[name]) == len(want), name
        differ = [tick for tick, (a, b) in enumerate(zip(got[name], want)) if a != b]
        assert not differ, f"{name}: bits differ from the default environment's from tick {differ[0]}"


@OTHER_HOSTS
def test_golden_tables_do_not_depend_on_the_host(env, default_golden_hashes):
    assert in_host_child("t.print_golden_hashes()", env) == default_golden_hashes
