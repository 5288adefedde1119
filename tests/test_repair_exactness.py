"""Exactness of the sudden-obstacle repair on float triples.

`replan.repair` and the splice in `World.inject_sudden_obstacle` work on the
float triples a route is kept in. Each case here runs a seeded reference-cell
World beside a twin whose `inject_sudden_obstacle` is the frozen array-based
copy in `reference_kernels.py` (its repair on a (J, 3) array, its detour from
the frozen per-draw Bi-RRT, its splice through `np.array_equal` and
`np.vstack`). After the injection and after the rest of the flight, the two
must agree on the installed route, the bytes of every recorded path, the
events and the UAV's whole generator state.
"""

import types

import pytest

import reference_kernels as ref
from conftest import assert_float_triples, make_sudden
from skygrid import sampling
from skygrid.scenario import Mode, single_cell_scenario
from skygrid.sim import UavPhase, World

SEEDS = range(6)
CUBE_SIDE = 10.0  # perfbench's cell-repair cube


def _middle(uav):
    return uav.route[len(uav.route) // 2]


def _ahead(uav):
    return uav.route[uav.next_waypoint_index]


def _last(uav):
    return uav.route[-1]


# name -> (the waypoint a cube is centred on; ticks flown after tick 1
# before the cubes drop; whether the waypoint is read then rather than on
# tick 1; cubes dropped one after another in that tick)
CASES = {
    # perfbench's cell-repair request: plan on tick 1, then the cube on the
    # committed path's middle waypoint.
    "middle": (_middle, 0, False, 1),
    # The same cube after 1-5 more ticks of flight.
    **{f"middle after {k}": (_middle, k, False, 1) for k in range(1, 6)},
    # On the waypoint being flown to, read when the cube drops: the bracket
    # starts at the position, so the detour leaves from it. A second cube on
    # the new waypoint ahead finds the position already a vertex.
    **{f"ahead after {k}": (_ahead, k, True, 1) for k in range(0, 6)},
    **{f"ahead twice after {k}": (_ahead, k, True, 2) for k in (0, 3)},
    # Over the route's last waypoint, the goal: no bracket, and no re-plan.
    "last": (_last, 0, False, 1),
}


def _worlds(seed):
    sc = single_cell_scenario(seed=seed)
    world, twin = World(sc, Mode.SSP), World(sc, Mode.SSP)
    twin.inject_sudden_obstacle = types.MethodType(ref.inject_sudden_obstacle, twin)
    return world, twin


def _state(world):
    uav = world.uavs[0]
    return (
        uav.route,
        uav.next_waypoint_index,
        uav.phase,
        uav.xyz,
        uav.rng.bit_generator.state,
        [(ex.uav_id, ex.cell, ex.waypoints.tobytes()) for ex in world.metrics.executed],
        world.metrics.events,
    )


def _branch(uav, wp, nxt, xyz):
    """Which way the splice of route wp (next index nxt, position xyz) went."""
    if uav.route is wp or uav.phase is not UavPhase.FLYING:
        return None
    # A detour leaving after the position keeps the waypoint flown to at its index.
    if uav.route[nxt] == wp[nxt]:
        return "after"
    return "from vertex" if xyz == wp[nxt - 1] else "from"


def _run_case(seed, where, ticks, read_late, drops):
    world, twin = _worlds(seed)
    for w in (world, twin):
        w.step()
    uav = world.uavs[0]
    assert uav.phase is UavPhase.FLYING
    center = where(uav)
    for _ in range(ticks):
        for w in (world, twin):
            w.step()
    if uav.phase is not UavPhase.FLYING:
        return None
    branches = []
    for _ in range(drops):
        if read_late:
            center = where(uav)
        wp, nxt, xyz = uav.route, uav.next_waypoint_index, uav.xyz
        ob = make_sudden(center, side=CUBE_SIDE)
        for w in (world, twin):
            w.inject_sudden_obstacle(ob, w.tick)
        branches.append(_branch(uav, wp, nxt, xyz))
    after_injection = (_state(world), _state(twin))
    events = [e["kind"] for e in world.metrics.events]
    for w in (world, twin):
        w.run()
    return after_injection, (_state(world), _state(twin)), branches, events


@pytest.fixture(scope="module")
def outcomes():
    with pytest.MonkeyPatch.context() as mp:
        # The frozen per-draw Bi-RRT measures with today's `_dist`, as in
        # test_kernel_exactness.py: what is compared is the draws and the tree.
        mp.setattr(ref, "_dist", sampling._dist)
        return {
            (name, seed): _run_case(seed, *CASES[name]) for name in CASES for seed in SEEDS
        }


@pytest.mark.parametrize("name", CASES)
def test_repair_and_splice_match_the_frozen_array_code(outcomes, name):
    ran = 0
    for seed in SEEDS:
        outcome = outcomes[(name, seed)]
        if outcome is None:
            continue  # the flight ended before the cube dropped
        (got, want), (got_end, want_end), _, _ = outcome
        assert got == want, (name, seed)
        assert got_end == want_end, (name, seed)
        ran += 1
    assert ran >= len(SEEDS) // 2


def test_the_installed_route_is_float_triples(outcomes):
    (got, _), _, branches, _ = outcomes[("middle", 0)]
    route = got[0]
    assert branches == ["after"]
    assert type(route) is tuple
    assert_float_triples(route)


def test_every_splice_branch_runs(outcomes):
    branches = {b for o in outcomes.values() if o is not None for b in o[2]}
    assert {"after", "from", "from vertex"} <= branches


def test_a_cube_over_the_goal_fails_the_repair_and_the_replan(outcomes):
    for seed in SEEDS:
        _, _, branches, events = outcomes[("last", seed)]
        assert events[-3:] == ["sudden_obstacle", "repair_failed", "replan_failed"], seed
        assert branches == [None]
