"""Fuzz test of the scenario loader's contract.

`load_scenario` takes YAML trees over the known keys whose values may be of
the wrong type, out of range, non-finite, boolean or nested lists. It must
return a `Scenario` (which a `World` accepts) or raise `ParseError` or
`ValidationError`, and nothing else: anything else would reach the CLI as a
planning failure or a traceback instead of exit code 2.
"""

import math

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from skygrid.coarse import SspParams
from skygrid.pso import CostParams, SwarmParams
from skygrid.sampling import RrtParams
from skygrid.scenario import (
    ParseError,
    Scenario,
    BOUNDS,
    ValidationError,
    load_scenario,
    parse_mode,
)
from skygrid.sim import World

# Values that break a field: other types, non-finite floats, booleans,
# nesting, and numbers just past each end of a bounds-table range.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, "", "x", "SSP", 10**12, -(10**12), 1e300]),
    st.sampled_from(sorted(
        {high + 1 for _, high in BOUNDS.values() if high is not None}
        | {low - 1 for low, _ in BOUNDS.values() if low is not None}
    )),
    st.lists(st.one_of(st.integers(-2, 3), st.lists(st.integers(0, 2), max_size=2)), max_size=4),
    st.dictionaries(st.sampled_from(["count", "x"]), st.integers(-1, 3), max_size=2),
)
# Small numbers, so that whatever loads stays cheap to generate.
number = st.one_of(st.integers(-3, 12), st.floats(-5.0, 300.0, allow_nan=False))
leaf = st.one_of(number, junk)


def mostly(valid, other=leaf):
    """`valid` five times in six, otherwise `other`: most trees then get past
    the first checks and reach the later ones."""
    return st.integers(0, 5).flatmap(lambda k: other if k == 0 else valid)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def vector(*coords):
    return mostly(st.tuples(*coords).map(list))


def mapping(fields):
    """Some of the known fields, now and then an unknown one."""
    return mostly(mostly(
        st.fixed_dictionaries({}, optional=fields),
        st.fixed_dictionaries({"bogus": leaf}, optional=fields),
    ))


def small_list(item):
    return mostly(st.lists(item, max_size=3))


def obstacle(kind):
    return mapping({
        "anchor": vector(floats(0, 900), floats(0, 900), st.sampled_from([0.0, 10.0])),
        "lengths": vector(floats(1, 60), floats(1, 60), floats(1, 60)),
        "kind": mostly(st.sampled_from([kind, "static", "sudden"])),
        "id": mostly(st.text(max_size=3)),
    })


def section(cls):
    return mapping({f: mostly(number) for f in cls.__dataclass_fields__})


position = vector(floats(0, 200), floats(0, 200), floats(0, 50))
ordered_pair = st.tuples(floats(1, 100), floats(1, 100)).map(sorted)

SCENARIO_KEYS = {
    "airspace": mapping({
        "extent": vector(*[st.sampled_from([200.0, 1000.0]) | floats(1, 1000)] * 3),
        "cells": vector(*[st.integers(1, 4)] * 3),
    }),
    "obstacles": small_list(obstacle("static")),
    "random_obstacles": mapping({
        "count": mostly(st.integers(0, 4)),
        "height_range": mostly(ordered_pair),
        "footprint_range": mostly(ordered_pair),
    }),
    "uavs": small_list(mapping({
        "id": mostly(st.text(max_size=3)), "start": position, "goal": position,
        "speed": mostly(floats(0.5, 10)),
    })),
    "random_uavs": mapping({
        "count": mostly(st.integers(0, 3)),
        "min_cell_separation": mostly(st.integers(0, 4)),
        "speed": mostly(floats(0.5, 10)),
    }),
    "injections": small_list(mapping({"tick": mostly(st.integers(0, 50)), "obstacle": obstacle("sudden")})),
    "constraints": mapping({f: mostly(floats(1, 500)) for f in ("l_max", "L_max", "ta_max", "pa_max")}),
    "ssp": section(SspParams),
    "rrt": section(RrtParams),
    "cost": section(CostParams),
    "swarm": section(SwarmParams),
    "mode": mostly(st.sampled_from(["SSP", "NoSlidingWindow", "RrtOnly", "Nope"])),
    "waypoints_per_cell": mostly(st.integers(3, 20)),
    "seed": mostly(st.integers(0, 100)),
    "max_ticks": mostly(st.integers(1, 100)),
    "stagger": mostly(st.integers(0, 5)),
    "loss_rate": mostly(floats(0, 1)),
    "dt": mostly(floats(0.5, 2)),
}


def fleet(cells):
    """No buildings and a well-formed random fleet on the given grid: every
    such tree reaches fleet sampling, up to the grid's largest separation."""
    return st.fixed_dictionaries({
        "airspace": st.just({"cells": list(cells)}),
        "obstacles": st.just([]),
        "random_uavs": st.fixed_dictionaries({
            "count": st.integers(1, 5),
            "min_cell_separation": st.integers(0, sum(c - 1 for c in cells)),
        }),
        "seed": st.integers(0, 100),
    })


scenarios = mostly(st.one_of(
    st.fixed_dictionaries({}, optional=SCENARIO_KEYS),
    # No buildings: random UAVs and their planning stay cheap.
    st.fixed_dictionaries(
        {"obstacles": st.just([])}, optional={k: v for k, v in SCENARIO_KEYS.items() if k != "obstacles"}
    ),
    st.tuples(*[st.integers(1, 5)] * 3).flatmap(fleet),
))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=scenarios)
def test_loader_returns_a_scenario_or_rejects_the_input(tree):
    text = yaml.safe_dump(tree)
    try:
        sc = load_scenario(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(sc, Scenario)
    World(sc, parse_mode(sc.mode))
