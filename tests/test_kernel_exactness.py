"""Exactness of the rewritten fine-planning kernels.

The collision kernels are compared with frozen copies of their earlier code
(`reference_kernels.py`) on inputs that hit the edge cases: zero-delta axes,
endpoints on box faces, touching boxes and margin-inflated boxes. The tree
planners, the seed population and the swarm are pinned to digests and RNG
states recorded before the rewrite: same draws, same floats, same result.
Like the golden hashes, the digests depend on floating-point results, so a
different numpy build may legitimately produce other values.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from skygrid.geometry import CuboidObstacle, ObstacleKind, Point3, segments_intersect_cuboids
from skygrid.pso import ConstraintParams, CostParams, SwarmParams, build_seed_population, optimize
from skygrid.sampling import (
    PlanningFailed,
    RrtParams,
    _Tree,
    birrt_plan,
    flatten_obstacles,
    rrt_plan,
    segment_free,
)
from skygrid.scenario import single_cell_scenario

# -- collision kernels against the frozen copies ------------------------------

# Few distinct values, so that zero deltas, endpoints on faces and boxes that
# share a face come up often; plus arbitrary floats.
GRID_VALUES = [-1.0, -0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0]
coord = st.one_of(
    st.sampled_from(GRID_VALUES),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coord, coord, coord)
edge = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.01, 8.0))
margin = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0))


@st.composite
def cuboids(draw):
    """A few boxes; some share a face with the previous box (touching)."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        lx, ly, lz = draw(edge), draw(edge), draw(edge)
        if out and draw(st.booleans()):
            prev = out[-1].box
            axis = draw(st.integers(0, 2))
            x, y, z = prev[:3]
            anchor = [x, y, z]
            anchor[axis] = prev[3 + axis]
        else:
            anchor = list(draw(point))
        anchor[2] = abs(anchor[2])
        out.append(CuboidObstacle(Point3(*anchor), lx, ly, lz, kind=ObstacleKind.SUDDEN))
    return out


@st.composite
def segment_on_faces(draw, obstacles, m):
    """Endpoints drawn from the face planes of the boxes (plain and inflated
    by m) as well as from anywhere."""
    faces = sorted({v for box in flatten_obstacles(obstacles, m) for v in box})
    faces += sorted({v for ob in obstacles for v in ob.box})
    pick = st.one_of(coord, st.sampled_from(faces)) if faces else coord
    a = tuple(draw(pick) for _ in range(3))
    if draw(st.booleans()):
        # Share one or two coordinates with a: zero-delta axes.
        b = tuple(a[i] if draw(st.booleans()) else draw(pick) for i in range(3))
    else:
        b = tuple(draw(pick) for _ in range(3))
    return a, b


@settings(max_examples=400, deadline=None)
@given(data=st.data(), obstacles=cuboids(), m=margin, as_array=st.booleans())
def test_segment_free_matches_reference(data, obstacles, m, as_array):
    a, b = data.draw(segment_on_faces(obstacles, m))
    boxes = flatten_obstacles(obstacles, m)
    # What flatten_obstacles computed from the lo/hi arrays before the rewrite.
    ref_boxes = [
        (
            ob.lo[0] - m, ob.lo[1] - m, ob.lo[2] - m,
            ob.hi[0] + m, ob.hi[1] + m, ob.hi[2] + m,
        )
        for ob in obstacles
    ]
    assert boxes == ref_boxes
    if as_array:
        a, b = np.array(a), np.array(b)
    assert segment_free(a, b, boxes) == ref.segment_free(a, b, ref_boxes)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), obstacles=cuboids(), m=margin, n=st.integers(1, 6))
def test_segments_intersect_cuboids_matches_reference(data, obstacles, m, n):
    segs = [data.draw(segment_on_faces(obstacles, m)) for _ in range(n)]
    starts = np.array([s[0] for s in segs])
    ends = np.array([s[1] for s in segs])
    lo = np.array([ob.box[:3] for ob in obstacles]).reshape(-1, 3)
    hi = np.array([ob.box[3:] for ob in obstacles]).reshape(-1, 3)
    got = segments_intersect_cuboids(starts, ends, lo, hi, m)
    want = ref.segments_intersect_cuboids(starts, ends, lo, hi, m)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_kernels_match_reference_on_a_face_grid():
    """Every segment between points of a lattice through the face planes of
    two touching boxes, with and without margin: zero-delta axes, endpoints
    on faces, edges and corners, and segments along the shared face."""
    obstacles = [
        CuboidObstacle(Point3(1.0, 1.0, 1.0), 2.0, 2.0, 2.0, kind=ObstacleKind.SUDDEN),
        CuboidObstacle(Point3(3.0, 1.0, 1.0), 1.0, 2.0, 1.0, kind=ObstacleKind.SUDDEN),
    ]
    values = (0.0, 1.0, 2.0, 3.0, 4.0)
    lattice = [(x, y, z) for x in values for y in values for z in values]
    starts = np.repeat(np.array(lattice), len(lattice), axis=0)
    ends = np.tile(np.array(lattice), (len(lattice), 1))
    lo = np.array([ob.box[:3] for ob in obstacles])
    hi = np.array([ob.box[3:] for ob in obstacles])
    for m in (0.0, 0.5, 1.0):
        boxes = flatten_obstacles(obstacles, m)
        for ob_boxes in (boxes, boxes[:1]):
            got = [segment_free(a, b, ob_boxes) for a in lattice for b in lattice]
            want = [ref.segment_free(a, b, ob_boxes) for a in lattice for b in lattice]
            assert got == want
        assert np.array_equal(
            segments_intersect_cuboids(starts, ends, lo, hi, m),
            ref.segments_intersect_cuboids(starts, ends, lo, hi, m),
        )


def test_degenerate_segment_on_a_face_hits():
    ob = CuboidObstacle(Point3(0.0, 0.0, 0.0), 2.0, 2.0, 2.0)
    boxes = flatten_obstacles([ob])
    for a, b in (((0.0, 1.0, 1.0), (0.0, 1.0, 1.0)), ((2.0, -1.0, 2.0), (2.0, 3.0, 2.0))):
        assert not segment_free(a, b, boxes)
        assert segments_intersect_cuboids(
            np.array([a]), np.array([b]), ob.lo[None], ob.hi[None]
        )[0]


def test_nearest_node_is_the_einsum_argmin_on_near_ties():
    """Nodes on a sphere around the target: their squared distances agree up
    to the last bits, so only the exact einsum ranking (first index on ties)
    picks the same parent as before."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        target = tuple(rng.uniform(20.0, 180.0, 3).tolist())
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        nodes = np.array(target) + 3.0 * dirs
        nodes[5] = nodes[17]  # an exact tie too
        tree = _Tree(nodes[0], len(nodes) + 1)
        for i, p in enumerate(nodes[1:].tolist()):
            tree.add(tuple(p), i)
        assert tree.extend(target, 1.0, []) is not None
        d = nodes - np.array(target)
        assert tree.parents[-1] == int(np.argmin(np.einsum("ij,ij->i", d, d)))


# -- planners against digests recorded before the rewrite ---------------------

BOUNDS = (np.zeros(3), np.array([200.0, 200.0, 50.0]))
CELL_OBS = list(single_cell_scenario().obstacles)
START = Point3(10.0, 90.0, 10.0)
GOAL = Point3(190.0, 130.0, 10.0)
SHIFTED = (np.array([200.0, 0.0, 50.0]), np.array([400.0, 200.0, 100.0]))
FLOATING = CuboidObstacle(Point3(280.0, 80.0, 60.0), 40.0, 40.0, 30.0, kind=ObstacleKind.SUDDEN)
SMALL_CUBE = CuboidObstacle(Point3(95.0, 95.0, 5.0), 10.0, 10.0, 10.0, kind=ObstacleKind.SUDDEN)
SMALL_SWARM = SwarmParams(n_rrt=4, n_birrt=4)

CASES = {
    "ref": (BOUNDS, CELL_OBS, START, GOAL, RrtParams()),
    "shifted": (
        SHIFTED, [FLOATING], Point3(200.0, 100.0, 75.0), Point3(400.0, 100.0, 75.0),
        RrtParams(step_size=7.0, goal_bias=0.2),
    ),
    "starved": (BOUNDS, CELL_OBS, START, GOAL, RrtParams(max_iterations=3)),
}

# (function, case, seed) -> (first 16 hex digits of the SHA-256 of the
# float64 result, or None for PlanningFailed; PCG64 state afterwards).
RECORDED = {
    ("rrt_plan", "ref", 0): ('65f9f02a25b808e4', 5908398945989386773015022347743055775),
    ("rrt_plan", "ref", 1): ('57ea76e2f7406180', 279361045047163818299171713856938116733),
    ("rrt_plan", "ref", 2): ('c396a6bb0467c73b', 66236866029930172946745477944278542466),
    ("rrt_plan", "shifted", 0): ('ec36876feac77ae6', 246129231280120512863470858756106433769),
    ("rrt_plan", "shifted", 1): ('fe27f0cd15a856a6', 103818330790632826309535440874494503906),
    ("rrt_plan", "shifted", 2): ('7649cd9ab2038b53', 40641826597405843722558723622146789935),
    ("rrt_plan", "starved", 0): (None, 148750737412705336129496293679478976519),
    ("rrt_plan", "starved", 1): (None, 287120907228736827879223783927932129402),
    ("rrt_plan", "starved", 2): (None, 255166590019696265081391875281153098552),
    ("birrt_plan", "ref", 0): ('e3606db318ab539c', 323339607970846338242864236031161753118),
    ("birrt_plan", "ref", 1): ('1d6bdb7fc9a656e3', 186158755254951208624214175513462393188),
    ("birrt_plan", "ref", 2): ('d2b026597cbbddd0', 74226687788754735136373663044891024792),
    ("birrt_plan", "shifted", 0): ('a49c0e92c73ff92e', 282408052453221288805205183103293283843),
    ("birrt_plan", "shifted", 1): ('d4cc20758e669ec3', 83392295971308916496433313267176321362),
    ("birrt_plan", "shifted", 2): ('750c820f3ade0bca', 326929934259937392151880077233980919683),
    ("birrt_plan", "starved", 0): (None, 136626137344985782772388288880891475984),
    ("birrt_plan", "starved", 1): ('1d6bdb7fc9a656e3', 186158755254951208624214175513462393188),
    ("birrt_plan", "starved", 2): (None, 106986603392083885269700523776562405523),
    ("build_seed_population", "ref", 0): ('8b649bda127f5b2c', 155305821598758432193499175345612951158),
    ("build_seed_population", "ref", 1): ('7f34100581432929', 310379934982923685205456658107463329015),
    ("optimize", "ref+sudden", 0): ('4d0b8d5ca61c2fc1', 35249912459058640024641480817050487542),
    ("optimize", "ref+sudden", 1): ('32dfa130128d4fd7', 226901062796884438143465699138840106103),
}


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()[:16]


def _state(rng) -> int:
    return rng.bit_generator.state["state"]["state"]


@pytest.mark.parametrize(
    "planner,case,seed",
    [k for k in RECORDED if k[0] in ("rrt_plan", "birrt_plan")],
)
def test_tree_planners_match_recorded(planner, case, seed):
    fn = {"rrt_plan": rrt_plan, "birrt_plan": birrt_plan}[planner]
    bounds, obstacles, start, goal, params = CASES[case]
    rng = np.random.default_rng(seed)
    try:
        got = _digest(fn(bounds, obstacles, start, goal, params, rng))
    except PlanningFailed:
        got = None
    assert (got, _state(rng)) == RECORDED[(planner, case, seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_seed_population_matches_recorded(seed):
    rng = np.random.default_rng(seed)
    seeds = build_seed_population(BOUNDS, CELL_OBS, START, GOAL, rng, swarm=SMALL_SWARM)
    got = _digest(np.stack([w.waypoints for w in seeds]))
    assert (got, _state(rng)) == RECORDED[("build_seed_population", "ref", seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_optimize_matches_recorded(seed):
    obstacles = CELL_OBS + [SMALL_CUBE]
    rng = np.random.default_rng(seed)
    seeds = build_seed_population(BOUNDS, obstacles, START, GOAL, rng, swarm=SMALL_SWARM)
    swarm = SwarmParams(n_rrt=4, n_birrt=4, max_iterations=40)
    best, history = optimize(seeds, obstacles, CostParams(), ConstraintParams(), swarm, rng)
    got = _digest(np.concatenate([best.waypoints.ravel(), history]))
    assert (got, _state(rng)) == RECORDED[("optimize", "ref+sudden", seed)]
