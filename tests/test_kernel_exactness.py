"""Exactness of the rewritten fine-planning kernels.

The collision kernels, the clearance kernel, the smoothing and the tree
planners are compared with frozen copies of their earlier code
(`reference_kernels.py`) on inputs that hit the edge cases: zero-delta axes,
endpoints on box faces, touching boxes, margin-inflated boxes, points inside
boxes, repeated points and signed zeros, near-tie and duplicate tree nodes,
and generators holding a buffered uint32. The tree planners, the seed
population and the swarm are also pinned to digests and RNG states recorded
before the rewrites: same draws, same floats, same result.

The nearest-node ranking and `_dist` are specified formulas of single IEEE
operations, so they give the same bits on any numpy build and libm. `_dist`
squared with `**` (libm's `pow`) until it changed on purpose, so the frozen
planners are run with today's `_dist`. What still depends on the host is
numpy's summation order (`np.linalg.norm` and `sum` in resampling and the
swarm's cost, and the frozen nearest-node ranking's `einsum`), which numpy
does not promise, and the frozen copies' `arcsin` and `arccos`, whose bits
change with numpy's SIMD dispatch; the program's kernel compares against
sine and cosine thresholds instead. A different numpy build may
legitimately produce other values there.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from skygrid import sampling
from skygrid.geometry import (
    CuboidObstacle,
    ObstacleKind,
    Point3,
    obstacle_arrays,
    points_to_cuboids_distance,
    segments_intersect_cuboids,
)
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
@given(data=st.data(), obstacles=cuboids(), m=margin)
def test_segment_free_matches_reference(data, obstacles, m):
    a, b = data.draw(segment_on_faces(obstacles, m))
    boxes = flatten_obstacles(obstacles, m)
    # What flatten_obstacles computed from the lo/hi arrays before the rewrite,
    # as Python floats: the program hands segment_free float triples only.
    lo, hi = (corners.tolist() for corners in obstacle_arrays(obstacles))
    ref_boxes = [
        (x0 - m, y0 - m, z0 - m, x1 + m, y1 + m, z1 + m)
        for (x0, y0, z0), (x1, y1, z1) in zip(lo, hi)
    ]
    assert boxes == ref_boxes
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
        assert segments_intersect_cuboids(np.array([a]), np.array([b]), *obstacle_arrays([ob]))[0]


def test_dist_is_single_ieee_operations():
    """`_dist` is sqrt((dx*dx + dy*dy) + dz*dz): no `pow`, whose rounding
    libm does not promise. Full-mantissa draws, on which `**` gives other
    bits now and then (10 of these 20000 pairs on an x86-64 glibc host)."""
    for row in np.random.default_rng(0).uniform(-100.0, 100.0, size=(20000, 6)).tolist():
        a, b = row[:3], row[3:]
        dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        assert sampling._dist(a, b) == math.sqrt((dx * dx + dy * dy) + dz * dz)


def _specified_nearest(nodes, target) -> int:
    """The specified ranking: first minimum of (dx*dx + dz*dz) + dy*dy."""
    tx, ty, tz = target
    ds = [(x - tx) * (x - tx) + (z - tz) * (z - tz) + (y - ty) * (y - ty) for x, y, z in nodes]
    return ds.index(min(ds))


def _tree_of(nodes) -> _Tree:
    tree = _Tree(nodes[0])
    for i, p in enumerate(nodes[1:]):
        tree.add(tuple(p), i)
    return tree


def _sphere_nodes(rng, n, target, radius):
    """n nodes at (almost) the same distance from target, so that their
    squared distances agree up to the last bits; plus exact duplicates."""
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    nodes = np.array(target) + radius * dirs
    nodes[n // 3] = nodes[n // 5]
    nodes[n - 1] = nodes[n // 2]
    return [tuple(p) for p in nodes.tolist()]


def test_nearest_node_is_the_specified_argmin_on_near_ties():
    """Nodes on a sphere around the target: their squared distances agree up
    to the last bits, so only the specified ranking (first index on ties)
    picks the parent."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        target = tuple(rng.uniform(20.0, 180.0, 3).tolist())
        nodes = _sphere_nodes(rng, 40, target, 3.0)
        tree = _tree_of(nodes)
        assert tree.extend(target, 1.0, []) is not None
        assert tree.parents[-1] == _specified_nearest(nodes, target)


SCAN_MAX = sampling._SCAN_MAX_NODES


@pytest.mark.parametrize("n", [SCAN_MAX - 1, SCAN_MAX, SCAN_MAX + 1, 1000, 1500])
@pytest.mark.parametrize("path", ["natural", "scan", "numpy"])
def test_nearest_paths_match_the_einsum_ranking(monkeypatch, n, path):
    """Both nearest-node paths, on trees just below, at and above the scan
    threshold and far above it, against the frozen einsum ranking (which
    rounds exactly like the specified formula on this numpy build): near
    ties on a sphere, exact duplicate nodes, and random trees."""
    if path != "natural":
        monkeypatch.setattr(sampling, "_SCAN_MAX_NODES", 10**9 if path == "scan" else 0)
    rng = np.random.default_rng(n)
    for trial in range(30):
        target = tuple(rng.uniform(20.0, 180.0, 3).tolist())
        if trial % 2:
            nodes = _sphere_nodes(rng, n, target, float(rng.uniform(0.5, 50.0)))
        else:
            nodes = [tuple(p) for p in rng.uniform(0.0, 200.0, (n, 3)).tolist()]
            nodes[-1] = nodes[n // 2]
        tree = _tree_of(nodes)
        want = ref.einsum_nearest(nodes, target)
        assert want == _specified_nearest(nodes, target)
        assert tree.nearest(target) == want
        # The same tree queried again after it grew: the mirror follows.
        tree.add(target, want)
        nodes.append(target)
        other = tuple(rng.uniform(20.0, 180.0, 3).tolist())
        assert tree.nearest(other) == ref.einsum_nearest(nodes, other)


# -- the clearance kernel against its frozen copy -----------------------------


@st.composite
def clearance_inputs(draw):
    """Boxes (some touching the previous one) and points inside them, on
    their faces, at signed zeros, or anywhere."""
    obstacles = draw(cuboids().filter(len))
    faces = sorted({v for ob in obstacles for v in ob.box})
    inside = [
        tuple((ob.box[i] + ob.box[i + 3]) / 2 for i in range(3)) for ob in obstacles
    ]
    value = st.one_of(coord, st.sampled_from(faces), st.sampled_from([0.0, -0.0]))
    point = st.one_of(st.tuples(value, value, value), st.sampled_from(inside))
    p = draw(st.integers(1, 5))
    j = draw(st.integers(1, 6))
    pts = np.array([[draw(point) for _ in range(j)] for _ in range(p)], dtype=float)
    return obstacles, pts


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(inputs=clearance_inputs())
def test_points_to_cuboids_distance_matches_reference(inputs):
    obstacles, pts = inputs
    lo, hi = obstacle_arrays(obstacles)
    got = points_to_cuboids_distance(pts, lo, hi)
    want = ref.points_to_cuboids_distance(pts, lo, hi)
    assert _same_bits(got, want)
    assert _same_bits(got.sum(axis=(1, 2)), want.sum(axis=(1, 2)))
    assert _same_bits(points_to_cuboids_distance(pts[0], lo, hi), want[0])


def test_points_to_cuboids_distance_matches_reference_on_swarm_shapes():
    """The shapes the swarm evaluates: 31 particles of 10 waypoints against
    up to 12 boxes, and one path against them."""
    rng = np.random.default_rng(3)
    for k in (1, 3, 12):
        lo = rng.uniform(0.0, 150.0, (k, 3))
        hi = lo + rng.uniform(1.0, 60.0, (k, 3))
        pts = rng.uniform(-10.0, 210.0, (31, 10, 3))
        pts[0, : min(k, 10)] = lo[:10]  # corners: zero gaps
        got = points_to_cuboids_distance(pts, lo, hi)
        want = ref.points_to_cuboids_distance(pts, lo, hi)
        assert _same_bits(got, want)
        assert _same_bits(got.sum(axis=(1, 2)), want.sum(axis=(1, 2)))
        assert _same_bits(points_to_cuboids_distance(pts[:1], lo, hi), want[:1])


# -- smoothing on float triples against the frozen array smoothing -----------


@st.composite
def smoothing_inputs(draw):
    """A polyline among a few boxes (some touching), with repeated points,
    signed zeros and arbitrary floats, and a smoothing window."""
    obstacles = draw(cuboids())
    faces = sorted({v for ob in obstacles for v in ob.box})
    value = st.one_of(coord, st.sampled_from(faces)) if faces else coord
    pts = [draw(st.tuples(value, value, value))]
    for _ in range(draw(st.integers(0, 14))):
        pts.append(pts[-1] if draw(st.integers(0, 6)) == 0 else draw(st.tuples(value, value, value)))
    window = draw(st.one_of(st.integers(0, 7), st.integers(8, 40)))
    return np.array(pts, dtype=float), flatten_obstacles(obstacles), window


@settings(max_examples=400, deadline=None)
@given(case=smoothing_inputs())
@example(case=(np.array([[-1.0, -1.0, -0.0]] * 3), [], 8))  # numpy's mean starts from +0.0
def test_smoothing_on_floats_matches_the_frozen_array_smoothing(case):
    """`shortcut`, `moving_average_smooth` and `_smooth` on float triples give
    the bits of their frozen numpy-row copies; a window's mean is numpy's
    `mean(axis=0)`, the rows added in order to 0.0 and then divided by their
    count (a window of -0.0 rows averages to 0.0)."""
    path, boxes, window = case
    rows = path.tolist()
    assert _same_bits(np.array(sampling.shortcut(rows, boxes)), ref.shortcut(path, boxes))
    assert _same_bits(
        np.array(sampling.moving_average_smooth(rows, boxes, window)), ref.moving_average_smooth(path, boxes, window)
    )
    assert _same_bits(np.array(sampling._smooth(rows, boxes)), ref.smooth(path, boxes, sampling.SMOOTH_WINDOW))


# -- planners against digests recorded before the rewrite ---------------------

BOUNDS = ((0.0, 0.0, 0.0), (200.0, 200.0, 50.0))
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
    got = _digest(seeds)
    assert (got, _state(rng)) == RECORDED[("build_seed_population", "ref", seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_optimize_matches_recorded(seed):
    obstacles = CELL_OBS + [SMALL_CUBE]
    rng = np.random.default_rng(seed)
    seeds = build_seed_population(BOUNDS, obstacles, START, GOAL, rng, swarm=SMALL_SWARM)
    swarm = SwarmParams(n_rrt=4, n_birrt=4, max_iterations=40)
    best, history = optimize(seeds, obstacles, CostParams(), ConstraintParams(), swarm, rng)
    got = _digest(np.concatenate([best.ravel(), history]))
    assert (got, _state(rng)) == RECORDED[("optimize", "ref+sudden", seed)]


# -- the whole generator state against per-draw planners ----------------------


CAP_BREAK = RrtParams(step_size=1.0, max_iterations=2)
# name -> (planner, obstacles, params)
EXITS = {
    "rrt success": ("rrt_plan", CELL_OBS, RrtParams()),
    "rrt starved": ("rrt_plan", CELL_OBS, RrtParams(max_iterations=3)),
    "rrt goal bias 1": ("rrt_plan", [], RrtParams(goal_bias=1.0)),
    "birrt join": ("birrt_plan", CELL_OBS, RrtParams()),
    "birrt starved": ("birrt_plan", CELL_OBS, RrtParams(max_iterations=3)),
    "birrt cap break": ("birrt_plan", [], CAP_BREAK),
}


def _run_both(planner, obstacles, start, goal, params, rngs, bounds=BOUNDS):
    """Results of the planner and of its frozen per-draw copy (the array
    bytes, or the PlanningFailed message). The frozen copy measures its
    distances with `sampling._dist`: `_dist` left `**` for multiplication on
    purpose, and what is compared here is the draws and the tree."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref, "_dist", sampling._dist)
        for fn, rng in ((getattr(sampling, planner), rngs[0]), (getattr(ref, planner), rngs[1])):
            try:
                out.append(np.array(fn(bounds, obstacles, start, goal, params, rng)).tobytes())
            except PlanningFailed as exc:
                out.append(str(exc))
    return out


@pytest.mark.parametrize("case", EXITS)
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_block_draws_leave_the_per_draw_generator_state(case, buffered, seed):
    """The planners draw their doubles in blocks; afterwards the whole
    generator state, the buffered uint32 of an earlier 32-bit draw included,
    equals the one the frozen per-draw planner leaves, and so do the results."""
    planner, obstacles, params = EXITS[case]
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    if buffered:
        for r in rngs:
            r.integers(0, 1000, dtype=np.uint32)
        assert rngs[0].bit_generator.state["has_uint32"] == 1
    got, want = _run_both(planner, obstacles, START, GOAL, params, rngs)
    assert got == want
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    # The streams continue alike.
    assert rngs[0].random(5).tobytes() == rngs[1].random(5).tobytes()
    assert rngs[0].integers(0, 2**32, dtype=np.uint32) == rngs[1].integers(0, 2**32, dtype=np.uint32)


def test_cap_break_case_reaches_the_node_cap():
    trees = []

    class Spy(sampling._Tree):
        def __init__(self, root):
            super().__init__(root)
            trees.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_Tree", Spy)
        with pytest.raises(PlanningFailed):
            sampling.birrt_plan(BOUNDS, [], START, GOAL, CAP_BREAK, np.random.default_rng(0))
    cap = 2 * CAP_BREAK.max_iterations + 64
    assert max(len(t.pts) for t in trees) >= cap - 1


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    planner=st.sampled_from(["rrt_plan", "birrt_plan"]),
    step=st.sampled_from([2.0, 5.0, 10.0, 25.0]),
    goal_bias=st.sampled_from([0.0, 0.05, 0.5]),
    max_iterations=st.sampled_from([1, 4, 40, 400]),
    buffered=st.booleans(),
)
def test_planners_match_per_draw_reference(seed, planner, step, goal_bias, max_iterations, buffered):
    rng = np.random.default_rng(seed)
    start = Point3(*rng.uniform([0, 0, 0], [35, 200, 50]).tolist())
    goal = Point3(*rng.uniform([175, 0, 0], [200, 200, 50]).tolist())
    params = RrtParams(step_size=step, goal_bias=goal_bias, max_iterations=max_iterations)
    obstacles = [] if seed % 4 == 0 else CELL_OBS
    rngs = [np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)]
    if buffered:
        for r in rngs:
            r.integers(0, 7, dtype=np.uint32)
    got, want = _run_both(planner, obstacles, start, goal, params, rngs)
    assert got == want
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


# -- the connect march's pick of the node to grow from -------------------------


def _counting_trees(counts, trees):
    """A `_Tree` that records its instances in `trees` and counts the marches
    (`connect` calls) and the `nearest` scans made inside them."""

    class Counting(sampling._Tree):
        _marching = False

        def __init__(self, root):
            super().__init__(root)
            trees.append(self)

        def nearest(self, target):
            counts["scans"] += self._marching
            return super().nearest(target)

        def connect(self, *args):
            counts["marches"] += 1
            self._marching = True
            try:
                return super().connect(*args)
            finally:
                self._marching = False

    return Counting


def _recording_ref_trees(trees):
    class Recording(ref._Tree):
        def __init__(self, root, cap):
            super().__init__(root, cap)
            trees.append(self)

    return Recording


# Steps of 1e-13 m: at x near 9.9e4 m one ulp is 1.5e-11 m, so x never moves,
# and a move of y or z changes the nearest-node key far below one of its ulps.
# Each march step adds a node whose key equals its parent's, and the older
# node must win the next pick. The march fills the tree to its node cap.
TINY_BOUNDS = ((0.0, 0.0, 0.0), (1.0e5, 1.0e5, 1.0e5))
TINY_ENDS = {
    "x far, y and z move": (Point3(9.9e4, 50.0, 20.0), Point3(9.95e4, 80.0, 40.0)),
    "nothing moves": (Point3(9.9e4, 9.9e4, 9.9e4), Point3(9.92e4, 9.91e4, 9.93e4)),
}


@pytest.mark.parametrize("ends", TINY_ENDS)
@pytest.mark.parametrize("max_iterations", [1, 7, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_connect_march_falls_back_to_the_scan_on_a_key_tie(ends, max_iterations, seed):
    start, goal = TINY_ENDS[ends]
    params = RrtParams(step_size=1e-13, max_iterations=max_iterations)
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    counts = {"scans": 0, "marches": 0}
    trees, ref_trees = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_Tree", _counting_trees(counts, trees))
        mp.setattr(ref, "_Tree", _recording_ref_trees(ref_trees))
        got, want = _run_both("birrt_plan", [], start, goal, params, rngs, TINY_BOUNDS)
    assert got == want
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    # The same nodes grown from the same parents.
    assert [(t.pts, t.parents) for t in trees] == [(t.pts, t.parents) for t in ref_trees]
    # Every march step after the first scanned the tree again.
    nodes_marched = sum(len(t.pts) for t in trees) - len(trees) - counts["marches"]
    assert counts["marches"] >= 1
    assert counts["scans"] > counts["marches"]
    assert counts["scans"] == nodes_marched


def test_reference_cell_marches_scan_once_each():
    """On the reference cell every step after a march's first grows from the
    node just added: the 15 Bi-RRT seeds of a seed population scan their tree
    once per march."""
    counts = {"scans": 0, "marches": 0}
    trees = []
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_Tree", _counting_trees(counts, trees))
        birrt = sampling.birrt_plan

        def counted_birrt(*args):
            calls.append(1)
            return birrt(*args)

        mp.setattr("skygrid.pso.birrt_plan", counted_birrt)
        build_seed_population(BOUNDS, CELL_OBS, START, GOAL, np.random.default_rng(0))
    assert len(calls) == SwarmParams().n_birrt == 15
    assert counts["marches"] > len(calls)
    assert counts["scans"] == counts["marches"]
