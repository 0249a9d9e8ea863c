"""Scene-level planning: roadmap construction, both engines, enumeration."""

import gc
import heapq
import importlib
import itertools
import math
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcplan
import oracles
import relations
import sweep
from arcplan.aco import AcoParams, best_first
from arcplan.geometry import (
    CLEARANCE_EPS,
    AxisRect,
    Circle,
    ObstacleSpec,
    Parallelogram,
    Point,
    Scene,
    Triangle,
    builtin_scene,
    in_cone,
    obstacle_vertices,
    segment_clear,
)
from arcplan import geometry, paths, planner
from arcplan.paths import (
    MIN_TURN_RADIUS,
    Arc,
    ChainingError,
    Line,
    SmoothPath,
    Turn,
    TurningCircle,
    chain_path,
    pair_tangent,
    pair_tangents,
    validate_path,
)
from arcplan.planner import (
    _FALLBACK_TRIES,
    KNOWN_TARGETS,
    PlanResult,
    RequestError,
    RouteInfeasible,
    RouteRequest,
    _chain_for,
    _ChainScreen,
    _legs,
    _result,
    build_roadmap,
    corner_candidates,
    enumerate_candidates,
    k_shortest_routes,
    plan_route,
)
from arcplan.sceneio import scene_from_dict, scene_to_dict

O, A, B, C = (KNOWN_TARGETS[k] for k in "OABC")


# perfbench's query generators, loaded as the sweeps load them
_, inputs, _ = sweep.load(sweep.REPO)

# perfbench's random pairs on the builtin scene, seed 3: uniform points with
# clearance >= 10.5, paired, keeping only the pairs without a straight route
PAIRS = inputs.random_pairs(scene_to_dict(builtin_scene()), 3, 20)


def pocket_scene() -> Scene:
    """Four wall rectangles enclosing a cavity around (100, 100)."""
    walls = (
        ObstacleSpec(1, AxisRect(Point(60, 60), 80, 10)),
        ObstacleSpec(2, AxisRect(Point(60, 130), 80, 10)),
        ObstacleSpec(3, AxisRect(Point(60, 70), 10, 60)),
        ObstacleSpec(4, AxisRect(Point(130, 70), 10, 60)),
    )
    return Scene(bounds=(200.0, 200.0), obstacles=walls, clearance=10.0)


def test_known_targets():
    assert KNOWN_TARGETS["O"] == (0.0, 0.0)
    assert KNOWN_TARGETS["A"] == (300.0, 300.0)
    assert KNOWN_TARGETS["B"] == (100.0, 700.0)
    assert KNOWN_TARGETS["C"] == (700.0, 640.0)


def test_corner_candidates_skip_circles_and_border(scene):
    candidates = corner_candidates(scene)
    assert (550.0, 450.0) not in candidates  # circle obstacle contributes no corner
    for v in candidates:
        assert 10.0 <= v.x <= 790.0 and 10.0 <= v.y <= 790.0
    assert Point(80.0, 210.0) in candidates
    assert Point(60.0, 300.0) in candidates


def test_build_roadmap_anchors_and_weights(scene):
    rm = build_roadmap(scene, O, A)
    assert rm.anchors[0] == O and rm.anchors[-1] == A
    # one circle per node and turn: chain_path's radius-0 circle at an
    # endpoint, (CW, CCW) of radius clearance at a corner
    start, *corners, goal = rm.circles
    assert start == (TurningCircle(O, 0.0),) and goal == (TurningCircle(A, 0.0),)
    for anchor, pair in zip(rm.anchors[1:-1], corners):
        assert pair == (TurningCircle(anchor, scene.clearance, Turn.CW), TurningCircle(anchor, scene.clearance, Turn.CCW))
    assert Point(80.0, 210.0) in rm.anchors
    g = rm.graph
    n = g.node_count
    assert n == len(rm.anchors)
    assert g[n] == ()  # no search expands the goal: its edges lie in the other nodes' rows
    # every present edge carries the plain anchor distance
    checked = 0
    for i in range(1, n + 1):
        for j, w in g[i]:
            assert w == pytest.approx(math.dist(rm.anchors[i - 1], rm.anchors[j - 1]))
            checked += 1
    assert checked > 0


def test_build_roadmap_holds_chain_corners(scene, expected):
    rm = build_roadmap(scene, O, B)
    for cx, cy in expected["chain_ob"]["centers"]:
        assert Point(cx, cy) in rm.anchors


def test_build_roadmap_empty_scene():
    # the straight start-goal segment is _direct_plan's: the planning entry
    # points answer with it before any roadmap is built, so the roadmap
    # judges no start-goal edge, and here the start has no corner to link to
    empty = Scene(bounds=(500.0, 500.0))
    start, goal = Point(10, 10), Point(480, 30)
    rm = build_roadmap(empty, start, goal)
    assert len(rm.anchors) == 2
    assert not rm.graph.has_edge(1, 2)
    assert rm.graph[1] == ()
    plan = plan_route(RouteRequest(start, goal, empty))
    assert plan.corners == () and plan.length == pytest.approx(math.dist((10, 10), (480, 30)))


def roadmap_edges(rm) -> set:
    """Every edge of the roadmap, as (i, j), i < j: reading each row builds it."""
    g = rm.graph
    return {(i, j) for i in range(1, g.node_count + 1) for j, _ in g[i] if i < j}


def oracle_edges(rm, scene: Scene) -> set:
    obstacles = [
        ("circle", tuple(spec.shape.center), spec.shape.radius)
        if isinstance(spec.shape, Circle)
        else ("poly", [tuple(v) for v in obstacle_vertices(spec)])
        for spec in scene.obstacles
    ]
    return oracles.tangent_roadmap_edges(rm.anchors, scene.clearance, obstacles, scene.clearance - 1e-9)


def shared_vertex_scene() -> Scene:
    """Two squares that meet at (200, 200): two corner candidates coincide."""
    squares = (
        ObstacleSpec(1, AxisRect(Point(100, 100), 100, 100)),
        ObstacleSpec(2, AxisRect(Point(200, 200), 100, 100)),
    )
    return Scene(bounds=(400.0, 400.0), obstacles=squares, clearance=10.0)


def test_roadmap_edges_match_tangent_oracle(scene):
    # One Scene object of each kind, queried in turn: a stale corner table or
    # one shared across scenes would give edges the oracle does not.
    shared = shared_vertex_scene()
    shared_queries = itertools.cycle([(Point(60, 300), Point(300, 60)), (Point(300, 60), Point(60, 300)),
                                      (Point(20, 20), Point(380, 380))])
    for start, goal in [(O, KNOWN_TARGETS[t]) for t in "ABC"] + PAIRS[:3]:
        rm = build_roadmap(scene, start, goal)
        assert roadmap_edges(rm) == oracle_edges(rm, scene), (start, goal)
        s, g = next(shared_queries)
        rm = build_roadmap(shared, s, g)
        assert rm.anchors.count(Point(200, 200)) == 2
        assert roadmap_edges(rm) == oracle_edges(rm, shared), (s, g)
    # generated scenes of 12 and 6 obstacles: triangles and parallelograms
    # given in either vertex order, and circles, each with its own query
    for req in inputs.cold_scenes(1, 8):
        if len(req["scene_dict"]["obstacles"]) <= 12:
            sc = scene_from_dict(req["scene_dict"])
            rm = build_roadmap(sc, Point(*req["from"]), Point(*req["to"]))
            assert roadmap_edges(rm) == oracle_edges(rm, sc), (req["from"], req["to"])


def test_connected_is_symmetric(monkeypatch):
    # The scene's corner table tests each corner pair in one order only.  And
    # the skip of legs that in_cone rules out at their own corner is exact:
    # any(_legs) is segment_clear's verdict on every turn pair's tangent, and
    # every tangent the skip rejects fails segment_clear.  The legs any(_legs) hands
    # segment_clear are, in order and float for float, those a per-leg
    # reference builds with pair_tangent and TurningCircle.at up to the first
    # that clears: for corner pairs, and for the radius-0 circle of a start
    # or a goal against a corner (start -> corner and corner -> goal, the
    # orders build_roadmap uses).
    calls = []
    monkeypatch.setattr(planner, "segment_clear", lambda p, q, sc: calls.append((p, q)) or segment_clear(p, q, sc))
    queries = [(builtin_scene(), O, C), (acute_scene(), Point(320, 120), Point(140, 268)),
               (shared_vertex_scene(), Point(60, 300), Point(300, 60))]
    queries += [(scene_from_dict(req["scene_dict"]), Point(*req["from"]), Point(*req["to"]))
                for req in inputs.cold_scenes(1, 8)]
    pairs = endpoint_pairs = skipped = legs = 0
    for sc, start, goal in queries:
        r, cones = sc.clearance, sc.compiled.cones
        circles = [(TurningCircle(v, r, Turn.CW), TurningCircle(v, r, Turn.CCW)) for v in corner_candidates(sc)]
        ends = [((TurningCircle(start, 0.0),), c) for c in circles] + [(c, (TurningCircle(goal, 0.0),)) for c in circles]
        for a, b in [*itertools.combinations(circles, 2), *ends]:
            reference, expected = False, []
            for c1, c2 in itertools.product(a, b):
                try:
                    t1, t2 = pair_tangent(c1, c2)
                except ChainingError:
                    continue
                p, q = c1.at(t1), c2.at(t2)
                clear = segment_clear(p, q, sc)
                if in_cone(t1, cones.get(c1.center, ())) or in_cone(t2, cones.get(c2.center, ())):
                    assert not clear, (p, q)
                    skipped += 1
                    continue
                if not reference:
                    expected.append((p, q))
                reference = reference or clear
            calls.clear()
            assert any(_legs(a, b, sc)) == reference, (a[0].center, b[0].center)
            assert calls == expected, (a[0].center, b[0].center)
            assert any(_legs(b, a, sc)) == reference, (a[0].center, b[0].center)
            legs += len(expected)
            pairs += 1
            endpoint_pairs += len(a) == 1 or len(b) == 1
    assert pairs > 5000 and endpoint_pairs > 500 and skipped > 10000 and legs > 2000


def test_scene_compiles_corner_links_once(monkeypatch):
    # A corner pair is judged (handed to _legs) only when a search first
    # expands one of its corners, and at most once per Scene object: a
    # repeated query judges none.  A cold query judges only the pairs of the
    # corners it reaches, so building every row up front fails here.
    judged = []

    def counted(a, b, sc):
        if len(a) == len(b) == 2:  # two corners' (CW, CCW) circles, not an endpoint's one
            judged.append((id(sc), a[0].center, b[0].center))
        return _legs(a, b, sc)

    monkeypatch.setattr(planner, "_legs", counted)
    scene = builtin_scene()
    queries = [(O, KNOWN_TARGETS[t]) for t in "ABC"] + PAIRS[:6]
    for start, goal in queries:
        plan_route(RouteRequest(start, goal, scene))
    seen = len(judged)
    for start, goal in queries:
        plan_route(RouteRequest(start, goal, scene))
    assert len(judged) == seen > 0
    build_every_row(scene)
    assert len(set(judged)) == len(judged) > seen
    everything = len(judged)
    corners = len(corner_candidates(scene))
    # a cold O->C judges under half of all corner pairs, and a cold O->A under
    # half of those that building every row judges
    for goal, share in ((C, corners * (corners - 1) / 2), (A, everything)):
        judged.clear()
        plan_route(RouteRequest(O, goal, builtin_scene()))
        assert 0 < len(judged) < share / 2, (goal, len(judged), share)
    # an equal Scene object gives the same weighted edges
    first, other = build_roadmap(scene, O, C), build_roadmap(builtin_scene(), O, C)
    assert other.anchors == first.anchors
    nodes = range(1, first.graph.node_count + 1)
    assert [other.graph[i] for i in nodes] == [first.graph[i] for i in nodes]


def acute_scene() -> Scene:
    """A triangle of 11.9 degrees at (300, 150) and a parallelogram of 6.8
    degrees at (150, 250) and (350, 256), 6 units thick."""
    shapes = (
        ObstacleSpec(1, Triangle(Point(100, 150), Point(300, 150), Point(110, 190))),
        ObstacleSpec(2, Parallelogram(Point(150, 250), 150, Point(200, 256))),
    )
    return Scene(bounds=(400.0, 400.0), obstacles=shapes, clearance=10.0)


@pytest.mark.parametrize(
    "make_scene, start, goal, least",
    [
        (builtin_scene, O, C, 200),
        (shared_vertex_scene, Point(60, 300), Point(300, 60), 10),  # the leg ends at (200, 200) lie on both squares
        (acute_scene, Point(320, 120), Point(140, 268), 20),  # turns at (300, 150) and (150, 250)
    ],
    ids=["builtin", "shared-vertex", "acute"],
)
def test_no_leg_failing_at_its_own_corner_reaches_segment_clear(monkeypatch, make_scene, start, goal, least):
    # A leg end on a corner's circle that lies closer than the clearance
    # limit to an edge of that corner's polygon runs back into the polygon:
    # neither the corner links, the endpoint links nor the chain screen may
    # hand such a leg to segment_clear.  in_cone reads only the edges at the
    # corner; every edge of the polygon is counted here.
    scene = make_scene()
    limit = scene.clearance - 1e-9
    polygons = [ob[1] for ob in oracles.scene_obstacles(scene) if ob[0] == "poly"]
    calls = []

    def recorded(p, q, sc):
        calls.append((p, q))
        return segment_clear(p, q, sc)

    monkeypatch.setattr(planner, "segment_clear", recorded)
    plan_route(RouteRequest(start, goal, scene))
    gaps = [gap for call in calls for gap in (own_edge_gap(polygons, scene.clearance, end) for end in call)
            if gap < math.inf]  # ends on a corner circle
    assert len(gaps) > least
    assert min(gaps) >= limit


def own_edge_gap(polygons: list, r: float, end) -> float:
    """The oracle's distance from a leg end to the nearest edge of the
    polygons with a vertex r from it (the end's own corner's), inf when
    the end lies on no corner circle."""
    own = [poly for poly in polygons if any(abs(math.dist(end, v) - r) < 1e-9 for v in poly)]
    edges = [(poly[i - 1], poly[i]) for poly in own for i in range(len(poly))]
    return min((oracles.seg_dist(end, a, b) for a, b in edges), default=math.inf)


def short_edge_scene() -> Scene:
    """A triangle with an edge of 6, under the clearance, so that its two
    ends have one window each, beside a rect."""
    shapes = (
        ObstacleSpec(1, Triangle(Point(100, 100), Point(106, 100), Point(150, 180))),
        ObstacleSpec(2, AxisRect(Point(220, 60), 80, 40)),
    )
    return Scene(bounds=(400.0, 400.0), obstacles=shapes, clearance=10.0)


def build_every_row(sc: Scene):
    """sc's corner table with every row built: the links between all its corners."""
    table = planner._corners(sc)
    for i in range(len(table.points)):
        planner._corner_row(sc, i)
    return table


def compile_filtered(monkeypatch, sc: Scene):
    """For a Scene object that has built no corner row yet: its corner table
    with every row built, and the (i, j), i < j, corner pairs its direction
    filter dropped before _legs."""
    tested = []
    monkeypatch.setattr(planner, "_legs", lambda a, b, s: tested.append((a, b)) or _legs(a, b, s))
    table = build_every_row(sc)
    at = {id(c): i for i, c in enumerate(table.circles)}
    kept = {(at[id(a)], at[id(b)]) for a, b in tested}
    return table, [ij for ij in itertools.combinations(range(len(table.points)), 2) if ij not in kept]


def test_corner_links_drop_only_pairs_the_cones_close(monkeypatch):
    # The compile's direction filter changes no link: the pairs equal the
    # unfiltered reference, any(_legs) on every corner pair.  It drops a pair
    # only when each of its turn pairs either has no tangent or has an end
    # that in_cone blocks, so _legs would have handed segment_clear no
    # leg of it.  The scenes hold vertices with no free arc: a vertex of two
    # squares, the ends of an edge under the clearance.
    scenes = [builtin_scene(), acute_scene(), shared_vertex_scene(), short_edge_scene()]
    scenes += [scene_from_dict(req["scene_dict"]) for req in inputs.cold_scenes(1, 8)]
    pairs = dropped = unfree = 0
    for sc in scenes:
        table, skipped = compile_filtered(monkeypatch, sc)
        everything = list(itertools.combinations(range(len(table.points)), 2))
        linked = [(i, j) for i, j in everything if j in table.rows[i]]
        assert linked == [(i, j) for i, j in everything if any(_legs(table.circles[i], table.circles[j], sc))]
        assert all(i in table.rows[j] for i, j in linked)  # rows built in either order agree
        cones = sc.compiled.cones
        for i, j in skipped:
            for c1, c2 in itertools.product(table.circles[i], table.circles[j]):
                try:
                    t1, t2 = pair_tangent(c1, c2)
                except ChainingError:
                    continue
                assert in_cone(t1, cones[c1.center]) or in_cone(t2, cones[c2.center]), (c1, c2)
        pairs += len(everything)
        dropped += len(skipped)
        unfree += sum(sc.compiled.free[v] is None for v in table.points)
    assert dropped > pairs / 2 and unfree >= 4, (pairs, dropped, unfree)  # it drops 64% of 7,915 here


def test_in_cone_rules_out_most_legs_that_fail_at_their_own_corner(monkeypatch):
    # The vertex windows must not go blind: of the legs of a corner-link
    # compile that fail at their own corner, the windows rule out nearly all
    # from their angles, and only the rest reach segment_clear.  in_cone
    # rules a leg out once at most, so its True verdicts count legs; the
    # compile's direction filter rules out every leg of the corner pairs it
    # drops before in_cone sees them, so those legs count too.
    by_cone = by_scan = 0

    def cone(*args):
        nonlocal by_cone
        verdict = in_cone(*args)
        by_cone += verdict
        return verdict

    def scan(p, q, sc):
        nonlocal by_scan
        polygons = [ob[1] for ob in oracles.scene_obstacles(sc) if ob[0] == "poly"]
        by_scan += min(own_edge_gap(polygons, sc.clearance, end) for end in (p, q)) < sc.clearance - 1e-9
        return segment_clear(p, q, sc)

    monkeypatch.setattr(planner, "in_cone", cone)
    monkeypatch.setattr(planner, "segment_clear", scan)
    for sc in [acute_scene()] + [scene_from_dict(req["scene_dict"]) for req in inputs.cold_scenes(1, 4)]:
        table, skipped = compile_filtered(monkeypatch, sc)
        by_cone += sum(angles is not None for i, j in skipped
                       for angles in pair_tangents(table.circles[i], table.circles[j]))
    assert by_cone >= 0.95 * (by_cone + by_scan) and by_cone > 5000, (by_cone, by_scan)


def test_segment_clear_runs_few_polygon_distances_that_clear(monkeypatch):
    # The side test must not go blind: of the exact polygon distances that
    # segment_clear still runs in a corner-link compile, few come out at or
    # beyond the limit.  Without the side test about 84% do: the bbox of a
    # long diagonal leg admits mostly polygons that the leg clears.
    scenes = [scene_from_dict(req["scene_dict"]) for req in inputs.cold_scenes(1, 4)]
    limit = scenes[0].clearance - CLEARANCE_EPS
    assert all(sc.clearance == scenes[0].clearance for sc in scenes)
    distance = geometry._segment_distance
    near = far = 0

    def counted(a, b, kind, payload):
        nonlocal near, far
        d = distance(a, b, kind, payload)
        if kind == "poly":
            far += d >= limit
            near += d < limit
        return d

    monkeypatch.setattr(geometry, "_segment_distance", counted)
    for sc in scenes:
        build_every_row(sc)
    assert far < 0.05 * (near + far) and near > 200, (near, far)


def test_leg_is_the_plans_chain_line(scene):
    # _legs builds its tangent itself, from the floats chain_path uses: on each
    # pair of consecutive circles of a plan it gives the plan's line there.
    for goal in (A, B, C):
        plan = plan_route(RouteRequest(O, goal, scene))
        circles = (TurningCircle(O, 0.0), *plan.corners, TurningCircle(goal, 0.0))
        lines = [seg for seg in plan.path.segments if isinstance(seg, Line)]
        assert [next(_legs((c1,), (c2,), scene))[2] for c1, c2 in zip(circles, circles[1:])] == lines, goal


def test_compiled_scene_dies_with_its_scene():
    # by refcount alone, with the collector off: the corner table keeps no
    # reference back to its Scene, so a cold Scene goes with its last query
    scene = builtin_scene()
    gc.disable()
    try:
        for engine in ("exact", "aco"):
            plan_route(RouteRequest(O, B, scene, engine, AcoParams(ants=8, generations=8)))
        ref = weakref.ref(scene)
        del scene
        assert ref() is None
    finally:
        gc.enable()


def test_shared_vertex_scene_plans():
    scene = shared_vertex_scene()
    start, goal = Point(60, 300), Point(300, 60)
    rm = build_roadmap(scene, start, goal)
    assert rm.anchors.count(Point(200, 200)) == 2
    assert roadmap_edges(rm) == oracle_edges(rm, scene)
    plan = plan_route(RouteRequest(start, goal, scene))
    assert plan.corners and validate_path(plan.path, scene).ok


def test_plan_oa_exact(scene, expected):
    plan = plan_route(RouteRequest(O, A, scene))
    want = expected["corner_oa"]
    assert plan.engine == "exact"
    assert plan.aco is None
    assert plan.length == pytest.approx(want["exact_total"], abs=want["exact_tol"])
    assert plan.travel_time == pytest.approx(want["travel_time"], abs=1e-6)
    assert len(plan.corners) == 1
    circle = plan.corners[0]
    assert tuple(circle.center) == (80.0, 210.0)
    assert circle.turn is Turn.CW
    assert validate_path(plan.path, scene).ok


def test_plan_ob_exact(scene, expected):
    plan = plan_route(RouteRequest(O, B, scene))
    want = expected["chain_ob"]
    assert plan.length == pytest.approx(want["exact_total"], abs=want["exact_tol"])
    assert plan.length == pytest.approx(want["total"], abs=want["total_tol"])
    assert plan.travel_time == pytest.approx(want["travel_time"], abs=1e-6)
    assert [list(c.center) for c in plan.corners] == want["centers"]
    assert [c.turn.name.lower() for c in plan.corners] == want["turns"]
    lengths = [seg.length for seg in plan.path.segments]
    assert lengths == pytest.approx(want["segment_lengths"], abs=1e-6)
    assert validate_path(plan.path, scene).ok


def test_plan_length_matches_independent_chain_oracle(scene, expected):
    plan = plan_route(RouteRequest(O, B, scene))
    turns = [1 if t == "ccw" else -1 for t in expected["chain_ob"]["turns"]]
    corners = [(cx, cy, t) for (cx, cy), t in zip(expected["chain_ob"]["centers"], turns)]
    want = oracles.chain_length((0.0, 0.0), corners, (100.0, 700.0), 10.0)
    assert plan.length == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("goal", [A, B], ids=["A", "B"])
def test_plan_lies_in_the_length_bounds(scene, goal):
    # bounds from polygons inside and around the clearance envelopes, with no
    # arcplan tangent, clearance or arc code: O->A and O->B are optimal
    lower, upper = oracles.length_bounds(scene, O, goal, 0.1)
    assert upper - lower < 0.1
    assert lower <= plan_route(RouteRequest(O, goal, scene)).length <= upper


def wall_triangle_scene() -> Scene:
    """A 200 x 200 field with a flat triangle on its bottom wall, so that the
    turning circle of each of its vertices leaves the field."""
    shapes = (ObstacleSpec(1, Triangle(Point(50, 0.5), Point(150, 0.5), Point(100, 8))),)
    return Scene(bounds=(200.0, 200.0), obstacles=shapes, clearance=10.0)


def box_scene() -> Scene:
    """A 100 x 100 box at (100, 100) in a 300 x 300 field."""
    return Scene(bounds=(300.0, 300.0), obstacles=(ObstacleSpec(1, AxisRect(Point(100, 100), 100, 100)),), clearance=10.0)


@pytest.mark.parametrize(
    "make_scene, start, goal",
    [
        pytest.param(builtin_scene, O, C, marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
        pytest.param(builtin_scene, Point(704.7242457978864, 784.5086054746716),
                     Point(247.7360427810712, 61.57656376432952),  # perfbench seed 3
                     marks=pytest.mark.xfail(raises=RouteInfeasible, strict=True)),
        pytest.param(builtin_scene, Point(550, 360), Point(550, 545),  # around a circle obstacle
                     marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
        pytest.param(wall_triangle_scene, Point(30, 15), Point(170, 15),
                     marks=pytest.mark.xfail(raises=RouteInfeasible, strict=True)),
        pytest.param(acute_scene, Point(330, 140), Point(120, 258),
                     marks=pytest.mark.xfail(raises=RouteInfeasible, strict=True)),
        pytest.param(box_scene, Point(100 + 10 * math.cos(math.radians(225)), 100 + 10 * math.sin(math.radians(225))),
                     Point(150, 90),  # a start on the clearance circle of the box's corner (100, 100)
                     marks=pytest.mark.xfail(raises=RouteInfeasible, strict=True)),
    ],
    ids=["o-to-c", "seed-3-pair", "circle-wrap", "wall-triangle", "acute", "start-on-a-corner-circle"],
)
def test_known_defect_lies_in_the_length_bounds(make_scene, start, goal):
    # the known defects of the exact engine: a route longer than the upper
    # bound, or none where the bound holds one; each marker goes with its fix
    scene = make_scene()
    lower, upper = oracles.length_bounds(scene, start, goal, 0.1)
    assert lower <= plan_route(RouteRequest(start, goal, scene)).length <= upper


def test_length_bounds_hold_the_shortest_o_to_c(scene):
    # 1088.1952 is the shortest O->C; the engine's 1101.3596 lies above the bracket
    lower, upper = oracles.length_bounds(scene, O, C, 0.1)
    assert lower <= 1088.1952 <= upper < 1101.3596
    assert upper - lower < 0.1


def test_no_plan_is_shorter_than_the_lower_bound(scene):
    # a route the engine returns keeps the clearance, so it is never shorter
    # than the path around the inscribed envelope polygons
    for a, b in PAIRS:
        lower, upper = oracles.length_bounds(scene, a, b, 0.3)
        assert lower <= upper
        plan = sweep.plan(arcplan, scene, a, b)
        if not isinstance(plan, RouteInfeasible):
            assert plan.length >= lower - 1e-9, (a, b, plan)


def test_plan_start_equals_goal(scene):
    plan = plan_route(RouteRequest(Point(20, 20), Point(20, 20), scene))
    assert plan.length == 0.0 and type(plan.length) is float and type(plan.path.length) is float
    assert plan.travel_time == 0.0
    assert plan.corners == ()
    assert plan.path.segments == ()
    # enumeration offers the same single plan, not loops back to the start
    assert enumerate_candidates(scene, Point(20, 20), Point(20, 20), k=3) == [plan]


def test_plan_direct_when_clear(scene):
    plan = plan_route(RouteRequest(Point(10, 10), Point(40, 10), scene))
    assert plan.path.segments == (Line(Point(10, 10), Point(40, 10)),)
    assert plan.corners == ()
    assert plan.length == pytest.approx(30.0)


def test_plan_empty_scene_is_exactly_straight():
    empty = Scene(bounds=(900.0, 900.0))
    s, g = Point(12.5, 33.25), Point(871.0, 412.75)
    plan = plan_route(RouteRequest(s, g, empty))
    assert plan.length == math.dist(s, g)  # bitwise equal, no tolerance
    assert plan.corners == ()


def test_every_plan_validates(scene):
    for goal in (A, B, C):
        plan = plan_route(RouteRequest(O, goal, scene))
        report = validate_path(plan.path, scene)
        assert report.ok, report.violations
        assert plan.length == plan.path.length
        for circle in plan.corners:
            assert circle.radius >= scene.clearance


def test_exact_never_worse_than_colony(scene):
    for goal in (A, B):
        exact = plan_route(RouteRequest(O, goal, scene))
        for seed in range(1, 6):
            colony = plan_route(
                RouteRequest(O, goal, scene, engine="aco", aco_params=AcoParams(seed=seed))
            )
            assert colony.engine == "aco"
            assert colony.aco is not None
            assert exact.length <= colony.length + 1e-9
            assert validate_path(colony.path, scene).ok


def test_enumerate_first_candidate_is_the_plan(scene):
    for goal in (A, B):
        plan = plan_route(RouteRequest(O, goal, scene))
        top = enumerate_candidates(scene, O, goal, k=1)
        assert len(top) == 1
        assert top[0].corners == plan.corners
        assert top[0].length == plan.length


def test_enumerate_candidates_ascending(scene):
    found = enumerate_candidates(scene, O, B, k=3)
    assert len(found) >= 2
    for first, second in zip(found, found[1:]):
        assert first.length <= second.length
    assert len({p.corners for p in found}) == len(found)
    for plan in found:
        assert validate_path(plan.path, scene).ok


def test_enumerate_lists_each_curve_once(scene):
    # random pair 15 of seed 2 in perfbench/inputs.py: the route that adds a
    # 0.0000-long arc at (230, 210) is the same curve, so the second candidate
    # is the next different one
    start, goal = Point(16.91589577852053, 204.55204324595408), Point(650.6835099218207, 125.69463094941993)
    plan = plan_route(RouteRequest(start, goal, scene))
    turns = ((80, 210, Turn.CW), (345, 210, Turn.CW), (500, 140, Turn.CCW))
    assert plan.corners == tuple(TurningCircle(Point(x, y), scene.clearance, t) for x, y, t in turns)
    assert repr(plan.length) == "660.4513728183134"
    first, second = enumerate_candidates(scene, start, goal, k=2)
    assert first == plan and repr(second.length) == "733.6658435880508"
    assert [c.center for c in second.corners] == [Point(80, 210), Point(230, 210), Point(280, 100), Point(410, 100)]


def test_k_shortest_routes_match_exhaustive_on_builtin(graph):
    routes = list(itertools.islice(k_shortest_routes(dict(enumerate(graph.adjacency, 1)), 1, 15), 20))
    exhaustive = oracles.exhaustive_routes([list(r) for r in graph.weights], graph.no_edge, 1, 15)
    assert len(routes) == 20
    # ascending and equal, rank by rank, to the exhaustive scan's costs
    assert [cost for _, cost in routes] == [cost for cost, _ in exhaustive[:20]]
    assert len({nodes for nodes, _ in routes}) == 20
    for nodes, cost in routes:
        assert len(set(nodes)) == len(nodes)  # loopless
        assert (cost, nodes) in exhaustive  # a real 1 -> 15 route at its own cost


def textbook_yen(g, src, dst):
    """Yen's algorithm as written: every spur of every route, plain searches,
    on a roadmap graph with every row built.  A spur search runs on the graph
    without the edges that earlier routes through the same root took out of
    the spur, and never enters the root's other nodes."""
    adjacency = {u: g[u] for u in range(1, g.node_count + 1)}
    best = best_first([(0.0, src)], dst, adjacency)
    if not best[0]:
        return
    yield best
    accepted, pool, pooled = [best], [], set()
    while True:
        prev = accepted[-1][0]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned = {frozenset((p[i], p[i + 1])) for p, _ in accepted if p[: i + 1] == root}
            successors = {u: [(v, w) for v, w in row if frozenset((u, v)) not in banned] for u, row in adjacency.items()}
            tail, tail_cost = best_first([(0.0, prev[i])], dst, successors, root[:-1])
            candidate = root[:-1] + tail
            if tail and candidate not in pooled:
                pooled.add(candidate)
                heapq.heappush(pool, (sum(dict(adjacency[a])[b] for a, b in zip(root, root[1:])) + tail_cost, candidate))
        if not pool:
            return
        accepted.append(heapq.heappop(pool)[::-1])
        yield accepted[-1]


def test_k_shortest_routes_match_textbook_yen(scene):
    # Lawler's skipped spurs and the bounded spur searches change no route,
    # no cost and no order, ties included.
    for start, goal in [(O, KNOWN_TARGETS[t]) for t in "ABC"] + PAIRS[:6]:
        g = build_roadmap(scene, start, goal).graph
        got = list(itertools.islice(k_shortest_routes(g, 1, g.node_count), 80))
        assert got == list(itertools.islice(textbook_yen(g, 1, g.node_count), 80)), (start, goal)


def test_k_shortest_routes_with_the_heuristic_match_plain_search(scene):
    # A* (the straight distance to the goal as h) changes which of several
    # equal-cost routes a search returns, never a cost: over 60 routes the
    # cost sequences are equal, and each group of equal costs that the cut
    # at 60 does not split holds the same routes.
    queries = [(scene, O, KNOWN_TARGETS[t]) for t in "ABC"] + [(scene, *pair) for pair in PAIRS[:6]]
    queries += [(shared_vertex_scene(), Point(60, 300), Point(300, 60)), (acute_scene(), Point(320, 120), Point(140, 268))]
    queries += [(scene_from_dict(req["scene_dict"]), Point(*req["from"]), Point(*req["to"]))
                for req in inputs.cold_scenes(1, 8) if len(req["scene_dict"]["obstacles"]) <= 12]
    reordered = 0
    for sc, start, goal in queries:
        g = build_roadmap(sc, start, goal).graph
        plain = list(itertools.islice(k_shortest_routes(g, 1, g.node_count), 60))
        informed = list(itertools.islice(k_shortest_routes(g, 1, g.node_count, g.to_goal), 60))
        assert [cost for _, cost in informed] == [cost for _, cost in plain], (start, goal)
        groups = [[route for route, _ in group] for _, group in itertools.groupby(plain, key=lambda rc: rc[1])]
        at = 0
        for group in groups[:-1] if len(plain) == 60 else groups:
            assert {route for route, _ in informed[at:at + len(group)]} == set(group), (start, goal, at)
            at += len(group)
        reordered += informed != plain
    assert len(queries) > 14 and reordered > 0, (len(queries), reordered)


def test_enumerate_rejects_bad_k(scene):
    with pytest.raises(ValueError):
        enumerate_candidates(scene, O, A, k=0)


def test_request_error_outside_bounds(scene):
    start = Point(-5, 0)
    for goal in (A, Point(5, 5)):  # (5, 5) is in straight sight of the start
        with pytest.raises(RequestError):
            plan_route(RouteRequest(start, goal, scene))
        with pytest.raises(RequestError):
            enumerate_candidates(scene, start, goal)


def test_request_error_blocked_endpoint(scene):
    # inside obstacle 1's footprint
    with pytest.raises(RequestError) as err:
        plan_route(RouteRequest(O, Point(310, 410), scene))
    assert "goal" in str(err.value)
    # too close to obstacle 1 without being inside
    with pytest.raises(RequestError) as err:
        plan_route(RouteRequest(O, Point(295, 405), scene))
    assert "(obstacles (1,))" in str(err.value)


def test_request_error_unknown_engine(scene):
    # a straight query too: the engine is checked before any planning
    for goal in (A, Point(50, 10)):
        with pytest.raises(RequestError, match="unknown engine 'ACO'"):
            plan_route(RouteRequest(O, goal, scene, engine="ACO"))


@st.composite
def small_scenes(draw):
    """A 300 x 300 scene of 2 to 6 obstacles of every kind, possibly
    overlapping, between x = 40 and x = 260; triangles come in either vertex
    order."""
    obstacles = []
    for oid in range(1, draw(st.integers(2, 6)) + 1):
        kind = draw(st.sampled_from(("rect", "circle", "triangle", "parallelogram")))
        x, y = draw(st.floats(40.0, 170.0)), draw(st.floats(20.0, 200.0))
        w, h = draw(st.floats(15.0, 60.0)), draw(st.floats(15.0, 80.0))
        slant = draw(st.floats(-0.5, 1.5)) if kind in ("triangle", "parallelogram") else 0.0
        if kind == "rect":
            shape = AxisRect(Point(x, y), w, h)
        elif kind == "circle":
            shape = Circle(Point(x + w / 2.0, y + w / 2.0), w / 2.0)
        elif kind == "triangle":
            verts = (Point(x, y), Point(x + w, y), Point(x + slant * w, y + h))
            shape = Triangle(*(verts[::-1] if draw(st.booleans()) else verts))
        else:
            shape = Parallelogram(Point(x, y), w, Point(x + slant * w, y + h))
        obstacles.append(ObstacleSpec(oid, shape))
    return Scene((300.0, 300.0), tuple(obstacles), 10.0)


@settings(max_examples=200)
@given(
    scene=small_scenes(),
    start=st.builds(Point, st.floats(0.0, 25.0), st.floats(0.0, 300.0)),
    goal=st.builds(Point, st.floats(275.0, 300.0), st.floats(0.0, 300.0)),
    engine=st.sampled_from(("exact", "aco")),
)
def test_random_scene_plans_pass_sampled_oracle(scene, start, goal, engine):
    # every answer keeps clearance at half-unit arc samples and is tangent at every joint
    plan = sweep.plan(arcplan, scene, start, goal, engine, ants=8, generations=8)
    if not isinstance(plan, Exception):
        assert oracles.path_violation(plan.path.segments, oracles.scene_obstacles(scene), scene.clearance) is None


def test_route_infeasible_reports_blockers():
    scene = pocket_scene()
    start, goal = Point(20, 20), Point(100, 100)
    for engine in ("exact", "aco"):
        with pytest.raises(RouteInfeasible) as err:
            plan_route(RouteRequest(start, goal, scene, engine=engine))
        assert err.value.blockers
        assert set(err.value.blockers) <= {1, 2, 3, 4}


def test_enumerate_raises_the_plan_verdict():
    scene = pocket_scene()
    start, goal = Point(20, 20), Point(100, 100)
    with pytest.raises(RouteInfeasible) as planned:
        plan_route(RouteRequest(start, goal, scene))
    with pytest.raises(RouteInfeasible) as enumerated:
        enumerate_candidates(scene, start, goal, k=3)
    assert enumerated.value.blockers == planned.value.blockers
    assert str(enumerated.value) == str(planned.value)


def test_colony_plan_smoke(scene):
    plan = plan_route(RouteRequest(O, C, scene, engine="aco"))
    exact = plan_route(RouteRequest(O, C, scene))
    assert exact.length <= plan.length + 1e-9
    assert validate_path(plan.path, scene).ok
    assert isinstance(plan, PlanResult)


COLONY_PLANS = {  # target: (chromosome, repr(colony cost), repr(length)), the same for colony seeds 1-3
    "A": ("11000000001", "462.4193370225366", "471.0372399836791"),
    "B": ("10010101110001", "817.2517056650454", "853.7001258006783"),
    "C": ("101010001111", "1065.3956380782147", "1101.3596304956586"),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("target", sorted(COLONY_PLANS))
def test_colony_plans_are_pinned(scene, target, seed):
    # The colony subgraphs weigh their hops in floats and charge a missing one
    # the 1e6 penalty, so a wrong cost from aco_run's per-run decode memo
    # shows here as another chromosome or cost.
    plan = plan_route(RouteRequest(O, KNOWN_TARGETS[target], scene, engine="aco", aco_params=AcoParams(seed=seed)))
    assert plan.engine == "aco"
    assert (plan.aco.chromosome, repr(plan.aco.cost), repr(plan.length)) == COLONY_PLANS[target]


def test_colony_miss_answered_by_exact_engine(scene):
    # On these two random pairs the seed-1 colony proposes a route that does
    # not make a valid path; the exact engine answers, and the plan says so.
    # On perfbench's random pair 15 of seed 2 its route names (230,210), a
    # corner the path does not turn on: an arc that sweeps 0 fails too.
    unturned = (Point(16.91589577852053, 204.55204324595408), Point(650.6835099218207, 125.69463094941993))
    for start, goal in [*PAIRS[9:11], unturned]:
        exact = plan_route(RouteRequest(start, goal, scene))
        colony = plan_route(RouteRequest(start, goal, scene, engine="aco", aco_params=AcoParams(seed=1)))
        assert colony.engine == "exact"
        assert colony.aco is not None
        assert colony.length == exact.length
        assert colony.corners == exact.corners
        assert validate_path(colony.path, scene).ok
        assert all(1e-9 < seg.sweep < 2 * math.pi - 1e-9 for seg in colony.path.segments if isinstance(seg, Arc))


def detour_scene(ids) -> Scene:
    """Some obstacles of a seeded random scene, for the query (302.62, 776.21)
    -> (80.10, 521.64).  With all six, the first valid chain in roadmap-cost
    order is not the shortest; with ids 2, 3, 11 and 17, the first three valid
    chains are not the three shortest."""
    obstacles = [
        {"id": 2, "kind": "circle", "center": [240.228, 718.932], "radius": 53.375},
        {"id": 3, "kind": "rect", "anchor": [35.879, 702.423], "width": 57.127, "height": 54.489},
        {"id": 9, "kind": "circle", "center": [363.056, 690.501], "radius": 14.809},
        {"id": 11, "kind": "triangle", "left": [198.497, 514.358], "lower_right": [269.011, 528.854],
         "top": [241.086, 613.743]},
        {"id": 15, "kind": "triangle", "left": [205.696, 370.439], "lower_right": [275.118, 352.623],
         "top": [260.332, 450.264]},
        {"id": 17, "kind": "rect", "anchor": [385.505, 507.954], "width": 40.973, "height": 91.769},
    ]
    return scene_from_dict({"bounds": [800.0, 800.0], "clearance": 10.0,
                            "obstacles": [ob for ob in obstacles if ob["id"] in ids]})


@pytest.fixture(scope="module")
def yen_scans(scene):
    """Per query: (scene, start, goal, [(rank, seq, roadmap cost, chain length
    or None, validated plan or None)]) over the first 150 Yen sequences, in
    the exact engine's order (A* on the straight distance to the goal)."""
    detour = (Point(302.6218164353809, 776.2112292225685), Point(80.10331516036162, 521.6401595915338))
    queries = (
        [(scene, O, KNOWN_TARGETS[t]) for t in "ABC"]
        + [(scene, *pair) for pair in PAIRS[:4]]
        + [(detour_scene(ids), *detour) for ids in ((2, 3, 9, 11, 15, 17), (2, 3, 11, 17))]
    )
    scans = []
    for sc, start, goal in queries:
        rm = build_roadmap(sc, start, goal)
        rows = []
        routes = k_shortest_routes(rm.graph, 1, rm.graph.node_count, rm.graph.to_goal)
        for rank, (seq, cost) in enumerate(itertools.islice(routes, 150)):
            try:
                length = _chain_for(rm, seq)[1].length
            except ChainingError:
                length = None
            rows.append((rank, seq, cost, length, _result(rm, sc, seq, "exact")))
        scans.append((sc, start, goal, rows))
    return scans


def test_roadmap_cost_bounds_chained_length(yen_scans):
    # the exact engine's stopping rule relies on this lower bound
    chained = 0
    for *_, rows in yen_scans:
        for rank, seq, cost, length, _ in rows[:60]:
            if length is not None:
                assert length >= cost - 1e-9, (rank, seq)
                chained += 1
    assert chained > 100


def test_stopping_rule_matches_brute_force_ranking(yen_scans):
    solved = 0
    for scene, start, goal, rows in yen_scans:
        for k in (1, 3):
            got = enumerate_candidates(scene, start, goal, k)
            if len(got) == k:
                # the full scan of 150 sequences ranks the same k plans first
                valid = [plan for *_, plan in rows if plan is not None]
                solved += 1
            else:
                # gave up: every valid chain within the give-up bound is returned
                bound = max(_FALLBACK_TRIES, 8 * k)
                valid = [plan for rank, *_, plan in rows if plan is not None and rank < bound]
            valid.sort(key=lambda p: p.length)  # stable: equal lengths stay in scan order
            assert got == valid[:k], (start, goal, k)
    assert solved >= 10


def test_scan_bounds_its_spur_searches_by_the_plans_held():
    # enumerate_candidates on a fresh Scene against a replay of _ranked_plans'
    # loop with k_shortest_routes unbounded, the same stopping rule and
    # _ChainScreen, on another fresh Scene: equal plans, and the bounded
    # spur searches build no more corner rows, and fewer on some query.
    def rows_built(sc):
        return sum(row is not None for row in planner._corners(sc).rows)

    def unbounded(sc, start, goal, k):
        rm = build_roadmap(sc, start, goal)
        found, screen = [], _ChainScreen(rm, sc)
        routes = k_shortest_routes(rm.graph, 1, rm.graph.node_count, rm.graph.to_goal)
        for seq, cost in itertools.islice(routes, max(_FALLBACK_TRIES, 8 * k)):
            if len(found) == k and cost >= found[-1].length:
                break
            if screen.ok(seq):
                found = sorted([*found, planner._plan(rm, seq, "exact")], key=lambda p: p.length)[:k]
        return found

    queries = [(builtin_scene, O, KNOWN_TARGETS[t]) for t in "ABC"]
    queries += [(builtin_scene, *pair) for pair in PAIRS[:6]]
    queries += [(lambda d=req["scene_dict"]: scene_from_dict(d), Point(*req["from"]), Point(*req["to"]))
                for req in inputs.cold_scenes(1, 8)]
    fewer = 0
    for fresh, start, goal in queries:
        for k in (1, 3):
            bounded_scene, replay_scene = fresh(), fresh()
            try:
                got = enumerate_candidates(bounded_scene, start, goal, k)
            except RouteInfeasible:
                got = []
            assert got == unbounded(replay_scene, start, goal, k), (start, goal, k)
            assert rows_built(bounded_scene) <= rows_built(replay_scene), (start, goal, k)
            fewer += rows_built(bounded_scene) < rows_built(replay_scene)
    assert fewer > 0


def test_chain_screen_matches_validate_path(yen_scans):
    # one screen per query, as the exact engine keeps it, over 150 sequences
    checked = accepted = 0
    for scene, start, goal, rows in yen_scans:
        screen = _ChainScreen(build_roadmap(scene, start, goal), scene)
        for rank, seq, _, _, plan in rows:
            assert screen.ok(seq) == (plan is not None), (start, goal, rank, seq)
            checked += 1
            accepted += plan is not None
    assert checked > 1000 and accepted > 30


def test_chain_screen_rejects_a_sequence_on_its_corner_arc_alone():
    # up the wall's left side, around its top corners and down its right
    # side: the legs keep clearance, but the arc around (100, 200) passes 7
    # from the disc beyond it
    wall = ObstacleSpec(1, AxisRect(Point(100, 50), 10, 150))
    disc = ObstacleSpec(2, Circle(Point(100 - 25 * math.sqrt(0.5), 200 + 25 * math.sqrt(0.5)), 8.0))
    scene = Scene((300.0, 300.0), (wall, disc), 10.0)
    rm = build_roadmap(scene, Point(80, 60), Point(130, 60))
    over = (1, rm.anchors.index(Point(100, 200)) + 1, rm.anchors.index(Point(110, 200)) + 1, len(rm.anchors))
    violations = validate_path(_chain_for(rm, over)[1], scene).violations
    assert [(v.kind, v.detail[:14]) for v in violations] == [("clearance", "arc segment 1 ")]
    assert not _ChainScreen(rm, scene).ok(over)


def test_results_are_immutable(scene):
    plan = plan_route(RouteRequest(O, A, scene, engine="aco", aco_params=AcoParams(generations=5)))
    for record, field in ((plan, "length"), (plan.path.segments[0], "a"), (plan.aco, "cost")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


def test_trace_wrap_points_resolve():
    # the benchmark's per-layer metrics wrap arcplan functions by name
    import tracing  # perfbench's, on the path since sweep.load

    resolved: dict[str, bool] = {}
    for module, attr, name, _how in tracing.WRAPS:
        fn = getattr(importlib.import_module(f"arcplan.{module}"), attr, None)
        resolved[name] = resolved.get(name, False) or callable(fn)
    assert resolved and all(resolved.values()), [n for n, ok in resolved.items() if not ok]


@pytest.mark.parametrize("delta", [5e-7, 5e-10, 0.0, -1e-7])
def test_roadmap_and_validate_path_share_one_clearance_limit(delta):
    # a 100 x 40 box whose top edge lies 10 - delta below the straight
    # start-goal segment: plan_route takes the straight line exactly when
    # validate_path accepts it, however close delta is to the tolerance
    box = ObstacleSpec(1, AxisRect(Point(100, 50 + delta), 100, 40))
    scene = Scene((300.0, 200.0), (box,), 10.0)
    start, goal = Point(50, 100), Point(250, 100)
    straight_ok = validate_path(SmoothPath((Line(start, goal),)), scene).ok
    plan = plan_route(RouteRequest(start, goal, scene))
    assert validate_path(plan.path, scene).ok
    assert (plan.path.segments == (Line(start, goal),)) == straight_ok
    assert straight_ok == (delta <= 5e-10)


@pytest.mark.parametrize("delta", [5e-7, 5e-10, 0.0, -1e-7])
def test_endpoint_check_and_validate_path_share_one_clearance_limit(delta):
    # the same box, now 10 - delta below the start: plan_route refuses the
    # start exactly when validate_path rejects it as a zero-length line
    box = ObstacleSpec(1, AxisRect(Point(100, 50 + delta), 100, 40))
    scene = Scene((300.0, 200.0), (box,), 10.0)
    start, goal = Point(150, 100), Point(250, 100)
    point_ok = validate_path(SmoothPath((Line(start, start),)), scene).ok
    if point_ok:
        assert validate_path(plan_route(RouteRequest(start, goal, scene)).path, scene).ok
    else:
        refusal = r"^start \(150, 100\) has clearance ([\d.]+) < (10\.0) \(obstacles \(1,\)\)$"
        with pytest.raises(RequestError, match=refusal) as refused:
            plan_route(RouteRequest(start, goal, scene))
        # the message names the gap it refuses on: the number printed is below the printed limit
        gap, limit = re.match(refusal, str(refused.value)).groups()
        assert float(gap) < float(limit), str(refused.value)
    assert point_ok == (delta <= 5e-10)


def test_planner_and_validate_path_share_one_turning_radius_rule():
    # a scene clearance 1 ulp below MIN_TURN_RADIUS: the planner refuses to
    # turn on arcs of that radius, naming both numbers apart, and
    # validate_path rejects the radius of the same route's arcs
    r = math.nextafter(MIN_TURN_RADIUS, 0.0)
    box = ObstacleSpec(1, AxisRect(Point(80, 80), 40, 40))
    start, goal = Point(50, 100), Point(150, 100)
    scene = Scene((200.0, 200.0), (box,), r)
    with pytest.raises(RequestError, match=r"clearance 9\.9999999999999982, .* is below the minimum turning radius 10$"):
        plan_route(RouteRequest(start, goal, scene))
    corners = plan_route(RouteRequest(start, goal, Scene((200.0, 200.0), (box,), 10.0))).corners
    path = chain_path(start, tuple(c._replace(radius=r) for c in corners), goal)
    assert corners and "radius" in {v.kind for v in validate_path(path, scene).violations}


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["builtin", "cold-seed-1", "cold-seed-2"])
def test_metamorphic_relations_hold(scene, seed):
    # on O->A/B/C and PAIRS, or on the 80 cold scenes of a seed: reversing a
    # query (b -> a) keeps the verdict and the length, mirroring the scene
    # (x -> W - x) keeps them and swaps every corner's turn, and scaling every
    # coordinate and the clearance by 2 doubles the length, each within 1e-6
    # (tests/relations.py counts them for a diff)
    if seed is None:
        queries = [(scene, O, KNOWN_TARGETS[t]) for t in "ABC"] + [(scene, a, b) for a, b in PAIRS]
    else:
        queries = [(scene_from_dict(req["scene_dict"]), req["from"], req["to"]) for req in inputs.cold_scenes(seed, 80)]
    for sc, a, b in queries:
        holds = relations.check(arcplan, sc, a, b)
        assert all(holds[r] for r in relations.RELATIONS), (a, b, holds)


def test_no_successful_query_computes_a_clearance_measure(scene, monkeypatch):
    # every verdict is segment_clear's or arc_clear's: the least clearance is
    # computed only to word a refused endpoint or a violation, never on the
    # way to a plan, so the measures need no pruning of their own
    pairs = [(O, KNOWN_TARGETS[t]) for t in "ABC"] + PAIRS[:10]
    calls = []
    for module, name in ((planner, "min_clearance"), (paths, "segment_min_clearance"), (paths, "arc_min_clearance")):
        monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
    for start, goal in pairs:
        plan_route(RouteRequest(start, goal, scene))
    for t in "ABC":
        plan_route(RouteRequest(O, KNOWN_TARGETS[t], scene, engine="aco", aco_params=AcoParams(seed=1)))
    assert calls == []
