"""Scene-level planning: roadmap construction, both engines, enumeration."""

import itertools
import math

import pytest

import oracles
from arcplan.aco import AcoParams
from arcplan.geometry import AxisRect, ObstacleSpec, Point, Scene
from arcplan.paths import Turn, validate_path
from arcplan.planner import (
    KNOWN_TARGETS,
    PlanResult,
    RequestError,
    RouteInfeasible,
    RouteRequest,
    build_roadmap,
    corner_candidates,
    enumerate_candidates,
    k_shortest_routes,
    plan_route,
)

O, A, B, C = (KNOWN_TARGETS[k] for k in "OABC")


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
    assert rm.radius == scene.clearance
    assert Point(80.0, 210.0) in rm.anchors
    g = rm.graph
    assert g.no_edge == math.inf
    n = g.node_count
    assert n == len(rm.anchors)
    # every present edge carries the plain anchor distance
    checked = 0
    for i in range(1, n + 1):
        for j, w in g.neighbors(i):
            assert w == pytest.approx(math.dist(rm.anchors[i - 1], rm.anchors[j - 1]))
            checked += 1
    assert checked > 0


def test_build_roadmap_holds_chain_corners(scene, expected):
    rm = build_roadmap(scene, O, B)
    for cx, cy in expected["chain_ob"]["centers"]:
        assert Point(cx, cy) in rm.anchors


def test_build_roadmap_empty_scene():
    empty = Scene(bounds=(500.0, 500.0))
    rm = build_roadmap(empty, Point(10, 10), Point(480, 30))
    assert len(rm.anchors) == 2
    assert rm.graph.has_edge(1, 2)
    assert rm.graph.weight(1, 2) == pytest.approx(math.dist((10, 10), (480, 30)))


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


def test_plan_start_equals_goal(scene):
    plan = plan_route(RouteRequest(Point(20, 20), Point(20, 20), scene))
    assert plan.length == 0.0
    assert plan.corners == ()
    assert plan.node_sequence == (1, 1)
    # enumeration offers the same single plan, not loops back to the start
    assert enumerate_candidates(scene, Point(20, 20), Point(20, 20), k=3) == [plan]


def test_plan_direct_when_clear(scene):
    plan = plan_route(RouteRequest(Point(10, 10), Point(40, 10), scene))
    assert plan.node_sequence == (1, 2)
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
        assert top[0].node_sequence == plan.node_sequence
        assert top[0].length == plan.length


def test_enumerate_candidates_ascending(scene):
    found = enumerate_candidates(scene, O, B, k=3)
    assert len(found) >= 2
    for first, second in zip(found, found[1:]):
        assert first.length <= second.length
    sequences = {p.node_sequence for p in found}
    assert len(sequences) == len(found)
    for plan in found:
        assert validate_path(plan.path, scene).ok


def test_k_shortest_routes_match_exhaustive_on_builtin(graph):
    routes = list(itertools.islice(k_shortest_routes(graph, 1, 15), 20))
    exhaustive = oracles.exhaustive_routes([list(r) for r in graph.weights], graph.no_edge, 1, 15)
    assert len(routes) == 20
    # ascending and equal, rank by rank, to the exhaustive scan's costs
    assert [cost for _, cost in routes] == [cost for cost, _ in exhaustive[:20]]
    assert len({nodes for nodes, _ in routes}) == 20
    for nodes, cost in routes:
        assert len(set(nodes)) == len(nodes)  # loopless
        assert (cost, nodes) in exhaustive  # a real 1 -> 15 route at its own cost


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
    with pytest.raises(RequestError):
        plan_route(RouteRequest(O, Point(295, 405), scene))


def test_route_infeasible_reports_blockers():
    scene = pocket_scene()
    start, goal = Point(20, 20), Point(100, 100)
    for engine in ("exact", "aco"):
        with pytest.raises(RouteInfeasible) as err:
            plan_route(RouteRequest(start, goal, scene, engine=engine))
        assert err.value.blockers
        assert set(err.value.blockers) <= {1, 2, 3, 4}


def test_colony_plan_smoke(scene):
    plan = plan_route(RouteRequest(O, C, scene, engine="aco"))
    exact = plan_route(RouteRequest(O, C, scene))
    assert exact.length <= plan.length + 1e-9
    assert validate_path(plan.path, scene).ok
    assert isinstance(plan, PlanResult)
