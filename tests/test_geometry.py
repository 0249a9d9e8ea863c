"""Scene data, planar primitives, clearance queries and the hazard envelope."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from arcplan.geometry import (
    AxisRect,
    Circle,
    Parallelogram,
    Point,
    ShapeKindError,
    Triangle,
    _pt_seg_dist,
    _seg_seg_dist,
    blocking_obstacles,
    builtin_scene,
    inflate_scene,
    min_clearance,
    obstacle_distance,
    obstacle_vertices,
    parallelogram_from,
    segment_clear,
    segment_min_clearance,
)

TAU = 2.0 * math.pi
coord = st.floats(min_value=-500.0, max_value=1500.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# scene inventory


def test_scene_inventory(scene):
    assert scene.bounds == (800.0, 800.0)
    assert scene.clearance == 10.0
    assert [o.id for o in scene.obstacles] == list(range(1, 13))
    kinds = {o.id: type(o.shape).__name__ for o in scene.obstacles}
    assert kinds == {
        1: "AxisRect",
        2: "Circle",
        3: "Parallelogram",
        4: "Triangle",
        5: "AxisRect",
        6: "Triangle",
        7: "AxisRect",
        8: "Parallelogram",
        9: "AxisRect",
        10: "AxisRect",
        11: "AxisRect",
        12: "AxisRect",
    }


def test_shape_parameters(scene):
    by_id = {o.id: o.shape for o in scene.obstacles}
    assert by_id[1] == AxisRect(Point(300, 400), 200, 200)
    assert by_id[2] == Circle(Point(550, 450), 70)
    assert by_id[4] == Triangle(Point(280, 100), Point(410, 100), Point(345, 210))
    assert by_id[5] == AxisRect(Point(80, 60), 150, 150)
    assert by_id[6] == Triangle(Point(60, 300), Point(235, 300), Point(150, 435))
    assert by_id[7] == AxisRect(Point(0, 470), 220, 60)
    assert by_id[9] == AxisRect(Point(370, 680), 60, 120)
    assert by_id[10] == AxisRect(Point(540, 600), 130, 130)
    assert by_id[11] == AxisRect(Point(640, 520), 80, 80)
    assert by_id[12] == AxisRect(Point(500, 140), 300, 60)


def test_parallelogram_completion(scene):
    by_id = {o.id: o.shape for o in scene.obstacles}
    p3 = by_id[3]
    assert (p3.v1, p3.v2, p3.v3, p3.v4) == (
        Point(360, 240),
        Point(500, 240),
        Point(540, 330),
        Point(400, 330),
    )
    p8 = by_id[8]
    assert (p8.v1, p8.v2, p8.v3, p8.v4) == (
        Point(150, 600),
        Point(240, 600),
        Point(270, 680),
        Point(180, 680),
    )
    # the fourth vertex always closes the figure: v3 = v2 + (v4 - v1)
    p = parallelogram_from(Point(10, 20), 30, Point(25, 60))
    assert p.v3 == Point(p.v2.x + (p.v4.x - p.v1.x), p.v4.y)


def test_obstacle_vertices_and_orientation(scene):
    for spec in scene.obstacles:
        if isinstance(spec.shape, Circle):
            with pytest.raises(ShapeKindError):
                obstacle_vertices(spec)
            continue
        verts = obstacle_vertices(spec)
        assert len(verts) == (3 if isinstance(spec.shape, Triangle) else 4)
        area2 = sum(
            verts[i].x * verts[(i + 1) % len(verts)].y
            - verts[(i + 1) % len(verts)].x * verts[i].y
            for i in range(len(verts))
        )
        assert area2 > 0, f"obstacle {spec.id} vertices are not CCW"


# ---------------------------------------------------------------------------
# planar primitives vs. independent implementations


@given(
    px=coord, py=coord, ax=coord, ay=coord, bx=coord, by=coord
)
def test_point_segment_distance_matches_oracle(px, py, ax, ay, bx, by):
    got = _pt_seg_dist(px, py, ax, ay, bx, by)
    want = oracles.seg_dist((px, py), (ax, ay), (bx, by))
    assert got == pytest.approx(want, abs=1e-9)


def test_segment_segment_distance():
    assert _seg_seg_dist((0, 0), (10, 10), (0, 10), (10, 0)) == 0.0  # crossing
    assert _seg_seg_dist((0, 0), (10, 0), (0, 3), (10, 3)) == pytest.approx(3.0)
    assert _seg_seg_dist((0, 0), (10, 0), (10, 0), (20, 5)) == 0.0  # shared endpoint
    assert _seg_seg_dist((0, 0), (10, 0), (14, 3), (20, 3)) == pytest.approx(5.0)


def test_obstacle_distance_matches_polygon_oracle(scene):
    rng = random.Random(3)
    polys = {
        spec.id: [tuple(v) for v in obstacle_vertices(spec)]
        for spec in scene.obstacles
        if not isinstance(spec.shape, Circle)
    }
    specs = {spec.id: spec for spec in scene.obstacles}
    for _ in range(300):
        p = Point(rng.uniform(-50, 850), rng.uniform(-50, 850))
        for oid, poly in polys.items():
            want = oracles.poly_dist(tuple(p), poly)
            got = obstacle_distance(p, specs[oid])
            assert got == pytest.approx(want, abs=1e-9), f"obstacle {oid} at {p}"


def test_circle_obstacle_distance(scene):
    circle = next(o for o in scene.obstacles if isinstance(o.shape, Circle))
    assert obstacle_distance(Point(550, 450), circle) == 0.0
    assert obstacle_distance(Point(550, 530), circle) == pytest.approx(10.0)
    assert obstacle_distance(Point(550, 380), circle) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# clearance queries


def test_min_clearance_known_values(scene):
    assert min_clearance(Point(0, 0), scene) == 100.0  # corner of obstacle 5
    assert min_clearance(Point(400, 500), scene) == 0.0  # inside obstacle 1
    assert min_clearance(Point(80, 60), scene) == 0.0  # on a vertex


@given(x=coord, y=coord)
def test_min_clearance_nonnegative(x, y):
    assert min_clearance(Point(x, y), builtin_scene()) >= 0.0


def test_degenerate_segment_equals_point_clearance(scene):
    for p in (Point(0, 0), Point(50, 50), Point(777, 20)):
        assert segment_min_clearance(p, p, scene) == min_clearance(p, scene)


def test_straight_oa_is_blocked(scene):
    assert not segment_clear(Point(0, 0), Point(300, 300), scene)
    assert blocking_obstacles(Point(0, 0), Point(300, 300), scene) == (5,)


def test_short_straight_run_is_clear(scene):
    assert segment_clear(Point(0, 0), Point(10, 10), scene)


def test_segment_clearance_margins(scene):
    # obstacle 5 has its bottom edge on y=60 between x=80 and x=230
    assert segment_clear(Point(60, 40), Point(250, 40), scene)  # 20 units away
    assert not segment_clear(Point(60, 55), Point(250, 55), scene)  # 5 units away
    assert blocking_obstacles(Point(60, 55), Point(250, 55), scene) == (5,)
    # exactly at the clearance counts as clear
    assert segment_clear(Point(60, 50), Point(250, 50), scene)


def test_scene_contains():
    scene = builtin_scene()
    assert scene.contains(Point(0, 0))
    assert scene.contains(Point(800, 800))
    assert not scene.contains(Point(-1, 0))
    assert not scene.contains(Point(0, 801))


# ---------------------------------------------------------------------------
# hazard envelope


def test_envelope_regions_structure(scene):
    regions = inflate_scene(scene)
    assert [r.source for r in regions] == list(range(1, 13))
    by_id = {r.source: r for r in regions}
    circle_region = by_id[2]
    assert circle_region.inflated_circle == Circle(Point(550, 450), 80)
    assert circle_region.offset_edges == () and circle_region.corner_arcs == ()
    for spec in scene.obstacles:
        if isinstance(spec.shape, Circle):
            continue
        n = len(obstacle_vertices(spec))
        region = by_id[spec.id]
        assert len(region.offset_edges) == n
        assert len(region.corner_arcs) == n
        assert all(arc.radius == scene.clearance for arc in region.corner_arcs)


def test_envelope_boundary_sits_at_clearance(scene):
    polys = {
        spec.id: [tuple(v) for v in obstacle_vertices(spec)]
        for spec in scene.obstacles
        if not isinstance(spec.shape, Circle)
    }
    for region in inflate_scene(scene):
        if region.inflated_circle is not None:
            continue
        poly = polys[region.source]
        for a, b in region.offset_edges:
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                p = (a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                assert oracles.poly_dist(p, poly) == pytest.approx(10.0, abs=1e-9)
        for arc in region.corner_arcs:
            for t in (0.0, 0.5, 1.0):
                ang = arc.start_angle + t * (arc.end_angle - arc.start_angle)
                p = (
                    arc.center.x + arc.radius * math.cos(ang),
                    arc.center.y + arc.radius * math.sin(ang),
                )
                assert oracles.poly_dist(p, poly) == pytest.approx(10.0, abs=1e-9)


def test_envelope_corner_arcs_sum_to_full_turn(scene):
    # exterior angles of a convex polygon always add up to one full turn
    for region in inflate_scene(scene):
        if region.inflated_circle is not None:
            continue
        total = sum(arc.end_angle - arc.start_angle for arc in region.corner_arcs)
        assert total == pytest.approx(TAU, abs=1e-9)
        assert all(arc.end_angle >= arc.start_angle for arc in region.corner_arcs)


def test_envelope_area_of_rectangle_monte_carlo(scene):
    # offsetting a w*h rectangle by c adds perimeter*c plus a full corner disc
    rect = [(300, 400), (500, 400), (500, 600), (300, 600)]
    analytic = 200 * 200 + 800 * 10 + math.pi * 10 * 10
    estimate = oracles.mc_area(
        lambda p: oracles.poly_dist(p, rect) <= 10.0, (285, 385, 515, 615), 200_000, seed=7
    )
    assert estimate == pytest.approx(analytic, abs=25.0)
