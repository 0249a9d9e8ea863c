"""Scene data, planar primitives, clearance queries and the hazard envelope."""

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from arcplan.geometry import (
    CLEARANCE_EPS,
    CONE_MARGIN,
    AxisRect,
    Circle,
    ObstacleSpec,
    Parallelogram,
    Point,
    Scene,
    ShapeKindError,
    Triangle,
    _pt_seg_dist,
    arc_clear,
    arc_min_clearance,
    blocking_obstacles,
    builtin_scene,
    in_cone,
    min_clearance,
    obstacle_vertices,
    polygon_vertices,
    segment_clear,
    segment_min_clearance,
    segment_obstacle_distance,
)
from arcplan.sceneio import render_svg, scene_from_dict
from test_planner import inputs, oracle, shared_vertex_scene

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
    assert by_id[3] == Parallelogram(Point(360, 240), 140, Point(400, 330))
    assert polygon_vertices(by_id[3]) == (
        Point(360, 240),
        Point(500, 240),
        Point(540, 330),
        Point(400, 330),
    )
    assert by_id[8] == Parallelogram(Point(150, 600), 90, Point(180, 680))
    assert polygon_vertices(by_id[8]) == (
        Point(150, 600),
        Point(240, 600),
        Point(270, 680),
        Point(180, 680),
    )
    # the fourth vertex always closes the figure: v3 = v2 + (v4 - v1)
    v1, v2, v3, v4 = polygon_vertices(Parallelogram(Point(10, 20), 30, Point(25, 60)))
    assert (v1, v2, v4) == (Point(10, 20), Point(40, 20), Point(25, 60))
    assert v3 == Point(v2.x + (v4.x - v1.x), v4.y)


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


def test_clockwise_polygons_read_as_ccw():
    # a triangle and a parallelogram (top edge below the base) given clockwise
    shapes = (
        Triangle(Point(100, 100), Point(300, 500), Point(500, 100)),
        Parallelogram(Point(400, 600), 200, Point(450, 450)),
    )
    assert polygon_vertices(shapes[1]) == (Point(400, 600), Point(600, 600), Point(650, 450), Point(450, 450))
    rng = random.Random(5)
    for oid, shape in enumerate(shapes, start=1):
        given = polygon_vertices(shape)
        spec = ObstacleSpec(oid, shape)
        verts = obstacle_vertices(spec)
        assert verts == given[::-1]
        area2 = sum(verts[i - 1].x * verts[i].y - verts[i].x * verts[i - 1].y for i in range(len(verts)))
        assert area2 > 0
        for _ in range(400):
            p = Point(rng.uniform(50, 750), rng.uniform(50, 750))
            got, want = segment_obstacle_distance(p, p, spec), oracle.point_distance(p, ("poly", given))
            assert (got == 0.0) == (want == 0.0), f"obstacle {oid} at {p}"
            assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# planar primitives vs. independent implementations


@given(
    px=coord, py=coord, ax=coord, ay=coord, bx=coord, by=coord
)
def test_point_segment_distance_matches_oracle(px, py, ax, ay, bx, by):
    got = _pt_seg_dist(px, py, ax, ay, bx, by)
    want = oracles.seg_dist((px, py), (ax, ay), (bx, by))
    assert got == pytest.approx(want, abs=1e-9)


def test_segment_distance_matches_oracle(scene):
    # The one segment-obstacle kernel, per obstacle and over a scene, against
    # the oracle: random segments (one in five a point) over the builtin scene
    # and generated scenes of 12 and 6 obstacles, then fixed cases against a
    # thin rectangle (-10, 0)-(10, 1) and inside the builtin scene.
    scenes = [scene] + [
        scene_from_dict(req["scene_dict"])
        for req in inputs.cold_scenes(1, 8)
        if len(req["scene_dict"]["obstacles"]) <= 12
    ]
    rng = random.Random(11)
    cases = []
    for sc in scenes:
        w, h = sc.bounds
        for _ in range(600):
            a = Point(rng.uniform(0, w), rng.uniform(0, h))
            b = a if rng.random() < 0.2 else Point(rng.uniform(0, w), rng.uniform(0, h))
            cases.append((sc, a, b, None))
    thin = Scene((100.0, 100.0), (ObstacleSpec(1, AxisRect(Point(-10, 0), 20, 1)),), 10.0)
    for a, b, want in [
        ((0, -5), (5, 5), 0.0),  # crossing
        ((-10, -3), (10, -3), 3.0),  # parallel, 3 apart
        ((10, 1), (20, 6), 0.0),  # touching at a vertex
        ((-14, -3), (-20, -3), 5.0),  # 5 apart, vertex against an end
        ((-5, 1), (5, 1), 0.0),  # along an edge
        ((0, 0.5), (0, 50), 0.0),  # an end inside
    ]:
        cases.append((thin, Point(*a), Point(*b), want))
    cases.append((scene, Point(400, 500), Point(700, 20), 0.0))  # an end inside obstacle 1
    for sc, a, b, want in cases:
        obstacles = oracles.scene_obstacles(sc)
        clearance = oracle.segment_clearance(a, b, obstacles)
        if want is not None:
            assert clearance == pytest.approx(want, abs=1e-9), (a, b)
        assert segment_min_clearance(a, b, sc) == pytest.approx(clearance, abs=1e-9), (a, b)
        for spec, ob in zip(sc.obstacles, obstacles):
            assert segment_obstacle_distance(a, b, spec) == pytest.approx(
                oracle.segment_distance(a, b, ob), abs=1e-9), (a, b, spec.id)


def test_obstacle_distance_matches_polygon_oracle(scene):
    rng = random.Random(3)
    polys = [(spec, ob) for spec, ob in zip(scene.obstacles, oracles.scene_obstacles(scene)) if ob[0] == "poly"]
    for _ in range(300):
        p = Point(rng.uniform(-50, 850), rng.uniform(-50, 850))
        for spec, ob in polys:
            want = oracle.point_distance(p, ob)
            got = segment_obstacle_distance(p, p, spec)
            assert got == pytest.approx(want, abs=1e-9), f"obstacle {spec.id} at {p}"


def test_circle_obstacle_distance(scene):
    circle = next(o for o in scene.obstacles if isinstance(o.shape, Circle))

    def dist(x, y):
        return segment_obstacle_distance(Point(x, y), Point(x, y), circle)

    assert dist(550, 450) == 0.0
    assert dist(550, 530) == pytest.approx(10.0)
    assert dist(550, 380) == pytest.approx(0.0)


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
    obstacles = oracles.scene_obstacles(scene)
    for p in (Point(0, 0), Point(50, 50), Point(777, 20)):
        assert min_clearance(p, scene) == pytest.approx(oracle.point_clearance(p, obstacles), abs=1e-9), p


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


def test_segment_clear_is_the_min_clearance_test(scene):
    # one scene per clearance: the verdict is segment_min_clearance's at the
    # scene's clearance less CLEARANCE_EPS, the boundary (limit = worst)
    # included, and so is a clearance at or below CLEARANCE_EPS (limit <= 0)
    rng = random.Random(3)
    for _ in range(300):
        a, b = (Point(rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(2))
        worst = segment_min_clearance(a, b, scene)
        for limit in (5.0, 10.0 - 1e-6, 10.0, 40.0, worst, CLEARANCE_EPS, CLEARANCE_EPS / 2, 0.0):
            s = replace(scene, clearance=limit)
            assert segment_clear(a, b, s) == (worst >= s.clearance - CLEARANCE_EPS), (a, b, limit)
    # the bbox test's boundary: a box whose gap to the segment on one axis is
    # the limit or lies within 1e-12 of it; and a diagonal gap whose two
    # components are each below the limit while their hypot reaches it or
    # not, which the bbox test passes on to the exact distance
    box = Scene((100.0, 100.0), (ObstacleSpec(1, AxisRect(Point(0, 0), 50, 50)),), 10.0)
    limit = box.clearance - CLEARANCE_EPS
    gaps = (limit, math.nextafter(limit, 0.0), math.nextafter(limit, 20.0), limit - 1e-12, limit + 1e-12)
    diagonal = limit / math.sqrt(2.0)
    while math.hypot(diagonal, diagonal) < limit:
        diagonal = math.nextafter(diagonal, 20.0)
    below = math.nextafter(diagonal, 0.0)
    assert math.hypot(below, below) < limit <= math.hypot(diagonal, diagonal) and diagonal < limit
    segments = [(Point(-g, -20.0), Point(-g, 70.0)) for g in gaps]  # the x gap is g exactly
    segments += [(Point(-20.0, -g), Point(70.0, -g)) for g in gaps]  # the y gap
    segments += [(Point(-d, -d), Point(-d - 40.0, -d - 10.0)) for d in (diagonal, below)]
    # the same gaps for points, the zero-length segments planner's endpoint check judges
    points = [Point(-g, 25.0) for g in gaps] + [Point(25.0, -g) for g in gaps]
    points += [Point(-d, -d) for d in (diagonal, below)]
    segments += [(p, p) for p in points]
    verdicts = []
    for a, b in segments:
        verdicts.append(segment_clear(a, b, box))
        assert verdicts[-1] == (segment_min_clearance(a, b, box) >= limit), (a, b)
    assert verdicts == ([True, False, True, False, True] * 2 + [True, False]) * 2
    assert [min_clearance(p, box) >= limit for p in points] == verdicts[len(points):]


def around(r: float) -> list[float]:
    """r, 1 ulp, 1e-12, 1e-10, 1e-9 and 2e-9 either side of it."""
    return [r, math.nextafter(r, math.inf), math.nextafter(r, 0.0)] + [
        r + sign * e for e in (1e-12, 1e-10, 1e-9, 2e-9) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
def test_segment_clear_side_test_keeps_the_verdict_at_every_scale(scale):
    # segment_clear skips a polygon that lies about the clearance or more to
    # one side of pq's line.  Segments square to a normal through a polygon's
    # extreme vertex, at the clearance, 1 ulp, 1e-12, 1e-10, 1e-9 and 2e-9
    # either side of it, keep segment_min_clearance's verdict with the
    # polygon at every coordinate scale, below the side test's reach and
    # beyond it.
    shapes = (
        Triangle(Point(scale, scale), Point(scale + 130.0, scale + 10.0), Point(scale + 40.0, scale + 110.0)),
        AxisRect(Point(scale, -scale), 90.0, 35.0),
        Parallelogram(Point(-scale, scale), 80.0, Point(-scale + 25.0, scale + 60.0)),
    )
    r = 10.0
    checked = 0
    for shape in shapes:
        scene = Scene((1e13, 1e13), (ObstacleSpec(1, shape),), r)
        verts = polygon_vertices(shape)
        for k in range(24):
            phi = (k + 0.37) * TAU / 24
            nx, ny = math.cos(phi), math.sin(phi)
            v = max(verts, key=lambda w: nx * w.x + ny * w.y)
            for d in around(r):
                cx, cy = v.x + d * nx, v.y + d * ny
                for back, ahead in ((5.0, 30.0), (200.0, 50.0), (0.5, 1000.0)):
                    p, q = Point(cx + back * ny, cy - back * nx), Point(cx - ahead * ny, cy + ahead * nx)
                    for a, b in ((p, q), (q, p)):
                        expected = segment_min_clearance(a, b, scene) >= r - CLEARANCE_EPS
                        assert segment_clear(a, b, scene) == expected, (scale, shape, phi, d, a, b)
                        checked += 1
    assert checked == 3 * 24 * 11 * 3 * 2


@pytest.mark.parametrize("scale", [1e2, 1e8, 1e10, 1e12])
def test_segment_clear_side_test_reads_the_scene_extent(scale):
    # A short segment near the origin, parallel to a triangle's edge that runs
    # from near it out to `scale`: the far vertex's cross product rounds by
    # about scale * 2**-53 of the segment's length, so the scene's extent, not
    # the segment's, must turn the side test off.
    r = 10.0
    for k in range(24):
        beta = (k + 0.37) * TAU / 24
        ex, ey = math.cos(beta), math.sin(beta)
        v1 = Point(3.0, 4.0)
        v2 = Point(v1.x + scale * ex, v1.y + scale * ey)
        v3 = Point(v2.x + 50.0 * ey, v2.y - 50.0 * ex)
        scene = Scene((100.0, 100.0), (ObstacleSpec(1, Triangle(v1, v2, v3)),), r)
        for d in around(r):
            p = Point(v1.x - d * ey - 5.0 * ex, v1.y + d * ex - 5.0 * ey)
            q = Point(p.x + 60.0 * ex, p.y + 60.0 * ey)
            for a, b in ((p, q), (q, p)):
                expected = segment_min_clearance(a, b, scene) >= r - CLEARANCE_EPS
                assert segment_clear(a, b, scene) == expected, (scale, beta, d, a, b)


def test_segment_clear_side_test_skips_nothing_for_a_subnormal_length():
    # pq too short for a normal length: its cross products underflow, and a
    # polygon 9.7 from it would pass a side test that read them
    scene = Scene((100.0, 100.0), (ObstacleSpec(1, AxisRect(Point(-50.0, 9.7), 100.0, 20.0)),), 10.0)
    for q in (Point(5e-324, 0.0), Point(0.0, 5e-324), Point(1e-310, 1e-310)):
        assert not segment_clear(Point(0.0, 0.0), q, scene), q


def window_edge_angles(scene: Scene, v: Point) -> list[float]:
    """Angles on v's clearance circle at and beside the edges of each blocked
    window in_cone may hold at v, worked out from the edges at v of each
    polygon with a vertex there (obstacle_vertices): pi/2 - CONE_MARGIN
    either side of each edge's direction, then a few ulps, 1e-6 and
    CONE_MARGIN to either side of that, and the edge's direction itself."""
    angles = []
    for spec in scene.obstacles:
        if isinstance(spec.shape, Circle) or v not in (verts := obstacle_vertices(spec)):
            continue
        i = verts.index(v)
        for other in (verts[i - 1], verts[(i + 1) % len(verts)]):
            phi = math.atan2(other.y - v.y, other.x - v.x)
            angles.append(phi)
            for edge in (phi - math.pi / 2 + CONE_MARGIN, phi + math.pi / 2 - CONE_MARGIN):
                steps = [k * math.ulp(edge) for k in (1, 2, 3)] + [1e-6, CONE_MARGIN]
                angles += [edge, *(edge + s for s in steps), *(edge - s for s in steps)]
    return angles


def cone_agrees_with_oracle(scene: Scene) -> int:
    """Assert that every end the vertex windows rule out at some vertex of the
    scene lies closer than the clearance limit to the scene by the oracle's
    distances, and that segment_clear rejects it; return how many were ruled
    out.  The segment is the end alone, which segment_clear rejects least
    readily.  Also assert that a vertex's free arc holds every sampled angle
    in_cone passes there and none further than 1e-9 inside a window."""
    r, ruled_out = scene.clearance, 0
    obstacles = oracles.scene_obstacles(scene)
    for v, cones in scene.compiled.cones.items():
        arc = scene.compiled.free[v]
        assert arc is None or len(cones) == 2, v
        ends = [e for lo in cones for e in (lo, lo + math.pi - 2.0 * CONE_MARGIN)]
        for a in window_edge_angles(scene, v):
            p = Point(v.x + r * math.cos(a), v.y + r * math.sin(a))
            if in_cone(a, cones):
                assert oracle.point_clearance(p, obstacles) < r - CLEARANCE_EPS, (v, a, p)
                assert not segment_clear(p, p, scene), (v, a, p)
                ruled_out += 1
            if arc is not None:  # the free arc holds every angle in_cone passes, and reaches 1e-9 into a window
                if (a - arc[0]) % TAU <= arc[1]:
                    assert not in_cone(a, cones) or min(abs(math.remainder(a - e, TAU)) for e in ends) <= 1e-9
                else:
                    assert in_cone(a, cones), (v, a, arc)
    return ruled_out


@given(
    short=st.sampled_from(("1e-7", "1", "r/2", "r", "2r", "100")),
    turn=st.floats(0.0, TAU),
    spread=st.floats(0.05, math.pi - 0.05),
    clearance=st.sampled_from((10.0, 1e-3)),
)
def test_in_cone_rules_out_only_ends_below_the_clearance(short, turn, spread, clearance):
    # A triangle with one edge of the given length at (400, 400): whenever
    # in_cone rules out a point on a vertex's clearance circle, at a window's
    # edge or a hair to either side of it, that point lies closer than the
    # clearance limit to the triangle, and segment_clear rejects it.  Windows
    # cover only edges at least the clearance long, and only a clearance
    # whose margin r*(1 - cos(CONE_MARGIN)) exceeds CLEARANCE_EPS: a 1e-7
    # edge or a clearance of 1e-3 would break the rule.
    r = clearance
    length = {"1e-7": 1e-7, "1": 1.0, "r/2": r / 2, "r": r, "2r": 2 * r, "100": 100.0}[short]
    v = Point(400.0, 400.0)
    u = Point(v.x + length * math.cos(turn), v.y + length * math.sin(turn))
    w = Point(v.x + 60.0 * math.cos(turn + spread), v.y + 60.0 * math.sin(turn + spread))
    scene = Scene((800.0, 800.0), (ObstacleSpec(1, Triangle(v, u, w)),), r)
    ruled_out = cone_agrees_with_oracle(scene)
    assert ruled_out > 0 or clearance < 1.0  # the far edge is 60 long


def test_in_cone_at_a_vertex_of_two_polygons():
    scene = shared_vertex_scene()
    assert len(scene.compiled.cones[Point(200.0, 200.0)]) == 4  # both squares' two edges
    assert cone_agrees_with_oracle(scene) > 100


ARC_SCENE = Scene(
    (300.0, 300.0),
    (
        ObstacleSpec(1, AxisRect(Point(40, 40), 60, 40)),
        ObstacleSpec(2, Triangle(Point(160, 40), Point(240, 60), Point(190, 120))),
        ObstacleSpec(3, Parallelogram(Point(50, 170), 70, Point(80, 240))),
        ObstacleSpec(4, Circle(Point(200, 200), 30)),
    ),
    10.0,
)


def _random_arcs(rng, count):
    """(center, radius, start, sweep) arcs around ARC_SCENE: centered on a
    polygon vertex, near an edge (most of these cross it), grazing an edge
    from outside at a set gap, or around the circle obstacle; sweeps near 0,
    near 2 pi or anywhere between."""
    polys = [ob[1] for ob in oracles.scene_obstacles(ARC_SCENE) if ob[0] == "poly"]
    out = []
    for n in range(count):
        kind = n % 4
        poly = rng.choice(polys)
        k = rng.randrange(len(poly))
        (ax, ay), (bx, by) = poly[k], poly[(k + 1) % len(poly)]
        sweep = rng.choice([rng.uniform(1e-7, 1e-3), TAU - rng.uniform(1e-7, 1e-3), rng.uniform(0.0, TAU)])
        start = rng.uniform(-TAU, TAU)
        if kind == 0:
            out.append(((ax, ay), rng.uniform(2.0, 25.0), start, sweep))
        elif kind == 1:
            t = rng.uniform(0.0, 1.0)
            center = (ax + t * (bx - ax) + rng.uniform(-15, 15), ay + t * (by - ay) + rng.uniform(-15, 15))
            out.append((center, rng.uniform(2.0, 25.0), start, sweep))
        elif kind == 2:
            # the outward normal of edge ab, and a foot on it; the polygon may
            # be listed either way round, so point away from its vertex mean
            L = math.hypot(bx - ax, by - ay)
            nx, ny = (by - ay) / L, (ax - bx) / L
            mx, my = (sum(v[0] for v in poly) / len(poly), sum(v[1] for v in poly) / len(poly))
            if nx * (mx - ax) + ny * (my - ay) > 0:
                nx, ny = -nx, -ny
            t = rng.uniform(0.1, 0.9)
            gap = rng.choice([0.0, 1e-3, 10.0, rng.uniform(0.0, 12.0)])
            r = rng.uniform(3.0, 25.0)
            center = (ax + t * (bx - ax) + (r + gap) * nx, ay + t * (by - ay) + (r + gap) * ny)
            sweep = rng.uniform(0.3, TAU - 1e-4)
            out.append((center, r, math.atan2(-ny, -nx) - rng.uniform(0.1, sweep - 0.1), sweep))
        else:
            center = (200 + rng.uniform(-45, 45), 200 + rng.uniform(-45, 45))
            out.append((center, rng.uniform(2.0, 25.0), start, sweep))
    return out


def test_arc_clearance_matches_sampled_oracle():
    # Every sample lies on the arc, so the exact value is at most the sampled
    # minimum; every arc point lies within the sagitta of the polyline through
    # the samples, so the exact value is at least the polyline's minimum less
    # the sagitta.
    obstacles = oracles.scene_obstacles(ARC_SCENE)
    for center, r, start, sweep in _random_arcs(random.Random(7), 160):
        points = oracles.arc_points(center, r, start, sweep, 0.5)
        sagitta = r * (1.0 - math.cos(sweep / (len(points) - 1) / 2.0))
        sampled = min(oracle.point_clearance(p, obstacles) for p in points)
        polyline = min(oracle.segment_clearance(p, q, obstacles) for p, q in zip(points, points[1:]))
        exact = arc_min_clearance(Point(*center), r, start, sweep, ARC_SCENE)
        case = (center, r, start, sweep)
        assert polyline - sagitta - 1e-9 <= exact <= sampled + 1e-9, case
        for limit in (exact, exact + 1e-6, 10.0 - 1e-6):
            s = replace(ARC_SCENE, clearance=limit)
            assert arc_clear(Point(*center), r, start, sweep, s) == (exact >= s.clearance - CLEARANCE_EPS), case


def test_arc_clearance_of_lone_corners(scene):
    # A vertex with no other obstacle within 2r: the arc of radius r through
    # its normal cone keeps exactly r, and just past either side its own
    # polygon comes closer.
    r = scene.clearance
    lone = 0
    for spec in scene.obstacles:
        if isinstance(spec.shape, Circle):
            continue
        verts = obstacle_vertices(spec)
        for i, v in enumerate(verts):
            if any(other != spec and segment_obstacle_distance(v, v, other) < 2.0 * r for other in scene.obstacles):
                continue
            a, b = verts[i - 1], verts[(i + 1) % len(verts)]
            start = math.atan2(a.x - v.x, v.y - a.y)  # outward normals of the edges into and out of v
            span = (math.atan2(v.x - b.x, b.y - v.y) - start) % TAU
            assert arc_min_clearance(v, r, start, span, scene) == pytest.approx(r, abs=1e-9), v
            assert arc_min_clearance(v, r, start - 0.05, span + 0.05, scene) < r - 1e-3, v
            assert arc_min_clearance(v, r, start, span + 0.05, scene) < r - 1e-3, v
            lone += 1
    assert lone >= 20
    # two squares meeting at (200, 200): the arc around that corner meets the other square
    squares = Scene((400.0, 400.0), (ObstacleSpec(1, AxisRect(Point(100, 100), 100, 100)),
                                     ObstacleSpec(2, AxisRect(Point(200, 200), 100, 100))), 10.0)
    assert arc_min_clearance(Point(200, 200), r, -math.pi / 2, math.pi / 2, squares) == 0.0
    assert arc_min_clearance(Point(100, 100), r, math.pi, math.pi / 2, squares) == pytest.approx(r)


def test_scene_contains():
    scene = builtin_scene()
    assert scene.contains(Point(0, 0))
    assert scene.contains(Point(800, 800))
    assert not scene.contains(Point(-1, 0))
    assert not scene.contains(Point(0, 801))


# ---------------------------------------------------------------------------
# hazard envelope


def _svg_envelope(scene):
    """The shapes of render_svg's <g id="envelope"> group, in drawing order:
    ("circle", [cx, cy, r]) or ("path", [(command letter, [numbers]), ...])."""
    svg = render_svg(scene)
    group = svg.split('<g id="envelope">\n', 1)[1].split("\n</g>", 1)[0]
    shapes = []
    for line in group.splitlines():
        if line.startswith("<circle"):
            shapes.append(("circle", [float(re.search(f' {a}="([^"]+)"', line)[1]) for a in ("cx", "cy", "r")]))
        else:
            d = re.search(' d="([^"]+)"', line)[1]
            commands = re.findall(r"([MLAZ])([^MLAZ]*)", d)
            shapes.append(("path", [(cmd, [float(x) for x in args.split()]) for cmd, args in commands]))
    return shapes


def _path_points(commands):
    """(command letter, point, the point before it) of each drawn point of a path."""
    out, last = [], None
    for cmd, nums in commands:
        if nums:
            p = (nums[-2], nums[-1])
            out.append((cmd, p, last))
            last = p
    return out


def test_envelope_regions_structure(scene):
    shapes = _svg_envelope(scene)
    assert len(shapes) == len(scene.obstacles) == 12
    for spec, (kind, data) in zip(scene.obstacles, shapes):
        if isinstance(spec.shape, Circle):
            assert kind == "circle" and data == [550.0, 450.0, 80.0]
            continue
        n = len(obstacle_vertices(spec))
        assert kind == "path" and [cmd for cmd, _ in data] == ["M", *["L", "A"] * n, "Z"]
        joins = [nums for cmd, nums in data if cmd == "A"]
        assert all(nums[:5] == [scene.clearance, scene.clearance, 0, 0, 1] for nums in joins)


def test_envelope_boundary_sits_at_clearance(scene):
    # the path's points are written with 3 decimals
    for ob, (kind, data) in zip(oracles.scene_obstacles(scene), _svg_envelope(scene)):
        if kind == "circle":
            continue
        for cmd, p, before in _path_points(data):
            assert oracle.point_distance(p, ob) == pytest.approx(10.0, abs=1e-3)
            if cmd == "L":  # an offset edge: its midpoint sits at the clearance too
                mid = ((p[0] + before[0]) / 2, (p[1] + before[1]) / 2)
                assert oracle.point_distance(mid, ob) == pytest.approx(10.0, abs=1e-3)


def test_envelope_corner_arcs_sum_to_full_turn(scene):
    # exterior angles of a convex polygon always add up to one full turn
    for spec, (kind, data) in zip(scene.obstacles, _svg_envelope(scene)):
        if kind == "circle":
            continue
        verts = obstacle_vertices(spec)
        total = 0.0
        for cmd, p, before in _path_points(data):
            if cmd == "A":
                v = min(verts, key=lambda w: math.dist(w, before))  # the vertex the join turns about
                assert math.dist(v, before) == pytest.approx(10.0, abs=1e-3)
                assert math.dist(v, p) == pytest.approx(10.0, abs=1e-3)
                turn = (math.atan2(p[1] - v.y, p[0] - v.x) - math.atan2(before[1] - v.y, before[0] - v.x)) % TAU
                assert 0.0 < turn < math.pi
                total += turn
        assert total == pytest.approx(TAU, abs=1e-2)


def test_envelope_area_of_rectangle_monte_carlo(scene):
    # offsetting a w*h rectangle by c adds perimeter*c plus a full corner disc
    rect = [(300, 400), (500, 400), (500, 600), (300, 600)]
    analytic = 200 * 200 + 800 * 10 + math.pi * 10 * 10
    estimate = oracles.mc_area(
        lambda p: oracle.point_distance(p, ("poly", rect)) <= 10.0, (285, 385, 515, 615), 200_000, seed=7
    )
    assert estimate == pytest.approx(analytic, abs=25.0)
