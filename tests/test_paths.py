"""Tangent geometry, arcs, the corner solver, chained paths and the speed law."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arcplan import paths
from arcplan.geometry import AxisRect, Circle, ObstacleSpec, Point, Scene, builtin_scene, segment_clear
from arcplan.paths import (
    Arc,
    ChainingError,
    Line,
    SmoothPath,
    Turn,
    TurningCircle,
    chain_path,
    corner_clear,
    max_turn_speed,
    pair_tangent,
    solve_corner,
    travel_time,
    validate_path,
)

TAU = 2.0 * math.pi

OB_CORNERS = (
    TurningCircle(Point(60, 300), 10.0, Turn.CW),
    TurningCircle(Point(150, 435), 10.0, Turn.CW),
    TurningCircle(Point(220, 470), 10.0, Turn.CCW),
    TurningCircle(Point(220, 530), 10.0, Turn.CCW),
    TurningCircle(Point(150, 600), 10.0, Turn.CW),
)


# ---------------------------------------------------------------------------
# point and circle tangents


def _angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TAU - math.pi)


def _point_tangents(p: Point, c: TurningCircle) -> list[Point]:
    """Tangency points of the tangents from p, a circle of radius 0, into c's
    circle turning either way."""
    out = []
    for turn in (Turn.CW, Turn.CCW):
        circle = TurningCircle(c.center, c.radius, turn)
        out.append(circle.at(pair_tangent(TurningCircle(p, 0.0), circle)[1]))
    return out


def test_tangents_from_point_known():
    c = TurningCircle(Point(80, 210), 10.0, Turn.CW)
    points = _point_tangents(Point(0, 0), c)
    assert math.dist(*points) > 1.0  # the two turns give two distinct tangents
    for t in points:
        assert math.dist(Point(0, 0), t) == pytest.approx(math.sqrt(50400), abs=1e-9)
        assert math.dist(t, c.center) == pytest.approx(10.0, abs=1e-12)
        # radius is perpendicular to the tangent segment
        dot = (t.x - 0) * (t.x - c.center.x) + (t.y - 0) * (t.y - c.center.y)
        assert dot == pytest.approx(0.0, abs=1e-6)


def test_tangents_from_point_inside_raises():
    # a point inside the circle, and one exactly on it, has no tangent either way
    for p in (Point(3, 4), Point(6, 8)):
        for t1 in (Turn.CW, Turn.CCW):
            for t2 in (Turn.CW, Turn.CCW):
                point, circle = TurningCircle(p, 0.0, t1), TurningCircle(Point(0, 0), 10.0, t2)
                with pytest.raises(ChainingError):
                    pair_tangent(point, circle)
                with pytest.raises(ChainingError):
                    pair_tangent(circle, point)


@given(
    cx=st.floats(-100, 100),
    cy=st.floats(-100, 100),
    r=st.floats(1.0, 50.0),
    ang=st.floats(0.0, TAU),
    gap=st.floats(0.5, 200.0),
)
def test_tangent_invariants(cx, cy, r, ang, gap):
    c = TurningCircle(Point(cx, cy), r, Turn.CCW)
    p = Point(cx + (r + gap) * math.cos(ang), cy + (r + gap) * math.sin(ang))
    expected = math.sqrt((r + gap) ** 2 - r * r)
    for t in _point_tangents(p, c):
        assert math.dist(t, c.center) == pytest.approx(r, rel=1e-9)
        assert math.dist(p, t) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_point_tangent_angles_follow_the_turn():
    # a radius-0 circle at p, of either turn, enters and leaves the circle on
    # the kinematically consistent tangents of the independent construction
    p, center = Point(-40, 25), Point(30, -10)
    for turn in (Turn.CCW, Turn.CW):
        c = TurningCircle(center, 10.0, turn)
        for point_turn in (Turn.CCW, Turn.CW):
            point = TurningCircle(p, 0.0, point_turn)
            entry = pair_tangent(point, c)[1]
            exit_ = pair_tangent(c, point)[0]
            assert _angle_gap(entry, oracles.entry_angle(p, center, 10.0, turn.sign)) < 1e-12
            assert _angle_gap(exit_, oracles.entry_angle(p, center, 10.0, -turn.sign)) < 1e-12


def _pair_segment(c1, c2):
    a1, a2 = pair_tangent(c1, c2)
    return Line(c1.at(a1), c2.at(a2))


def test_common_tangents_counts_and_lengths():
    r = 10.0
    a, b = Point(150, 435), Point(220, 470)
    D = math.dist(a, b)
    segments = {}
    for t1 in (Turn.CW, Turn.CCW):
        for t2 in (Turn.CW, Turn.CCW):
            c1, c2 = TurningCircle(a, r, t1), TurningCircle(b, r, t2)
            seg = _pair_segment(c1, c2)
            segments[t1, t2] = seg
            assert math.dist(seg.a, a) == pytest.approx(r, abs=1e-9)
            assert math.dist(seg.b, b) == pytest.approx(r, abs=1e-9)
            if t1 is t2:  # outer tangent: a translate of the center line
                assert seg.length == pytest.approx(D, rel=1e-12)
            else:  # inner tangent
                assert seg.length == pytest.approx(math.sqrt(D * D - 4 * r * r), rel=1e-12)
                assert seg.length == pytest.approx(math.sqrt(5725), rel=1e-12)
            # the segment leaves c1 and enters c2 along their turn directions
            d = seg.direction()
            for circle, q in ((c1, seg.a), (c2, seg.b)):
                angle = math.atan2(q.y - circle.center.y, q.x - circle.center.x)
                s = circle.turn.sign
                assert d.x * -s * math.sin(angle) + d.y * s * math.cos(angle) == pytest.approx(1.0, abs=1e-12)
    # the four turn pairs give the four distinct common tangents
    ends = {(round(s.a.x, 6), round(s.a.y, 6), round(s.b.x, 6), round(s.b.y, 6)) for s in segments.values()}
    assert len(ends) == 4


def test_common_tangents_degenerate_cases():
    r = 10.0
    for D in (20.0, 12.0):  # touching, overlapping
        for turn in (Turn.CW, Turn.CCW):
            same = _pair_segment(TurningCircle(Point(0, 0), r, turn), TurningCircle(Point(D, 0), r, turn))
            assert same.length == pytest.approx(D, rel=1e-12)
            other = Turn.CCW if turn is Turn.CW else Turn.CW
            with pytest.raises(ChainingError):
                pair_tangent(TurningCircle(Point(0, 0), r, turn), TurningCircle(Point(D, 0), r, other))
    for t1 in (Turn.CW, Turn.CCW):  # concentric
        for t2 in (Turn.CW, Turn.CCW):
            with pytest.raises(ChainingError):
                pair_tangent(TurningCircle(Point(5, 5), r, t1), TurningCircle(Point(5, 5), r, t2))
    with pytest.raises(ChainingError):  # containment: no outer tangent
        pair_tangent(TurningCircle(Point(0, 0), 10, Turn.CW), TurningCircle(Point(5, 0), 30, Turn.CW))


# ---------------------------------------------------------------------------
# arcs


def test_arc_sweep_directions():
    c_ccw = TurningCircle(Point(0, 0), 10.0, Turn.CCW)
    c_cw = TurningCircle(Point(0, 0), 10.0, Turn.CW)
    assert Arc(c_ccw, 0.0, math.pi / 2).sweep == pytest.approx(math.pi / 2)
    assert Arc(c_cw, 0.0, math.pi / 2).sweep == pytest.approx(3 * math.pi / 2)
    assert Arc(c_cw, math.pi / 2, 0.0).sweep == pytest.approx(math.pi / 2)
    assert Arc(c_ccw, math.pi / 2, 0.0).sweep == pytest.approx(3 * math.pi / 2)


def test_arc_chord_identity_sample():
    # r*theta recovered from the chord: theta = 2*asin(chord / 2r)
    rng = random.Random(5)
    for _ in range(100):
        r = rng.uniform(1, 50)
        c = TurningCircle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), r, Turn.CCW)
        a = rng.uniform(0, TAU)
        sweep = rng.uniform(1e-3, math.pi - 1e-3)
        arc = Arc(c, a, a + sweep)
        chord = math.dist(arc.start, arc.end)
        assert arc.length == pytest.approx(r * 2 * math.asin(chord / (2 * r)), abs=1e-9)


def test_arc_endpoints_and_tangent():
    c = TurningCircle(Point(3, 4), 10.0, Turn.CW)
    arc = Arc(c, 1.0, 0.25)
    assert arc.start == Point(3 + 10 * math.cos(1.0), 4 + 10 * math.sin(1.0))
    assert arc.end == Point(3 + 10 * math.cos(0.25), 4 + 10 * math.sin(0.25))
    t = arc.tangent_at(1.0)
    assert math.hypot(t.x, t.y) == pytest.approx(1.0)
    assert arc.length == pytest.approx(10.0 * 0.75)


# ---------------------------------------------------------------------------
# corner solver


def test_corner_oa_benchmark(expected):
    want = expected["corner_oa"]
    sol = solve_corner(Point(0, 0), Point(300, 300), Point(80, 210), 10.0)
    line1, arc, line2 = sol.segments
    assert arc.circle.turn is Turn.CW
    assert sol.length == pytest.approx(want["exact_total"], abs=1e-9)
    tol = want["point_tol"]
    assert line1.b.x == pytest.approx(want["entry"][0], abs=tol)
    assert line1.b.y == pytest.approx(want["entry"][1], abs=tol)
    assert line2.a.x == pytest.approx(want["exit"][0], abs=tol)
    assert line2.a.y == pytest.approx(want["exit"][1], abs=tol)
    assert line1.length == pytest.approx(want["first_line"], abs=want["first_line_tol"])
    assert line1.length == pytest.approx(math.sqrt(50400), abs=1e-9)
    assert arc.length == pytest.approx(want["arc_length"], abs=1e-6)
    assert line2.length == pytest.approx(want["last_line"], abs=1e-6)


def test_corner_ob3_benchmark(expected):
    want = expected["corner_ob3"]
    sol = solve_corner(Point(0, 0), Point(100, 378), Point(60, 300), 10.0)
    line1, arc, line2 = sol.segments
    assert arc.circle.turn is Turn.CW
    assert sol.length == pytest.approx(want["exact_total"], abs=1e-9)
    assert line1.length == pytest.approx(want["first_line"], abs=want["first_line_tol"])
    assert line1.length == pytest.approx(math.sqrt(93500), abs=1e-9)
    assert arc.length == pytest.approx(want["arc_length"], abs=1e-6)
    assert line2.length == pytest.approx(want["last_line"], abs=1e-6)


@pytest.mark.parametrize(
    "start, end, center",
    [
        ((0, 0), (10, 0), (30, 0)),  # the center projects beyond the far end
        ((0, 0), (10, 0), (-5, 20)),  # the center projects before the start
        ((40, 50), (40, 50), (60, 50)),  # start == end
    ],
    ids=["beyond-end", "before-start", "start-is-end"],
)
def test_corner_degenerate_straight(start, end, center):
    # the straight line is already taut: solve_corner returns it alone
    assert solve_corner(Point(*start), Point(*end), Point(*center), 10.0) == chain_path(start, (), end)


def test_corner_endpoint_inside_circle_raises():
    with pytest.raises(ChainingError):
        solve_corner(Point(75, 210), Point(300, 300), Point(80, 210), 10.0)


def test_corner_matches_descent_oracle_sample():
    for s, e, c, r in oracles.random_corner_problems(12, seed=11):
        sol = solve_corner(Point(*s), Point(*e), Point(*c), r)
        num = oracles.corner_descent(s, e, c, r, grid=4)
        if not math.isfinite(num) or abs(sol.length - num) > 1e-6:
            num = oracles.corner_descent(s, e, c, r, grid=8)
        assert sol.length == pytest.approx(num, abs=1e-6)


def test_corner_matches_kinematic_reconstruction_when_segment_clears():
    # Clearing segments: descent is ill-posed (the touch constraint admits
    # kinked optima), so compare against an independent smooth rebuild.
    for s, e, c, r in oracles.random_clearing_problems(25, seed=13):
        sol = solve_corner(Point(*s), Point(*e), Point(*c), r)
        want = min(oracles.wrap_length(s, e, c, r, t) for t in (1, -1))
        assert sol.length == pytest.approx(want, abs=1e-9)


def test_corner_solution_is_tangent_and_on_circle():
    for s, e, c, r in oracles.random_corner_problems(25, seed=12):
        sol = solve_corner(Point(*s), Point(*e), Point(*c), r)
        line1, arc, line2 = sol.segments
        assert math.dist(line1.b, c) == pytest.approx(r, rel=1e-9)
        assert math.dist(line2.a, c) == pytest.approx(r, rel=1e-9)
        d1, t1 = line1.direction(), arc.tangent_at(arc.start_angle)
        d2, t2 = arc.tangent_at(arc.end_angle), line2.direction()
        assert d1.x * t1.x + d1.y * t1.y == pytest.approx(1.0, abs=1e-9)
        assert d2.x * t2.x + d2.y * t2.y == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# chained paths


def test_chain_ob_benchmark(expected):
    want = expected["chain_ob"]
    path = chain_path(Point(0, 0), OB_CORNERS, Point(100, 700))
    assert len(path.segments) == 11
    assert path.length == pytest.approx(want["exact_total"], abs=1e-9)
    for seg, length in zip(path.segments, want["segment_lengths"]):
        assert seg.length == pytest.approx(length, abs=1e-6)
    # line, arc alternation starting and ending on a line
    kinds = ["arc" if isinstance(s, Arc) else "line" for s in path.segments]
    assert kinds == ["line", "arc"] * 5 + ["line"]


def test_chain_ob_matches_independent_construction(expected):
    corners = [(c.center.x, c.center.y, c.turn.sign) for c in OB_CORNERS]
    want = oracles.chain_length((0, 0), corners, (100, 700), 10.0)
    path = chain_path(Point(0, 0), OB_CORNERS, Point(100, 700))
    assert path.length == pytest.approx(want, abs=1e-9)


def test_chain_random_matches_oracle():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 4)
        xs = sorted(rng.uniform(50, 550) for _ in range(n))
        circles = []
        ok = True
        for i, x in enumerate(xs):
            c = Point(x + 120 * i, rng.uniform(-80, 80))
            if circles and math.dist(c, circles[-1].center) < 45:
                ok = False
                break
            circles.append(TurningCircle(c, 10.0, rng.choice((Turn.CW, Turn.CCW))))
        if not ok:
            continue
        start = Point(-120, rng.uniform(-40, 40))
        end = Point(circles[-1].center.x + 150, rng.uniform(-40, 40))
        path = chain_path(start, tuple(circles), end)
        want = oracles.chain_length(
            tuple(start),
            [(c.center.x, c.center.y, c.turn.sign) for c in circles],
            tuple(end),
            10.0,
        )
        assert path.length == pytest.approx(want, abs=1e-9)


def test_chain_empty_is_straight():
    path = chain_path(Point(0, 0), (), Point(30, 40))
    assert len(path.segments) == 1
    assert path.length == 50.0


def test_chain_errors():
    with pytest.raises(ChainingError):
        chain_path(
            Point(-50, 0),
            (
                TurningCircle(Point(0, 0), 10, Turn.CCW),
                TurningCircle(Point(15, 0), 10, Turn.CW),
            ),
            Point(60, 0),
        )
    with pytest.raises(ChainingError):
        chain_path(Point(3, 0), (TurningCircle(Point(0, 0), 10, Turn.CCW),), Point(60, 0))


# ---------------------------------------------------------------------------
# speed law and travel time


def test_speed_law_fixed_points():
    assert max_turn_speed(10.0) == 2.5
    assert max_turn_speed(100.0) == 5.0
    assert max_turn_speed(10.0, v0=8.0) == 4.0
    with pytest.raises(ValueError):
        max_turn_speed(0.0)


def test_speed_law_monotone_sample():
    # strictly increasing until the sigmoid saturates to v0 in float precision
    prev = 0.0
    for i in range(1, 201):
        v = max_turn_speed(i * 0.5)
        assert v >= prev
        if i * 0.5 <= 20.0:
            assert v > prev
        prev = v
    assert prev == 5.0


def test_travel_time_straight_and_circle():
    straight = SmoothPath((Line(Point(0, 0), Point(100, 0)),))
    assert travel_time(straight) == pytest.approx(20.0)
    c = TurningCircle(Point(0, 0), 10.0, Turn.CCW)
    loop = SmoothPath((Arc(c, 0.0, 0.0),))  # full turn: sweep normalizes to 0
    assert loop.length == 0.0
    half = SmoothPath((Arc(c, 0.0, math.pi),))
    assert travel_time(half) == pytest.approx(10.0 * math.pi / 2.5)


def test_travel_time_ob_chain(expected):
    path = chain_path(Point(0, 0), OB_CORNERS, Point(100, 700))
    assert travel_time(path) == pytest.approx(expected["chain_ob"]["travel_time"], abs=1e-6)


# ---------------------------------------------------------------------------
# validation


def test_validate_ob_chain_is_legal(scene):
    path = chain_path(Point(0, 0), OB_CORNERS, Point(100, 700))
    diag = validate_path(path, scene)
    assert diag.ok, diag.violations


def test_validate_flags_clearance(scene):
    diag = validate_path(SmoothPath((Line(Point(0, 0), Point(300, 300)),)), scene)
    assert not diag.ok
    assert any(v.kind == "clearance" for v in diag.violations)


def test_validate_flags_small_radius(scene):
    c = TurningCircle(Point(700, 100), 9.0, Turn.CCW)
    diag = validate_path(SmoothPath((Arc(c, 0.0, 1.0),)), scene)
    assert any(v.kind == "radius" for v in diag.violations)


def test_validate_flags_continuity_and_tangency(scene):
    gap = SmoothPath((Line(Point(0, 0), Point(50, 0)), Line(Point(60, 0), Point(100, 0))))
    assert any(v.kind == "continuity" for v in validate_path(gap, scene).violations)
    kink = SmoothPath((Line(Point(0, 0), Point(50, 0)), Line(Point(50, 0), Point(50, 40))))
    assert any(v.kind == "tangency" for v in validate_path(kink, scene).violations)


@pytest.mark.parametrize("turn", list(Turn))
def test_validate_flags_arc_leaving_the_field(turn):
    # either way round the circle at (50, 5) the arc reaches y = -5, below
    # the field of an empty 100 x 100 scene, yet every line and arc keeps clearance
    scene = Scene(bounds=(100.0, 100.0))
    path = chain_path(Point(20, 30), (TurningCircle(Point(50, 5), 10.0, turn),), Point(80, 30))
    violations = validate_path(path, scene).violations
    assert violations and {v.kind for v in violations} == {"field"}
    assert all(v.where.y < 0.0 for v in violations)
    into, arc, out = path.segments
    assert not corner_clear((None, arc.start_angle, into), arc.circle, (arc.end_angle, None, out), scene)
    raised = chain_path(Point(20, 40), (TurningCircle(Point(50, 15), 10.0, turn),), Point(80, 40))
    assert validate_path(raised, scene).ok  # 10 higher, the arc stays inside


@pytest.mark.parametrize("turn, cy", [(Turn.CW, 30), (Turn.CCW, 50)])
@pytest.mark.parametrize("rise", [0.0, 1e-12, -1e-12])
def test_corner_clear_rejects_a_corner_the_path_does_not_turn_on(turn, cy, rise):
    # the line y = 40 touches the circle, so the arc on it sweeps 0, or 2pi
    # less a rounding error, as the goal rises or sinks by 1e-12 (cw at 30
    # and 1e-12 higher, a loop about 62.8 longer than the line): the route
    # does not turn there, and validate_path and corner_clear both say so
    scene = Scene(bounds=(100.0, 100.0))
    into, arc, out = chain_path(Point(20, 40), (TurningCircle(Point(50, cy), 10.0, turn),), Point(80, 40 + rise)).segments
    assert min(arc.sweep, TAU - arc.sweep) < 1e-9
    violations = validate_path(SmoothPath((into, arc, out)), scene).violations
    assert [(v.kind, v.where) for v in violations] == [("turn", arc.start)]
    assert repr(arc.sweep) in violations[0].detail
    assert not corner_clear((None, arc.start_angle, into), arc.circle, (arc.end_angle, None, out), scene)
    # halfway into the line, the route bends round the circle
    into, arc, out = chain_path(Point(20, 40), (TurningCircle(Point(50, (cy + 40) / 2), 10.0, turn),), Point(80, 40)).segments
    assert validate_path(SmoothPath((into, arc, out)), scene).ok
    assert corner_clear((None, arc.start_angle, into), arc.circle, (arc.end_angle, None, out), scene)


@st.composite
def _corners(draw):
    """A radius-10 circle in a 200 x 200 scene with clearance 10, the start
    and the goal of a one-corner chain round it, and up to two obstacles near
    the middle of the arc the chain turns on: circles and axis rects, or a
    circle about the clearance off the arc."""
    center = Point(draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 200.0)))
    circle = TurningCircle(center, 10.0, draw(st.sampled_from(list(Turn))))
    enter = draw(st.floats(-math.pi, math.pi))
    bend = max(draw(st.floats(-1.0, TAU - 0.01)), 0.0)  # 0: the exit on the entry's tangent, a sweep of 0 or 2pi
    arc = Arc(circle, enter, enter + circle.turn.sign * bend)
    d_in, d_out = arc.tangent_at(arc.start_angle), arc.tangent_at(arc.end_angle)
    l_in, l_out = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
    start = Point(arc.start.x - l_in * d_in.x, arc.start.y - l_in * d_in.y)
    goal = Point(arc.end.x + l_out * d_out.x, arc.end.y + l_out * d_out.y)
    mid = enter + circle.turn.sign * bend / 2
    size = st.floats(1.0, 12.0)
    near = st.builds(lambda r, a: TurningCircle(center, r).at(mid + a), st.floats(0.0, 35.0), st.floats(-1.0, 1.0))
    rim = st.builds(lambda r, gap, a: Circle(TurningCircle(center, 20.0 + r + gap).at(mid + a), r),
                    size, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
    shape = st.one_of(st.builds(Circle, near, size), st.builds(AxisRect, near, size, size), rim)
    obstacles = tuple(ObstacleSpec(i, s) for i, s in enumerate(draw(st.lists(shape, max_size=2)), 1))
    return Scene((200.0, 200.0), obstacles, 10.0), start, circle, goal


@given(_corners())
@settings(max_examples=300)
def test_corner_clear_is_validate_path_on_the_one_corner_chain(corner):
    # where both legs of the chain keep clearance and stay in the field,
    # corner_clear is validate_path's verdict on the chain, decided without
    # measuring a clearance
    scene, start, circle, goal = corner
    try:
        into, arc, out = chain_path(start, (circle,), goal).segments
    except ChainingError:
        return
    if not all(segment_clear(a, b, scene) and scene.contains(a) and scene.contains(b) for a, b in (into, out)):
        return

    def measured(*_args):
        raise AssertionError("corner_clear measured a clearance")

    with pytest.MonkeyPatch.context() as mp:  # a Hypothesis test: no function-scoped fixture
        for name in ("arc_min_clearance", "segment_min_clearance"):
            mp.setattr(paths, name, measured)
        verdict = corner_clear((None, arc.start_angle, into), circle, (arc.end_angle, None, out), scene)
    assert verdict == validate_path(SmoothPath((into, arc, out)), scene).ok


def test_validate_checks_tangency_across_zero_length_line(scene):
    # a line of length 0 has no direction: the segments on either side must agree
    stop = Line(Point(50, 0), Point(50, 0))
    straight = SmoothPath((Line(Point(0, 0), Point(50, 0)), stop, stop, Line(Point(50, 0), Point(70, 0))))
    assert validate_path(straight, scene).ok
    kinked = SmoothPath((Line(Point(0, 0), Point(50, 0)), stop, Line(Point(50, 0), Point(60, 10))))
    assert [v.kind for v in validate_path(kinked, scene).violations] == ["tangency"]
    turn = Arc(TurningCircle(Point(50, 10), 10.0, Turn.CCW), -math.pi / 2, 0.0)
    pause = Line(turn.end, turn.end)
    assert validate_path(SmoothPath((Line(Point(0, 0), Point(50, 0)), turn, pause, Line(turn.end, Point(60, 30)))), scene).ok
    bent = SmoothPath((turn, pause, Line(turn.end, Point(80, 10))))
    assert [v.kind for v in validate_path(bent, scene).violations] == ["tangency"]
