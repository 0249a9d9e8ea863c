"""Tangent geometry, arcs, the corner solver, chained paths and the speed law."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from arcplan.geometry import Point, builtin_scene
from arcplan.paths import (
    Arc,
    ChainingError,
    CornerProblem,
    Line,
    SmoothPath,
    TangencyError,
    Turn,
    TurningCircle,
    arc_between,
    chain_path,
    common_tangents,
    max_turn_speed,
    solve_corner,
    tangent_length,
    tangents_from_point,
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


def test_tangents_from_point_known():
    c = TurningCircle(Point(80, 210), 10.0, Turn.CW)
    assert tangent_length(Point(0, 0), c) == pytest.approx(math.sqrt(50400), abs=1e-12)
    for t in tangents_from_point(Point(0, 0), c):
        assert math.dist(t, c.center) == pytest.approx(10.0, abs=1e-12)
        # radius is perpendicular to the tangent segment
        dot = (t.x - 0) * (t.x - c.center.x) + (t.y - 0) * (t.y - c.center.y)
        assert dot == pytest.approx(0.0, abs=1e-6)


def test_tangents_from_point_inside_raises():
    c = TurningCircle(Point(0, 0), 10.0, Turn.CCW)
    with pytest.raises(TangencyError):
        tangents_from_point(Point(3, 4), c)
    with pytest.raises(TangencyError):
        tangent_length(Point(6, 8), c)  # exactly on the circle


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
    assert tangent_length(p, c) == pytest.approx(expected, rel=1e-12)
    for t in tangents_from_point(p, c):
        assert math.dist(t, c.center) == pytest.approx(r, rel=1e-9)
        assert math.dist(p, t) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_common_tangents_counts_and_lengths():
    r = 10.0
    c1 = TurningCircle(Point(150, 435), r, Turn.CW)
    c2 = TurningCircle(Point(220, 470), r, Turn.CCW)
    D = math.dist(c1.center, c2.center)
    tangents = common_tangents(c1, c2)
    assert len(tangents) == 4
    outer, inner = tangents[:2], tangents[2:]
    for t in outer:
        assert t.length == pytest.approx(D, rel=1e-12)
    for t in inner:
        assert t.length == pytest.approx(math.sqrt(D * D - 4 * r * r), rel=1e-12)
        assert t.length == pytest.approx(math.sqrt(5725), rel=1e-12)
    for t in tangents:
        assert math.dist(t.a, c1.center) == pytest.approx(r, abs=1e-9)
        assert math.dist(t.b, c2.center) == pytest.approx(r, abs=1e-9)
        if t.length > 0:
            d = t.direction()
            assert (t.a.x - c1.center.x) * d.x + (t.a.y - c1.center.y) * d.y == pytest.approx(
                0.0, abs=1e-9
            )


def test_common_tangents_degenerate_cases():
    r = 10.0
    touching = common_tangents(
        TurningCircle(Point(0, 0), r, Turn.CW), TurningCircle(Point(20, 0), r, Turn.CW)
    )
    assert len(touching) == 3 and touching[2].length == 0.0
    overlapping = common_tangents(
        TurningCircle(Point(0, 0), r, Turn.CW), TurningCircle(Point(12, 0), r, Turn.CW)
    )
    assert len(overlapping) == 2
    with pytest.raises(TangencyError):
        common_tangents(
            TurningCircle(Point(0, 0), 10, Turn.CW), TurningCircle(Point(50, 0), 20, Turn.CW)
        )
    with pytest.raises(TangencyError):
        common_tangents(
            TurningCircle(Point(0, 0), 10, Turn.CW), TurningCircle(Point(0, 0), 10, Turn.CW)
        )


# ---------------------------------------------------------------------------
# arcs


def test_arc_between_directions():
    c_ccw = TurningCircle(Point(0, 0), 10.0, Turn.CCW)
    c_cw = TurningCircle(Point(0, 0), 10.0, Turn.CW)
    p1, p2 = Point(10, 0), Point(0, 10)
    assert arc_between(c_ccw, p1, p2).sweep == pytest.approx(math.pi / 2)
    assert arc_between(c_cw, p1, p2).sweep == pytest.approx(3 * math.pi / 2)
    assert arc_between(c_ccw, p1, p2, turn=Turn.CW).sweep == pytest.approx(3 * math.pi / 2)


def test_arc_between_rejects_off_circle_points():
    c = TurningCircle(Point(0, 0), 10.0, Turn.CCW)
    with pytest.raises(TangencyError):
        arc_between(c, Point(10.1, 0), Point(0, 10))


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
    assert arc.point_at(0.0) == arc.start
    assert math.dist(arc.point_at(1.0), arc.end) == pytest.approx(0.0, abs=1e-12)
    t = arc.tangent_at(1.0)
    assert math.hypot(t.x, t.y) == pytest.approx(1.0)
    assert arc.length == pytest.approx(10.0 * 0.75)


# ---------------------------------------------------------------------------
# corner solver


def test_corner_oa_benchmark(expected):
    want = expected["corner_oa"]
    sol = solve_corner(CornerProblem(Point(0, 0), Point(300, 300), Point(80, 210), 10.0))
    assert sol.turn is Turn.CW
    assert sol.total_length == pytest.approx(want["exact_total"], abs=1e-9)
    tol = want["point_tol"]
    assert sol.entry_tangent_point.x == pytest.approx(want["entry"][0], abs=tol)
    assert sol.entry_tangent_point.y == pytest.approx(want["entry"][1], abs=tol)
    assert sol.exit_tangent_point.x == pytest.approx(want["exit"][0], abs=tol)
    assert sol.exit_tangent_point.y == pytest.approx(want["exit"][1], abs=tol)
    line1, arc, line2 = sol.path.segments
    assert line1.length == pytest.approx(want["first_line"], abs=want["first_line_tol"])
    assert line1.length == pytest.approx(math.sqrt(50400), abs=1e-9)
    assert arc.length == pytest.approx(want["arc_length"], abs=1e-6)
    assert line2.length == pytest.approx(want["last_line"], abs=1e-6)
    assert sol.half_angle == pytest.approx(arc.sweep / 2, abs=1e-12)


def test_corner_ob3_benchmark(expected):
    want = expected["corner_ob3"]
    sol = solve_corner(CornerProblem(Point(0, 0), Point(100, 378), Point(60, 300), 10.0))
    assert sol.turn is Turn.CW
    assert sol.total_length == pytest.approx(want["exact_total"], abs=1e-9)
    line1, arc, line2 = sol.path.segments
    assert line1.length == pytest.approx(want["first_line"], abs=want["first_line_tol"])
    assert line1.length == pytest.approx(math.sqrt(93500), abs=1e-9)
    assert arc.length == pytest.approx(want["arc_length"], abs=1e-6)
    assert line2.length == pytest.approx(want["last_line"], abs=1e-6)


def test_corner_degenerate_straight():
    # collinear start, end and center with the circle beyond the far endpoint
    sol = solve_corner(CornerProblem(Point(0, 0), Point(10, 0), Point(30, 0), 10.0))
    assert sol.turn is None
    assert sol.half_angle == 0.0
    assert sol.total_length == 10.0
    assert len(sol.path.segments) == 1
    assert math.dist(sol.entry_tangent_point, (30, 0)) == pytest.approx(10.0)
    assert sol.entry_tangent_point == sol.exit_tangent_point


def test_corner_endpoint_inside_circle_raises():
    with pytest.raises(TangencyError):
        solve_corner(CornerProblem(Point(75, 210), Point(300, 300), Point(80, 210), 10.0))


def test_corner_matches_descent_oracle_sample():
    for s, e, c, r in oracles.random_corner_problems(12, seed=11):
        sol = solve_corner(CornerProblem(Point(*s), Point(*e), Point(*c), r))
        num = oracles.corner_descent(s, e, c, r, grid=4)
        if not math.isfinite(num) or abs(sol.total_length - num) > 1e-6:
            num = oracles.corner_descent(s, e, c, r, grid=8)
        assert sol.total_length == pytest.approx(num, abs=1e-6)


def test_corner_matches_kinematic_reconstruction_when_segment_clears():
    # Clearing segments: descent is ill-posed (the touch constraint admits
    # kinked optima), so compare against an independent smooth rebuild.
    for s, e, c, r in oracles.random_clearing_problems(25, seed=13):
        sol = solve_corner(CornerProblem(Point(*s), Point(*e), Point(*c), r))
        want = min(oracles.wrap_length(s, e, c, r, t) for t in (1, -1))
        assert sol.total_length == pytest.approx(want, abs=1e-9)


def test_corner_solution_is_tangent_and_on_circle():
    for s, e, c, r in oracles.random_corner_problems(25, seed=12):
        sol = solve_corner(CornerProblem(Point(*s), Point(*e), Point(*c), r))
        line1, arc, line2 = sol.path.segments
        assert math.dist(sol.entry_tangent_point, c) == pytest.approx(r, rel=1e-9)
        assert math.dist(sol.exit_tangent_point, c) == pytest.approx(r, rel=1e-9)
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
    with pytest.raises(TangencyError):
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
