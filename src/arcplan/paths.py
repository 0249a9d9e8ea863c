"""Line-and-arc smooth paths: directed tangents between turning circles,
multi-corner chains, lengths and travel times, and their validation.  Each
rule has one judge: per piece (an arc turns, its radius, the field, and the
clearance, exact on lines and arcs alike) and per junction (gap, kink);
validate_path applies them to a whole path, and corner_clear the piece
judges to one corner's arc, whose junctions its tangents make smooth.

A smooth path alternates straight lines with circular arcs of radius >= 10
(the robot's minimum turning radius).  Each line is the common tangent of two
turning circles that agrees with their turns; the start and the goal are
circles of radius 0.  The shortest way around one convex corner (`solve_corner`)
is the one-circle chain: a line-arc-line "taut rope" whose arc spans the angle
left between the two tangency points in the chosen turn direction.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterator, NamedTuple, Optional, Union

from .geometry import TAU, Point, Scene, arc_clear, arc_min_clearance, segment_clear, segment_min_clearance

MIN_TURN_RADIUS = 10.0
V0_DEFAULT = 5.0


class Turn(enum.Enum):
    CW = "cw"
    CCW = "ccw"

    @property
    def sign(self) -> float:
        return 1.0 if self is Turn.CCW else -1.0


class TurningCircle(NamedTuple):
    center: Point
    radius: float
    turn: Turn = Turn.CCW

    def at(self, angle: float) -> Point:
        (x, y), r, _ = self  # one unpack costs less than four field reads
        return Point(x + r * math.cos(angle), y + r * math.sin(angle))


class ChainingError(ValueError):
    pass


class Line(NamedTuple):
    a: Point
    b: Point

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    @property
    def start(self) -> Point:
        return self.a

    @property
    def end(self) -> Point:
        return self.b

    def direction(self) -> Point:
        L = self.length
        return Point((self.b.x - self.a.x) / L, (self.b.y - self.a.y) / L)


class Arc(NamedTuple):
    """Circular arc from start_angle to end_angle in the circle's turn sense."""

    circle: TurningCircle
    start_angle: float
    end_angle: float

    @property
    def sweep(self) -> float:
        # swept angle, normalized into [0, 2pi) along the turn direction
        if self.circle.turn is Turn.CCW:
            return (self.end_angle - self.start_angle) % TAU
        return (self.start_angle - self.end_angle) % TAU

    @property
    def length(self) -> float:
        return self.circle.radius * self.sweep

    @property
    def start(self) -> Point:
        return self.circle.at(self.start_angle)

    @property
    def end(self) -> Point:
        return self.circle.at(self.end_angle)

    def tangent_at(self, angle: float) -> Point:
        s = self.circle.turn.sign
        return Point(-s * math.sin(angle), s * math.cos(angle))

    @property
    def ccw_start(self) -> float:
        """The angle the arc starts from when swept counter-clockwise."""
        return self.start_angle if self.circle.turn is Turn.CCW else self.end_angle


PathSegment = Union[Line, Arc]


class SmoothPath(NamedTuple):
    segments: tuple[PathSegment, ...]

    @property
    def length(self) -> float:
        return sum((s.length for s in self.segments), 0.0)

    @property
    def start(self) -> Point:
        return self.segments[0].start

    @property
    def end(self) -> Point:
        return self.segments[-1].end


def pair_tangents(a: tuple[TurningCircle, ...],
                  b: tuple[TurningCircle, ...]) -> Iterator[Optional[tuple[float, float]]]:
    """Tangency angles (on c1, on c2) of the common tangent that leaves c1 and
    enters c2 consistently with their turns, for each (c1, c2) of
    itertools.product(a, b) in turn, or None where it does not exist (which
    includes a point on or inside the other circle): the outer tangent when
    the turns match, the inner one when they oppose.  a's circles share one
    center and radius, and so do b's (an anchor's turning circles); a circle
    of radius 0 is a point, where either turn gives the same tangent."""
    (x1, y1), r1, _ = a[0]  # the leg test's hot path: unpacking costs less than field reads
    (x2, y2), r2, _ = b[0]
    dx, dy = x2 - x1, y2 - y1
    D = math.hypot(dx, dy)
    beta = math.atan2(dy, dx)
    for (_, _, turn1), (_, _, turn2) in itertools.product(a, b):
        same = turn1 is turn2
        k = (r1 - r2 if same else r1 + r2) / D if D else math.inf  # inf: concentric circles
        if (abs(k) if same else k) >= 1.0:
            yield None
            continue
        delta = math.acos(k)  # pi/2 for equal radii and matching turns
        th = beta - delta if turn1 is Turn.CCW else beta + delta
        yield (th, th) if same else (th, th + math.pi)


def pair_tangent(c1: TurningCircle, c2: TurningCircle) -> tuple[float, float]:
    """pair_tangents' angles for the one pair (c1, c2); ChainingError where
    that tangent does not exist."""
    angles = next(pair_tangents((c1,), (c2,)))
    if angles is None:
        raise ChainingError(f"circles at {tuple(c1.center)} and {tuple(c2.center)} share a center, or one contains"
                            f" or overlaps the other: no {'outer' if c1.turn is c2.turn else 'inner'} tangent")
    return angles


def max_turn_speed(radius: float, v0: float = V0_DEFAULT) -> float:
    """Maximum safe speed on an arc of the given radius: v0/(1 + e^(10 - 0.1 r^2))."""
    if radius <= 0:
        raise ValueError("turn radius must be positive")
    return v0 / (1.0 + math.exp(10.0 - 0.1 * radius * radius))


def travel_time(p: SmoothPath, v0: float = V0_DEFAULT) -> float:
    """Straights at v0, each arc at the max turn speed for its radius."""
    times = (s.length / (v0 if isinstance(s, Line) else max_turn_speed(s.circle.radius, v0)) for s in p.segments)
    return sum(times, 0.0)


def solve_corner(start: Point, end: Point, center: Point, radius: float) -> SmoothPath:
    """Shortest line-arc-line path from start to end around one turning circle.

    Both one-circle chains (the circle turned either way) are built and the
    shorter returned, ties going to the smaller sweep.  The corner is wrapped
    only when it sits across the route: when the center projects onto the
    segment at or beyond either end (or start == end), the straight line is
    already taut and returned alone.
    """
    dx, dy = end[0] - start[0], end[1] - start[1]
    along = (center[0] - start[0]) * dx + (center[1] - start[1]) * dy  # the projection, times |end - start|^2
    if not 0.0 < along < dx * dx + dy * dy:
        return chain_path(start, (), end)
    wraps = [chain_path(start, (TurningCircle(Point(*center), radius, turn),), end) for turn in (Turn.CCW, Turn.CW)]
    return min(wraps, key=lambda w: (w.length, w.segments[1].sweep))


def chain_path(start: Point, circles: tuple[TurningCircle, ...], end: Point) -> SmoothPath:
    """Tangent-line / arc chain through an ordered sequence of turning circles.

    The start and the end become circles of radius 0, each consecutive pair
    is joined by the tangent of its turn pair, and arcs run on the given
    circles only.  With no circles the result is the straight segment.
    """
    start, end = Point(*start), Point(*end)
    if not circles:
        return SmoothPath((Line(start, end),))
    chain = (TurningCircle(start, 0.0), *circles, TurningCircle(end, 0.0))
    segs: list[PathSegment] = []
    for i, (c, nxt) in enumerate(zip(chain, chain[1:])):
        try:
            a_out, a_next = pair_tangent(c, nxt)
        except ChainingError as e:
            raise ChainingError(f"cannot join chain circles {i} and {i + 1}: {e}") from None
        if i:
            segs.append(Arc(c, a_in, a_out))
        segs.append(Line(c.at(a_out), nxt.at(a_next)))
        a_in = a_next
    return SmoothPath(tuple(segs))


# ---------------------------------------------------------------------------
# validation


class Violation(NamedTuple):
    kind: str  # "turn" | "radius" | "field" | "clearance" | "continuity" | "tangency"
    where: Point
    detail: str


class PathDiagnostics(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _kink_violation(i: int, j: int, a: PathSegment, b: PathSegment) -> Optional[Violation]:
    """Where segment i (a) hands over to segment j (b): a kink."""
    d1 = a.tangent_at(a.end_angle) if isinstance(a, Arc) else a.direction()
    d2 = b.tangent_at(b.start_angle) if isinstance(b, Arc) else b.direction()
    dot = d1.x * d2.x + d1.y * d2.y
    if dot < 1.0 - 1e-9:
        return Violation("tangency", a.end, f"junction {i}/{j} tangent dot {dot!r}")
    return None


def _piece_violations(i: int, seg: PathSegment, scene: Scene, *, measure: bool = True) -> Iterator[Violation]:
    """Segment i's own violations, its clearance last.  An arc must turn: a
    sweep within 1e-9 of 0 or 2pi is a corner the route does not turn on, and
    dropping it gives the same curve, or one a whole loop shorter.  Then an
    arc's radius, and the field: an end, or an axis extreme the arc sweeps.
    The clearance verdict is segment_clear's or arc_clear's, the planner's
    own; the least clearance is computed only to word a violation, and
    without `measure` not at all (its detail reads nan)."""
    points = [seg.start, seg.end]
    if isinstance(seg, Arc):
        (center, radius, _), start, sweep = seg.circle, seg.ccw_start, seg.sweep
        if not 1e-9 < sweep < TAU - 1e-9:
            yield Violation("turn", seg.start, f"arc segment {i} sweeps {sweep!r}: the route does not turn there")
        if radius < MIN_TURN_RADIUS:
            yield Violation("radius", seg.start, f"arc radius {radius} below {MIN_TURN_RADIUS}")
        extremes = (k * TAU / 4 for k in range(4))  # the angles of the circle's axis extremes
        points += [seg.circle.at(a) for a in extremes if (a - start) % TAU <= sweep]
    out = [p for p in points if not scene.contains(p)]
    if out:
        yield Violation("field", out[0], f"segment {i} leaves the field at {tuple(out[0])}")
    if isinstance(seg, Line):
        if not segment_clear(seg.a, seg.b, scene):
            worst = segment_min_clearance(seg.a, seg.b, scene) if measure else math.nan
            yield Violation("clearance", seg.start, f"line segment {i} clearance {worst:.9f}")
    elif not arc_clear(center, radius, start, sweep, scene):
        worst = arc_min_clearance(center, radius, start, sweep, scene) if measure else math.nan
        yield Violation("clearance", seg.start, f"arc segment {i} clearance {worst:.9f}")


def validate_path(p: SmoothPath, scene: Scene) -> PathDiagnostics:
    """Check each piece (an arc turns, its radius, the field, the
    clearance) and each junction (no gap, no kink).

    Clearance is exact on lines and arcs alike (the closed-form distances of
    geometry).  A line of length 0 has no direction, so the tangency check
    spans it and compares the segments on either side.  Empty diagnostics
    mean the path is legal.
    """
    segs = p.segments
    steered = [i for i, seg in enumerate(segs) if not (isinstance(seg, Line) and seg.length == 0.0)]
    kinks = {i: _kink_violation(i, j, segs[i], segs[j]) for i, j in zip(steered, steered[1:])}
    out = []
    for i, seg in enumerate(segs):
        out += _piece_violations(i, seg, scene)
        if i + 1 < len(segs):
            gap = math.hypot(seg.end.x - segs[i + 1].start.x, seg.end.y - segs[i + 1].start.y)
            out.append(Violation("continuity", seg.end, f"segments {i} and {i + 1} meet with gap {gap:g}")
                       if gap > 1e-6 else kinks.get(i))
    return PathDiagnostics(tuple(v for v in out if v is not None))


# One corner of a chain, checked alone, for callers that test many chains
# sharing corners.  Its legs are (angle out, angle in, Line) as chain_path
# builds them from pair_tangent; a leg's check is segment_clear's.


def corner_clear(
    into: tuple[float, float, Line], c: TurningCircle, out: tuple[float, float, Line], scene: Scene
) -> bool:
    """validate_path's verdict on the arc chain_path puts on c between the
    legs `into` and `out`, by validate_path's piece judges, with no clearance
    measured.  Its junctions need none: pair_tangents makes each leg tangent
    to c at the arc's ends."""
    return next(_piece_violations(0, Arc(c, into[1], out[0]), scene, measure=False), None) is None
