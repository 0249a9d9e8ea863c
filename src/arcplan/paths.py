"""Line-and-arc smooth paths: point/circle tangents, the single-corner
optimization, multi-corner chains, lengths and travel times.

A smooth path alternates straight tangent lines with circular arcs of radius
>= 10 (the robot's minimum turning radius).  The shortest way around one
convex corner is a line-arc-line "taut rope" whose geometry is closed-form:
the lines are point-to-circle tangents, the arc is whatever angle remains
between the two tangency points in the chosen turn direction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

from .geometry import Point, Scene, min_clearance, segment_obstacle_distance

TAU = 2.0 * math.pi
MIN_TURN_RADIUS = 10.0
V0_DEFAULT = 5.0
ON_CIRCLE_TOL = 1e-6


class Turn(enum.Enum):
    CW = "cw"
    CCW = "ccw"

    @property
    def sign(self) -> float:
        return 1.0 if self is Turn.CCW else -1.0


@dataclass(frozen=True)
class TurningCircle:
    center: Point
    radius: float
    turn: Turn = Turn.CCW

    def at(self, angle: float) -> Point:
        return Point(
            self.center.x + self.radius * math.cos(angle),
            self.center.y + self.radius * math.sin(angle),
        )


class TangencyError(ValueError):
    pass


class ChainingError(ValueError):
    pass


@dataclass(frozen=True)
class Line:
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


@dataclass(frozen=True)
class Arc:
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

    def point_at(self, fraction: float) -> Point:
        a = self.start_angle + self.circle.turn.sign * self.sweep * fraction
        return self.circle.at(a)


PathSegment = Union[Line, Arc]


@dataclass(frozen=True)
class SmoothPath:
    segments: tuple[PathSegment, ...]

    @property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    @property
    def start(self) -> Point:
        return self.segments[0].start

    @property
    def end(self) -> Point:
        return self.segments[-1].end

    def lines(self) -> tuple[Line, ...]:
        return tuple(s for s in self.segments if isinstance(s, Line))

    def arcs(self) -> tuple[Arc, ...]:
        return tuple(s for s in self.segments if isinstance(s, Arc))


@dataclass(frozen=True)
class CornerProblem:
    start: Point
    end: Point
    center: Point
    radius: float


@dataclass(frozen=True)
class CornerSolution:
    entry_tangent_point: Point
    exit_tangent_point: Point
    half_angle: float  # half the arc sweep; sin(half_angle) = chord / (2r) when sweep <= pi
    path: SmoothPath
    total_length: float
    turn: Optional[Turn]


def tangents_from_point(p: Point, c: TurningCircle) -> tuple[Point, Point]:
    """The two tangency points of the tangent lines from p to the circle.

    Returned as (plus, minus): at polar angles phi +/- alpha seen from the
    center, where phi is the direction of p and alpha = arccos(r / |p - c|).
    The tangent segment length is sqrt(|p - c|^2 - r^2) for both.
    """
    dx, dy = p[0] - c.center.x, p[1] - c.center.y
    d = math.hypot(dx, dy)
    if d <= c.radius:
        raise TangencyError(f"point {p} is not strictly outside circle at {c.center} (r={c.radius})")
    alpha = math.acos(c.radius / d)
    phi = math.atan2(dy, dx)
    return c.at(phi + alpha), c.at(phi - alpha)


def tangent_length(p: Point, c: TurningCircle) -> float:
    d2 = (p[0] - c.center.x) ** 2 + (p[1] - c.center.y) ** 2
    if d2 <= c.radius * c.radius:
        raise TangencyError(f"point {p} is not strictly outside circle at {c.center}")
    return math.sqrt(d2 - c.radius * c.radius)


def common_tangents(c1: TurningCircle, c2: TurningCircle) -> tuple[Line, ...]:
    """Common tangent segments between two equal-radius circles.

    Two outer tangents (translates of the center line, length = center
    distance) always exist for distinct centers; the two inner tangents exist
    iff the center distance exceeds 2r.  Raises on concentric or unequal-radius
    input.
    """
    if abs(c1.radius - c2.radius) > 1e-12:
        raise TangencyError("common_tangents expects equal radii")
    dx, dy = c2.center.x - c1.center.x, c2.center.y - c1.center.y
    D = math.hypot(dx, dy)
    if D == 0.0:
        raise TangencyError("concentric circles admit no common tangent")
    r = c1.radius
    beta = math.atan2(dy, dx)
    out = []
    for th in (beta + math.pi / 2, beta - math.pi / 2):
        out.append(Line(c1.at(th), c2.at(th)))
    if D > 2 * r:
        g = math.acos(2 * r / D)
        for th in (beta + g, beta - g):
            p1 = c1.at(th)
            p2 = Point(c2.center.x - r * math.cos(th), c2.center.y - r * math.sin(th))
            out.append(Line(p1, p2))
    elif D == 2 * r:
        mid = Point((c1.center.x + c2.center.x) / 2, (c1.center.y + c2.center.y) / 2)
        out.append(Line(mid, mid))
    return tuple(out)


def arc_between(c: TurningCircle, p1: Point, p2: Point, turn: Optional[Turn] = None) -> Arc:
    """Arc on circle c from p1 to p2 swept in the given direction.

    Both points must lie on the circle within 1e-6.  For sweeps below pi the
    length agrees with the chord form 2r*arcsin(chord / 2r).
    """
    turn = turn if turn is not None else c.turn
    for p in (p1, p2):
        err = abs(math.hypot(p[0] - c.center.x, p[1] - c.center.y) - c.radius)
        if err > ON_CIRCLE_TOL:
            raise TangencyError(f"point {p} lies {err:g} off the circle at {c.center}")
    a1 = math.atan2(p1[1] - c.center.y, p1[0] - c.center.x)
    a2 = math.atan2(p2[1] - c.center.y, p2[0] - c.center.x)
    return Arc(TurningCircle(c.center, c.radius, turn), a1, a2)


def max_turn_speed(radius: float, v0: float = V0_DEFAULT) -> float:
    """Maximum safe speed on an arc of the given radius: v0/(1 + e^(10 - 0.1 r^2))."""
    if radius <= 0:
        raise ValueError("turn radius must be positive")
    return v0 / (1.0 + math.exp(10.0 - 0.1 * radius * radius))


def travel_time(p: SmoothPath, v0: float = V0_DEFAULT) -> float:
    """Straights at v0, each arc at the max turn speed for its radius."""
    t = 0.0
    for seg in p.segments:
        if isinstance(seg, Line):
            t += seg.length / v0
        else:
            t += seg.length / max_turn_speed(seg.circle.radius, v0)
    return t


def _wrap(start: Point, end: Point, center: Point, r: float, turn: Turn):
    """Entry/exit tangency angles and lengths for one directed wrap."""
    sx, sy = start[0] - center[0], start[1] - center[1]
    ex, ey = end[0] - center[0], end[1] - center[1]
    dS = math.hypot(sx, sy)
    dE = math.hypot(ex, ey)
    if dS <= r or dE <= r:
        raise TangencyError("corner endpoints must lie strictly outside the turning circle")
    aS = math.acos(r / dS)
    aE = math.acos(r / dE)
    pS = math.atan2(sy, sx)
    pE = math.atan2(ey, ex)
    if turn is Turn.CCW:
        a1, a2 = pS + aS, pE - aE
        sweep = (a2 - a1) % TAU
    else:
        a1, a2 = pS - aS, pE + aE
        sweep = (a1 - a2) % TAU
    t1 = math.sqrt(dS * dS - r * r)
    t2 = math.sqrt(dE * dE - r * r)
    return a1, a2, sweep, t1, t2


def solve_corner(prob: CornerProblem) -> CornerSolution:
    """Shortest line-arc-line path from start to end around one turning circle.

    Closed form: each line is the point-to-circle tangent of length
    sqrt(d^2 - r^2); the arc spans the angle left between the two tangency
    points.  Both turn directions are evaluated and the shorter one returned
    (ties break toward the smaller sweep).  The corner is wrapped only when it
    actually sits across the route - when the center projects beyond either
    endpoint of the segment, the straight line is already taut and the
    degenerate zero-arc solution is returned.
    """
    c, r = prob.center, prob.radius
    dx, dy = prob.end[0] - prob.start[0], prob.end[1] - prob.start[1]
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0.0 else ((c[0] - prob.start[0]) * dx + (c[1] - prob.start[1]) * dy) / L2
    if t <= 0.0 or t >= 1.0:
        line = Line(Point(*prob.start), Point(*prob.end))
        grazing = _closest_circle_point(c, r, prob.start, prob.end)
        path = SmoothPath((line,))
        return CornerSolution(grazing, grazing, 0.0, path, line.length, None)

    best = None
    for turn in (Turn.CCW, Turn.CW):
        a1, a2, sweep, t1, t2 = _wrap(prob.start, prob.end, c, r, turn)
        total = t1 + r * sweep + t2
        key = (total, sweep)
        if best is None or key < best[0]:
            best = (key, turn, a1, a2, sweep, total)
    _, turn, a1, a2, sweep, total = best
    circle = TurningCircle(Point(*c), r, turn)
    entry = circle.at(a1)
    exit_ = circle.at(a2)
    path = SmoothPath((Line(Point(*prob.start), entry), Arc(circle, a1, a2), Line(exit_, Point(*prob.end))))
    return CornerSolution(entry, exit_, sweep / 2.0, path, total, turn)


def _closest_circle_point(center, r, a, b) -> Point:
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((center[0] - a[0]) * dx + (center[1] - a[1]) * dy) / L2))
    qx, qy = a[0] + t * dx, a[1] + t * dy
    d = math.hypot(qx - center[0], qy - center[1])
    if d == 0.0:
        return Point(center[0] + r, center[1])
    return Point(center[0] + r * (qx - center[0]) / d, center[1] + r * (qy - center[1]) / d)


def _entry_angle(p: Point, c: TurningCircle) -> float:
    """Tangency angle on c for a tangent line arriving from p, honoring c.turn."""
    dx, dy = p[0] - c.center.x, p[1] - c.center.y
    d = math.hypot(dx, dy)
    if d <= c.radius:
        raise TangencyError(f"chain endpoint {p} is inside the turning circle at {c.center}")
    alpha = math.acos(c.radius / d)
    phi = math.atan2(dy, dx)
    return phi + alpha if c.turn is Turn.CCW else phi - alpha


def _exit_angle(p: Point, c: TurningCircle) -> float:
    dx, dy = p[0] - c.center.x, p[1] - c.center.y
    d = math.hypot(dx, dy)
    if d <= c.radius:
        raise TangencyError(f"chain endpoint {p} is inside the turning circle at {c.center}")
    alpha = math.acos(c.radius / d)
    phi = math.atan2(dy, dx)
    return phi - alpha if c.turn is Turn.CCW else phi + alpha


def _pair_tangent(c1: TurningCircle, c2: TurningCircle) -> tuple[float, float]:
    """Tangency angles (on c1, on c2) of the unique common tangent that leaves
    c1 and enters c2 consistently with their turn directions: the outer
    tangent when the directions match, the inner one when they oppose."""
    dx, dy = c2.center.x - c1.center.x, c2.center.y - c1.center.y
    D = math.hypot(dx, dy)
    beta = math.atan2(dy, dx)
    if c1.turn is c2.turn:
        k = (c1.radius - c2.radius) / D
        if abs(k) > 1.0:
            raise ChainingError(
                f"circle at {tuple(c1.center)} contains circle at {tuple(c2.center)}; no outer tangent"
            )
        delta = math.acos(k)  # pi/2 for equal radii
        th = beta - delta if c1.turn is Turn.CCW else beta + delta
        return th, th
    k = (c1.radius + c2.radius) / D
    if k >= 1.0:
        raise ChainingError(
            f"circles at {tuple(c1.center)} and {tuple(c2.center)} overlap; no inner tangent for opposite turns"
        )
    delta = math.acos(k)
    th = beta + delta if c1.turn is Turn.CW else beta - delta
    return th, th + math.pi


def chain_path(start: Point, circles: tuple[TurningCircle, ...], end: Point) -> SmoothPath:
    """Tangent-line / arc chain through an ordered sequence of turning circles.

    Each circle carries its own turn direction; consecutive circles are joined
    by the common tangent consistent with their direction pair.  With an empty
    circle list the result is the single straight segment.
    """
    start, end = Point(*start), Point(*end)
    if not circles:
        return SmoothPath((Line(start, end),))
    segs: list[PathSegment] = []
    first = circles[0]
    a_in = _entry_angle(start, first)
    segs.append(Line(start, first.at(a_in)))
    cur = a_in
    for i, c in enumerate(circles):
        if i + 1 < len(circles):
            nxt = circles[i + 1]
            try:
                a_out, a_next = _pair_tangent(c, nxt)
            except ChainingError as e:
                raise ChainingError(f"cannot join circles {i} and {i + 1}: {e}") from None
            segs.append(Arc(c, cur, a_out))
            segs.append(Line(c.at(a_out), nxt.at(a_next)))
            cur = a_next
        else:
            a_out = _exit_angle(end, c)
            segs.append(Arc(c, cur, a_out))
            segs.append(Line(c.at(a_out), end))
    return SmoothPath(tuple(segs))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str  # "tangency" | "clearance" | "radius" | "continuity"
    where: Point
    detail: str


@dataclass(frozen=True)
class PathDiagnostics:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_arc(arc: Arc, spacing: float):
    n = max(2, int(math.ceil(arc.length / spacing)) + 1)
    for k in range(n + 1):
        yield arc.point_at(k / n)


def validate_path(p: SmoothPath, scene: Scene, spacing: float = 0.5) -> PathDiagnostics:
    """Check tangency continuity, clearance and minimum turn radius.

    Clearance on straight segments is checked exactly (segment-to-obstacle
    distance); arcs are sampled at most `spacing` units apart.  Empty
    diagnostics mean the path is legal.
    """
    out: list[Violation] = []
    segs = p.segments
    limit = scene.clearance - 1e-6
    for i, seg in enumerate(segs):
        if isinstance(seg, Arc) and seg.circle.radius < MIN_TURN_RADIUS - 1e-12:
            out.append(Violation("radius", seg.start, f"arc radius {seg.circle.radius} below {MIN_TURN_RADIUS}"))
        if i + 1 < len(segs):
            a, b = segs[i], segs[i + 1]
            gap = math.hypot(a.end.x - b.start.x, a.end.y - b.start.y)
            if gap > 1e-6:
                out.append(Violation("continuity", a.end, f"segments {i} and {i + 1} meet with gap {gap:g}"))
            else:
                d1 = a.tangent_at(a.end_angle) if isinstance(a, Arc) else a.direction()
                d2 = b.tangent_at(b.start_angle) if isinstance(b, Arc) else b.direction()
                dot = d1.x * d2.x + d1.y * d2.y
                if dot < 1.0 - 1e-9:
                    out.append(Violation("tangency", a.end, f"junction {i}/{i + 1} tangent dot {dot!r}"))
    for i, seg in enumerate(segs):
        if isinstance(seg, Line):
            worst = min(
                (segment_obstacle_distance(seg.a, seg.b, ob) for ob in scene.obstacles),
                default=math.inf,
            )
            if worst < limit:
                out.append(Violation("clearance", seg.a, f"line segment {i} clearance {worst:.9f}"))
        else:
            for q in _sample_arc(seg, spacing):
                d = min_clearance(q, scene)
                if d < limit:
                    out.append(Violation("clearance", q, f"arc segment {i} clearance {d:.9f} at {tuple(q)}"))
                    break
    return PathDiagnostics(tuple(out))
