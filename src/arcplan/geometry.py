"""Planar scene model: convex obstacles and clearance queries.

A scene is a rectangular field (``bounds``) holding any number of convex
obstacles: axis-aligned rectangles, circles, triangles and parallelograms.
A legal robot path must stay at least ``clearance`` units (default 10) away
from every obstacle, so each obstacle is surrounded by a "hazard envelope":
its edges offset outward by the clearance plus a circular arc of radius =
clearance around each vertex.  Taut shortest paths run along these envelopes;
`sceneio` draws them in the SVG.

Each Scene object compiles itself on first use and keeps the result for as
long as it lives: the clearance queries read its per-obstacle table (kind,
vertex or circle payload, bounding box), `in_cone` the directions in which
the edges that meet at each polygon vertex block a point on the vertex's
clearance circle, and the planner the one arc of directions they leave
free.  The clearance of a segment and of a circular arc is computed in
closed form, never by sampling.  A point is a zero-length segment: one
segment-obstacle routine serves both, with one separating-axis pass over a
polygon's edges; `segment_clear` skips it for a polygon wholly to one side
of pq's line, about the clearance or more off.  Arcs get one pass too.
Every clearance verdict, the start's and the goal's too, is `segment_clear`'s
or `arc_clear`'s; the clearance measures only word a refusal or a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

CLEARANCE_EPS = 1e-9  # every clearance verdict keeps the clearance at >= clearance - CLEARANCE_EPS
TAU = 2.0 * math.pi
# A point on a vertex's circle of radius r (the clearance) whose direction lies within
# pi/2 - CONE_MARGIN of an edge at least r long leaving the vertex is at most r*cos(CONE_MARGIN)
# from it: below the limit by about r*CONE_MARGIN**2/2 (5e-6 at r = 10), far above rounding, so
# any margin from about 2e-5 to just under pi/2 gives the same verdicts.  It is no tuning knob.
CONE_MARGIN = 1e-3
_CONE_WIDTH = math.pi - 2.0 * CONE_MARGIN
_SIDE_REACH = CLEARANCE_EPS * 2.0**47  # about 1.4e5: segment_clear's side test keeps its verdict up to here


class Point(NamedTuple):
    x: float
    y: float


class ShapeKindError(TypeError):
    """An operation was applied to an obstacle shape it does not support."""


class AxisRect(NamedTuple):
    anchor: Point  # lower-left corner
    width: float
    height: float


class Circle(NamedTuple):
    center: Point
    radius: float


class Triangle(NamedTuple):
    v1: Point
    v2: Point
    v3: Point


class Parallelogram(NamedTuple):
    anchor: Point  # lower-left vertex; the base runs from it along +x
    base: float
    top_left: Point  # the top edge is parallel to the base


Shape = Union[AxisRect, Circle, Triangle, Parallelogram]


class ObstacleSpec(NamedTuple):
    id: int
    shape: Shape


@dataclass(frozen=True)
class Scene:
    bounds: tuple[float, float] = (800.0, 800.0)
    obstacles: tuple[ObstacleSpec, ...] = ()
    clearance: float = 10.0

    def contains(self, p: Point) -> bool:
        w, h = self.bounds
        return 0.0 <= p[0] <= w and 0.0 <= p[1] <= h

    @cached_property
    def compiled(self) -> CompiledScene:
        """What this Scene object derives once, built on first use."""
        obstacles = tuple(_obstacle_geom(spec) for spec in self.obstacles)
        r = self.clearance
        exact = r * (1.0 - math.cos(CONE_MARGIN)) > CLEARANCE_EPS  # else no window keeps segment_clear's verdict
        cones: dict[Point, list] = {}
        for kind, verts, _ in obstacles:
            if kind == "poly":
                for u, v, w in zip(verts[-1:] + verts[:-1], verts, verts[1:] + verts[:1]):
                    cones.setdefault(v, []).extend(math.atan2(e.y - v.y, e.x - v.x) - math.pi / 2 + CONE_MARGIN
                                                   for e in (u, w) if exact and math.dist(v, e) >= r)
        near = all(abs(c) + r <= _SIDE_REACH for *_, bbox in obstacles for c in bbox)
        free = {v: _free_arc(lows) for v, lows in cones.items()}
        return CompiledScene(obstacles, cones, free, _SIDE_REACH - r if near else -1.0)


@dataclass
class CompiledScene:
    """What one Scene object derives once and keeps for as long as it lives:
    the obstacle table the clearance queries read, the directions the edges
    that meet at each polygon vertex block there (`in_cone` reads them) and
    the one arc of directions they leave free, the reach of segment_clear's
    side test, and the planner's corner table (its corners, and each
    corner's links to the others from the first time a search expands it)."""

    obstacles: tuple[tuple, ...]  # (kind, payload, bbox) per obstacle, in scene order
    cones: dict[Point, list]  # vertex -> the low end of each window in_cone tests at it
    free: dict[Point, Optional[tuple[float, float]]]  # vertex -> its _free_arc
    reach: float  # the side test runs while pq's coordinates are within it (-1: an obstacle is beyond)
    corner_links: Optional[object] = None  # planner._Corners, made on the first roadmap; its rows fill in lazily


def builtin_scene() -> Scene:
    """The built-in 12-obstacle benchmark scene (800x800, clearance 10)."""
    obstacles = (
        ObstacleSpec(1, AxisRect(Point(300, 400), 200, 200)),
        ObstacleSpec(2, Circle(Point(550, 450), 70)),
        ObstacleSpec(3, Parallelogram(Point(360, 240), 140, Point(400, 330))),
        ObstacleSpec(4, Triangle(Point(280, 100), Point(410, 100), Point(345, 210))),
        ObstacleSpec(5, AxisRect(Point(80, 60), 150, 150)),
        ObstacleSpec(6, Triangle(Point(60, 300), Point(235, 300), Point(150, 435))),
        ObstacleSpec(7, AxisRect(Point(0, 470), 220, 60)),
        ObstacleSpec(8, Parallelogram(Point(150, 600), 90, Point(180, 680))),
        ObstacleSpec(9, AxisRect(Point(370, 680), 60, 120)),
        ObstacleSpec(10, AxisRect(Point(540, 600), 130, 130)),
        ObstacleSpec(11, AxisRect(Point(640, 520), 80, 80)),
        ObstacleSpec(12, AxisRect(Point(500, 140), 300, 60)),
    )
    return Scene(bounds=(800.0, 800.0), obstacles=obstacles, clearance=10.0)


def polygon_vertices(shape: Shape) -> tuple[Point, ...]:
    """A polygonal shape's vertices in the order its fields give them: a
    rectangle's counter-clockwise from its anchor, a triangle's as given, a
    parallelogram's anchor, base end, top right and top left."""
    if isinstance(shape, AxisRect):
        (x, y), w, h = shape
        return Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h)
    if isinstance(shape, Parallelogram):
        (x, y), base, (tx, ty) = shape
        v2 = Point(x + base, y)
        return Point(x, y), v2, Point(v2.x + (tx - x), ty), Point(tx, ty)
    if isinstance(shape, Triangle):
        return tuple(shape)
    raise ShapeKindError(f"a {type(shape).__name__} has no polygon vertices")


def obstacle_vertices(spec: ObstacleSpec) -> tuple[Point, ...]:
    """CCW convex vertex list of a polygonal obstacle: its polygon_vertices,
    reversed when they run clockwise."""
    verts = polygon_vertices(spec.shape)
    twice_area = sum(a.x * b.y - b.x * a.y for a, b in zip(verts, verts[1:] + verts[:1]))
    return verts[::-1] if twice_area < 0.0 else verts


# ---------------------------------------------------------------------------
# low-level planar primitives


def _pt_seg_dist(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _obstacle_geom(spec: ObstacleSpec):
    """(kind, payload, bbox); bbox = (minx, miny, maxx, maxy)."""
    s = spec.shape
    if isinstance(s, Circle):
        c, r = s.center, s.radius
        return "circle", (c.x, c.y, r), (c.x - r, c.y - r, c.x + r, c.y + r)
    verts = obstacle_vertices(spec)
    xs, ys = zip(*verts)
    return "poly", verts, (min(xs), min(ys), max(xs), max(ys))


def _segment_distance(a, b, kind: str, payload) -> float:
    """Distance from segment ab (a point if a == b) to one obstacle, 0 on
    contact.  A convex polygon is apart from ab iff an axis separates them:
    both ends lie strictly outside one edge's line, or every vertex strictly
    on one side of line ab.  Then the least end-edge or vertex-ab distance."""
    ax, ay = a
    bx, by = b
    if kind == "circle":
        cx, cy, r = payload
        return max(0.0, _pt_seg_dist(cx, cy, ax, ay, bx, by) - r)
    verts = payload
    ux, uy = verts[-1]
    for vx, vy in verts:
        ex, ey = vx - ux, vy - uy
        if ex * (ay - uy) - ey * (ax - ux) < 0.0 and ex * (by - uy) - ey * (bx - ux) < 0.0:
            break  # both ends strictly outside this edge's line
        ux, uy = vx, vy
    else:
        dx, dy = bx - ax, by - ay
        sides = [dx * (vy - ay) - dy * (vx - ax) for vx, vy in verts]
        if min(sides) <= 0.0 <= max(sides):
            return 0.0  # the vertices straddle or touch line ab: no axis separates
    best = math.inf
    ux, uy = verts[-1]
    for vx, vy in verts:
        best = min(best, _pt_seg_dist(ax, ay, ux, uy, vx, vy), _pt_seg_dist(bx, by, ux, uy, vx, vy),
                   _pt_seg_dist(vx, vy, ax, ay, bx, by))
        ux, uy = vx, vy
    return best


def _arc_ends(center, radius: float, start: float, sweep: float):
    """(cx, cy, r, start, sweep, first end, last end) of the arc of the circle
    (center, radius) swept counter-clockwise from angle start through sweep."""
    cx, cy = center
    end = start + sweep
    return (
        cx, cy, radius, start, sweep,
        (cx + radius * math.cos(start), cy + radius * math.sin(start)),
        (cx + radius * math.cos(end), cy + radius * math.sin(end)),
    )


def _radial_gap(arc, qx: float, qy: float) -> float:
    """Distance from q to the arc along the ray from the center through q;
    inf when that ray misses the arc."""
    cx, cy, r, start, sweep = arc[:5]
    dx, dy = qx - cx, qy - cy
    h = math.hypot(dx, dy)
    if h == 0.0:
        return r  # the center has no direction, and every arc point is r from it
    if (math.atan2(dy, dx) - start) % TAU > sweep:
        return math.inf
    return abs(h - r)


def _arc_distance(arc, kind: str, payload) -> float:
    """Distance from an arc (see _arc_ends) to one obstacle, 0 on contact.
    One pass over a polygon's edges uv: 0 on a crossing or when no edge puts
    the first end outside; else the least of an end against uv, v against the
    arc, and the center's foot on uv against the arc point on its ray."""
    cx, cy, r, _, _, p0, p1 = arc
    if kind == "circle":
        qx, qy, R = payload
        d = min(math.hypot(p0[0] - qx, p0[1] - qy), math.hypot(p1[0] - qx, p1[1] - qy), _radial_gap(arc, qx, qy))
        return max(0.0, d - R)
    (x0, y0), (x1, y1) = p0, p1
    outside = False
    best = math.inf
    ux, uy = payload[-1]
    for vx, vy in payload:
        dx, dy = vx - ux, vy - uy
        if dx * (y0 - uy) - dy * (x0 - ux) < 0.0:
            outside = True  # the first end lies strictly outside this edge's line
        best = min(best, _pt_seg_dist(x0, y0, ux, uy, vx, vy), _pt_seg_dist(x1, y1, ux, uy, vx, vy),
                   _radial_gap(arc, vx, vy))
        L2 = dx * dx + dy * dy
        if L2 > 0.0:
            t = ((cx - ux) * dx + (cy - uy) * dy) / L2  # the center's foot on the edge's line
            fx, fy = ux + t * dx - cx, uy + t * dy - cy
            if 0.0 < t < 1.0:
                best = min(best, _radial_gap(arc, cx + fx, cy + fy))
            h2 = (r * r - fx * fx - fy * fy) / L2  # the line meets the circle at t -+ sqrt(h2)
            if h2 >= 0.0:
                h = math.sqrt(h2)
                if any(0.0 <= s <= 1.0 and _radial_gap(arc, ux + s * dx, uy + s * dy) < math.inf for s in (t - h, t + h)):
                    return 0.0
        ux, uy = vx, vy
    return best if outside else 0.0


def segment_obstacle_distance(a: Point, b: Point, spec: ObstacleSpec) -> float:
    """Minimum distance from segment ab to one obstacle (0 on overlap)."""
    kind, payload, _ = _obstacle_geom(spec)
    return _segment_distance(a, b, kind, payload)


def min_clearance(p: Point, scene: Scene) -> float:
    """Minimum distance from p to any obstacle boundary/interior (0 inside):
    the clearance of the zero-length segment pp."""
    return segment_min_clearance(p, p, scene)


def segment_min_clearance(a: Point, b: Point, scene: Scene) -> float:
    return min((_segment_distance(a, b, kind, payload) for kind, payload, _ in scene.compiled.obstacles), default=math.inf)


def segment_clear(p: Point, q: Point, scene: Scene) -> bool:
    """True iff every point of segment pq keeps the scene clearance r (less
    CLEARANCE_EPS = e) from every obstacle (segment_min_clearance's verdict),
    stopping at the first obstacle closer.  It skips an obstacle when an axis
    gap of its bbox to pq's reaches the limit (the exact distance is never
    less), and a polygon when c = (q - p) x (v - p) has one sign and |c| >=
    (r - e/2)|pq| at each vertex v.  With u = 2**-53 and coordinates within
    M, c rounds by u|c| + 8.5uM|pq|, the bound by 5ur|pq| and
    _segment_distance by 2ur + 7.1uM: under 16u(M + r) <= e/4 while M + r <=
    _SIDE_REACH (Scene.compiled.reach, pq's bbox) and |pq| is a normal float."""
    limit = scene.clearance - CLEARANCE_EPS
    px, py, ux, uy = p[0], p[1], q[0] - p[0], q[1] - p[1]
    sx0, sx1 = (p[0], q[0]) if p[0] <= q[0] else (q[0], p[0])
    sy0, sy1 = (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])
    near = max(sx1, sy1, -sx0, -sy0) <= scene.compiled.reach and (length := math.hypot(ux, uy)) >= 2.0**-1022
    gap = (scene.clearance - CLEARANCE_EPS / 2) * length if near else math.inf  # inf: the side test skips nothing
    for kind, payload, (x0, y0, x1, y1) in scene.compiled.obstacles:
        dx, ex, dy, ey = x0 - sx1, sx0 - x1, y0 - sy1, sy0 - y1  # an axis gap is the positive one of a pair
        if dx >= limit or ex >= limit or dy >= limit or ey >= limit:
            continue
        if kind == "poly":
            sides = [ux * (vy - py) - uy * (vx - px) for vx, vy in payload]
            if min(sides) >= gap or max(sides) <= -gap:
                continue
        if _segment_distance(p, q, kind, payload) < limit:
            return False
    return True


def _free_arc(lows: list) -> Optional[tuple[float, float]]:
    """(start, width) of the directions at a vertex that none of its windows
    (lows, its `cones` entry) blocks, widened by 1e-9 rad at each end so that
    it holds every angle in_cone passes there; None, ruling nothing out,
    unless the vertex has exactly two windows and they overlap."""
    if len(lows) == 2:
        for a, b in (lows, lows[::-1]):
            gap = (b - a) % TAU
            if gap < _CONE_WIDTH:  # b's window starts in a's: together they block [a, b + _CONE_WIDTH)
                return b + _CONE_WIDTH - 1e-9, TAU - gap - _CONE_WIDTH + 2e-9
    return None


def in_cone(angle: float, cones: list) -> bool:
    """True when the point at `angle` on a vertex's circle of radius clearance
    lies in one of the vertex's blocked windows, its `scene.compiled.cones`
    entry: then segment_clear rejects any segment from it (see CONE_MARGIN)."""
    for lo in cones:
        if (angle - lo) % TAU < _CONE_WIDTH:
            return True
    return False


def arc_min_clearance(center: Point, radius: float, start: float, sweep: float, scene: Scene) -> float:
    """Minimum distance from the arc of the circle (center, radius) swept
    counter-clockwise from angle start through sweep to any obstacle (0 on
    overlap), in closed form."""
    arc = _arc_ends(center, radius, start, sweep)
    return min((_arc_distance(arc, kind, payload) for kind, payload, _ in scene.compiled.obstacles), default=math.inf)


def arc_clear(center: Point, radius: float, start: float, sweep: float, scene: Scene) -> bool:
    """True iff every point of the arc (as in arc_min_clearance) keeps the
    scene clearance (less CLEARANCE_EPS) from every obstacle, stopping at the
    first obstacle that comes closer."""
    limit = scene.clearance - CLEARANCE_EPS
    arc = _arc_ends(center, radius, start, sweep)
    cx, cy = center
    for kind, payload, (x0, y0, x1, y1) in scene.compiled.obstacles:
        if math.hypot(max(x0 - cx, 0.0, cx - x1), max(y0 - cy, 0.0, cy - y1)) - radius >= limit:
            continue  # the center's gap to the bbox, less the radius, reaches the limit
        if _arc_distance(arc, kind, payload) < limit:
            return False
    return True


def blocking_obstacles(p: Point, q: Point, scene: Scene) -> tuple[int, ...]:
    """Ids of obstacles that put segment pq below the required clearance."""
    limit = scene.clearance - CLEARANCE_EPS
    return tuple(
        spec.id
        for spec, (kind, payload, _) in zip(scene.obstacles, scene.compiled.obstacles)
        if _segment_distance(p, q, kind, payload) < limit
    )
