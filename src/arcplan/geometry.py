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
vertex or circle payload, bounding box), and `end_blocked` the edges of the
polygons that hold each vertex.  The clearance of a segment and of a circular
arc is computed in closed form, never by sampling.  A point is a zero-length
segment: one segment-obstacle routine serves both, with one separating-axis
pass over a polygon's edges.  An arc gets one pass over those edges as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

CLEARANCE_EPS = 1e-9  # every clearance verdict keeps the clearance at >= clearance - CLEARANCE_EPS
TAU = 2.0 * math.pi


class Point(NamedTuple):
    x: float
    y: float


class ShapeKindError(TypeError):
    """An operation was applied to an obstacle shape it does not support."""


@dataclass(frozen=True)
class AxisRect:
    anchor: Point  # lower-left corner
    width: float
    height: float


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float


@dataclass(frozen=True)
class Triangle:
    v1: Point
    v2: Point
    v3: Point


@dataclass(frozen=True)
class Parallelogram:
    # vertices in CCW order; closure invariant v1 + v3 == v2 + v4
    v1: Point
    v2: Point
    v3: Point
    v4: Point


Shape = Union[AxisRect, Circle, Triangle, Parallelogram]


@dataclass(frozen=True)
class ObstacleSpec:
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
        polygons_at: dict[Point, list] = {}
        for kind, verts, bbox in obstacles:
            if kind == "poly":
                edges = tuple((*a, *b) for a, b in zip(verts, verts[1:] + verts[:1]))
                for k, v in enumerate(verts):  # the two edges at v first
                    polygons_at.setdefault(v, []).append((edges[k - 1:] + edges[:k - 1], bbox))
        return CompiledScene(obstacles, polygons_at)


@dataclass
class CompiledScene:
    """What one Scene object derives once and keeps for as long as it lives:
    the obstacle table the clearance queries read, the polygons that hold
    each vertex (`end_blocked` reads them) and the corner links the planner's
    roadmap reads (the planner fills them in on first use)."""

    obstacles: tuple[tuple, ...]  # (kind, payload, bbox) per obstacle, in scene order
    polygons_at: dict[Point, list]  # vertex -> [(edges (ax, ay, bx, by), bbox) of each polygon holding it]
    corner_links: Optional[object] = None


def parallelogram_from(anchor: Point, base: float, top_left: Point) -> Parallelogram:
    """Complete a parallelogram from its lower-left vertex, base length and
    top-left vertex (the top edge is parallel to the base)."""
    v1 = Point(*anchor)
    v2 = Point(v1.x + base, v1.y)
    v4 = Point(*top_left)
    v3 = Point(v2.x + (v4.x - v1.x), v4.y)
    return Parallelogram(v1, v2, v3, v4)


def builtin_scene() -> Scene:
    """The built-in 12-obstacle benchmark scene (800x800, clearance 10)."""
    obstacles = (
        ObstacleSpec(1, AxisRect(Point(300, 400), 200, 200)),
        ObstacleSpec(2, Circle(Point(550, 450), 70)),
        ObstacleSpec(3, parallelogram_from(Point(360, 240), 140, Point(400, 330))),
        ObstacleSpec(4, Triangle(Point(280, 100), Point(410, 100), Point(345, 210))),
        ObstacleSpec(5, AxisRect(Point(80, 60), 150, 150)),
        ObstacleSpec(6, Triangle(Point(60, 300), Point(235, 300), Point(150, 435))),
        ObstacleSpec(7, AxisRect(Point(0, 470), 220, 60)),
        ObstacleSpec(8, parallelogram_from(Point(150, 600), 90, Point(180, 680))),
        ObstacleSpec(9, AxisRect(Point(370, 680), 60, 120)),
        ObstacleSpec(10, AxisRect(Point(540, 600), 130, 130)),
        ObstacleSpec(11, AxisRect(Point(640, 520), 80, 80)),
        ObstacleSpec(12, AxisRect(Point(500, 140), 300, 60)),
    )
    return Scene(bounds=(800.0, 800.0), obstacles=obstacles, clearance=10.0)


def obstacle_vertices(spec: ObstacleSpec) -> tuple[Point, ...]:
    """CCW convex vertex list of a polygonal obstacle, whatever order a
    triangle or parallelogram was given in."""
    s = spec.shape
    if isinstance(s, AxisRect):
        a = s.anchor
        return (
            Point(a.x, a.y),
            Point(a.x + s.width, a.y),
            Point(a.x + s.width, a.y + s.height),
            Point(a.x, a.y + s.height),
        )
    if isinstance(s, Triangle):
        verts = (s.v1, s.v2, s.v3)
    elif isinstance(s, Parallelogram):
        verts = (s.v1, s.v2, s.v3, s.v4)
    else:
        raise ShapeKindError(f"obstacle {spec.id} has no polygon vertices ({type(s).__name__})")
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


def _bbox_seg_gap(bbox, a, b) -> float:
    sx0, sx1 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    sy0, sy1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    dx = max(bbox[0] - sx1, 0.0, sx0 - bbox[2])
    dy = max(bbox[1] - sy1, 0.0, sy0 - bbox[3])
    return math.hypot(dx, dy)


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
    best = math.inf
    for kind, payload, bbox in scene.compiled.obstacles:
        if _bbox_seg_gap(bbox, a, b) >= best:
            continue
        d = _segment_distance(a, b, kind, payload)
        if d < best:
            best = d
    return best


def segment_clear(p: Point, q: Point, scene: Scene) -> bool:
    """True iff every point of segment pq keeps the scene clearance (less
    CLEARANCE_EPS) from every obstacle: segment_min_clearance's verdict,
    stopping at the first obstacle that comes closer."""
    limit = scene.clearance - CLEARANCE_EPS
    for kind, payload, bbox in scene.compiled.obstacles:
        if _bbox_seg_gap(bbox, p, q) >= limit:
            continue
        if _segment_distance(p, q, kind, payload) < limit:
            return False
    return True


def end_blocked(p: Point, q: Point, vertex: Point, scene: Scene) -> bool:
    """True when segment_clear(p, q, scene) is False for a reason found at
    the end p alone: p lies closer than the clearance (less CLEARANCE_EPS) to
    an edge of a polygon that has `vertex` as a vertex.  Exact: segment_clear
    computes the same point-to-edge distance and the same bbox gap for that
    polygon, so it comes to the same verdict.  Costs a few point-to-edge
    distances, not a scan of the scene."""
    limit = scene.clearance - CLEARANCE_EPS
    px, py = p
    for edges, bbox in scene.compiled.polygons_at.get(vertex, ()):
        for ax, ay, bx, by in edges:
            if _pt_seg_dist(px, py, ax, ay, bx, by) < limit:
                if _bbox_seg_gap(bbox, p, q) < limit:
                    return True
                break
    return False


def arc_min_clearance(center: Point, radius: float, start: float, sweep: float, scene: Scene) -> float:
    """Minimum distance from the arc of the circle (center, radius) swept
    counter-clockwise from angle start through sweep to any obstacle (0 on
    overlap), in closed form."""
    arc = _arc_ends(center, radius, start, sweep)
    best = math.inf
    for kind, payload, bbox in scene.compiled.obstacles:
        if _bbox_seg_gap(bbox, center, center) - radius >= best:
            continue
        d = _arc_distance(arc, kind, payload)
        if d < best:
            best = d
    return best


def arc_clear(center: Point, radius: float, start: float, sweep: float, scene: Scene) -> bool:
    """True iff every point of the arc (as in arc_min_clearance) keeps the
    scene clearance (less CLEARANCE_EPS) from every obstacle, stopping at the
    first obstacle that comes closer."""
    limit = scene.clearance - CLEARANCE_EPS
    arc = _arc_ends(center, radius, start, sweep)
    for kind, payload, bbox in scene.compiled.obstacles:
        if _bbox_seg_gap(bbox, center, center) - radius >= limit:
            continue
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
