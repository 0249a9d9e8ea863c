"""End-to-end route planning over a corner roadmap.

Pipeline: take one turning-circle candidate per convex obstacle vertex and
circles of radius 0 at the start and the goal, join the anchor pairs whose
directed tangents keep clearance, pick a node sequence (exact A* /
k-shortest, or the ant colony), assign each corner the turn direction the
polyline bends in, chain the smooth path and validate it.
Reported lengths always come from the chain.  A colony proposal that fails is
no infeasibility verdict: the exact engine answers it.

A roadmap row is built when a search first expands its node (Lazy PRM,
Bohlin & Kavraki 2000), and the start's link to a corner is judged when a
search pops the corner: a query judges only the anchor pairs of the corners
it reaches.  Corner-to-corner links do not depend on the query, so each
Scene object keeps them, judging each corner pair at most once; reuse one
Scene object across queries to pay for them once.

The corner links, the endpoint links and the chain screen test legs in one
pass per anchor pair (`_legs`).  It rejects a leg that leaves a corner's
circle back into the corner's own polygon from the tangent angle alone, when
an edge at the corner blocks that direction (`in_cone`); segment_clear's scan
judges the rest, and would reject such legs too.  The corner links first
skip, from the direction between the centers alone, each corner pair none
of whose tangents leaves and enters within the corners' free arcs (`_faces`):
the pass would reject every leg of it.

Roadmap weights are center-to-center distances, and a sequence's roadmap cost
never exceeds its chained length: a tangent leg falls short of its hop by no
more than the arcs at its two ends add.  The exact engine walks Yen's
sequences in ascending roadmap cost and stops once it holds k valid plans and
the next sequence costs at least the k-th plan's length; no later sequence can
be shorter.  Once it holds k plans, Yen's spur searches stop at the k-th
plan's length too: they skip only sequences the scan would never reach, and
every cheaper one still comes, in the same order.  Otherwise it gives up after
max(_FALLBACK_TRIES, 8k) sequences.
Its searches are A* (Hart, Nilsson & Raphael 1968) on the straight distance
to the goal: routes of equal cost may come in another order, costs never.
A query checks each leg and each corner arc of its sequences once
(`_ChainScreen`) and chains only the sequences that pass.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from .aco import AcoParams, AcoResult, WeightedGraph, aco_run, best_first, graph_from_edges
from .geometry import (
    TAU,
    Point,
    Scene,
    blocking_obstacles,
    in_cone,
    min_clearance,
    segment_clear,
)
from .paths import (
    MIN_TURN_RADIUS,
    ChainingError,
    Line,
    SmoothPath,
    Turn,
    TurningCircle,
    chain_path,
    corner_clear,
    pair_tangents,
    travel_time,
    validate_path,
)

KNOWN_TARGETS: dict[str, Point] = {
    "O": Point(0.0, 0.0),
    "A": Point(300.0, 300.0),
    "B": Point(100.0, 700.0),
    "C": Point(700.0, 640.0),
}

_FALLBACK_TRIES = 60  # sequences the exact engine scans before giving up
_ACO_ROUTES = 12   # cheapest loopless routes whose node union the colony searches
_ACO_PENALTY = 1e6  # the colony subgraph's no-edge weight: dominates any real route cost


class RequestError(ValueError):
    pass


class RouteInfeasible(RuntimeError):
    def __init__(self, message: str, blockers: tuple[int, ...] = ()):
        super().__init__(message)
        self.blockers = blockers


class RouteRequest(NamedTuple):
    start: Point
    goal: Point
    scene: Scene
    engine: str = "exact"  # "exact" | "aco"
    aco_params: Optional[AcoParams] = None


class Roadmap(NamedTuple):
    """Node 1 = start, node n = goal, interior nodes = corner circle centers.
    circles[node - 1] holds chain_path's radius-0 circle at an endpoint and the
    (CW, CCW) circles at a corner, so circles[node - 1][bends ccw] turns as bent."""

    graph: RoadmapGraph
    anchors: tuple[Point, ...]
    circles: tuple[tuple[TurningCircle, ...], ...]


class PlanResult(NamedTuple):
    corners: tuple[TurningCircle, ...]
    path: SmoothPath
    length: float
    travel_time: float
    engine: str
    aco: Optional[AcoResult] = None


def _check_endpoint(p: Point, scene: Scene, label: str) -> None:
    if not scene.contains(p):
        raise RequestError(f"{label} {tuple(p)} lies outside the scene bounds {scene.bounds}")
    if not segment_clear(p, p, scene):
        d, near = min_clearance(p, scene), blocking_obstacles(p, p, scene)
        raise RequestError(f"{label} {tuple(p)} has clearance {d!r} < {scene.clearance} (obstacles {near})")


def corner_candidates(scene: Scene) -> tuple[Point, ...]:
    """Turning-circle centers: convex obstacle vertices whose clearance-radius
    circle fits inside the scene bounds (arcs may not leave the field).
    Circle obstacles get no turning circle, so no route wraps one: a known
    defect, listed in ROADMAP.md."""
    r = scene.clearance
    w, h = scene.bounds
    return tuple(v for kind, verts, _ in scene.compiled.obstacles if kind == "poly"
                 for v in verts if r <= v.x <= w - r and r <= v.y <= h - r)


def _legs(a: tuple[TurningCircle, ...], b: tuple[TurningCircle, ...],
          scene: Scene) -> Iterator[Optional[tuple[float, float, Line]]]:
    """chain_path's leg for each (c1, c2) of itertools.product(a, b), two
    anchors' circles, in turn: (angle out of c1, angle into c2, the tangent
    line) when it chains and keeps clearance, else None; pair_tangents' angles
    and c1.at's and c2.at's floats.  A leg that leaves or enters in_cone skips
    segment_clear, which would reject it too.  Two anchors join iff any leg
    clears: any will do, so the order the pairs are tried in cannot change it."""
    (v1, r1, _), (v2, r2, _) = a[0], b[0]
    (x1, y1), (x2, y2) = v1, v2
    cones = scene.compiled.cones
    cones1, cones2 = cones.get(v1, ()), cones.get(v2, ())
    for angles in pair_tangents(a, b):
        if angles is None:
            yield None
            continue
        a_out, a_in = angles
        if in_cone(a_out, cones1) or in_cone(a_in, cones2):
            yield None
            continue
        cos_out, sin_out = math.cos(a_out), math.sin(a_out)
        cos_in, sin_in = (cos_out, sin_out) if a_in == a_out else (math.cos(a_in), math.sin(a_in))
        p = Point(x1 + r1 * cos_out, y1 + r1 * sin_out)
        q = Point(x2 + r2 * cos_in, y2 + r2 * sin_in)
        yield (a_out, a_in, Line(p, q)) if segment_clear(p, q, scene) else None


def _faces(arc: Optional[tuple[float, float]], beta: float, delta: float) -> bool:
    """Whether a corner's free arc (start, width), or None, meets [beta -
    pi/2, beta - delta] or [beta + delta, beta + pi/2]: tangents to a corner
    at direction beta leave at beta -+ pi/2 (same turns) and beta -+
    acos(2r / D) (opposite turns), and enter it at those angles + pi."""
    if arc is None:
        return True
    u = (arc[0] - beta + math.pi / 2) % TAU  # the arc is [u, end] from beta - pi/2, and the ranges lie in [0, pi]
    end = u + arc[1]
    return (u <= math.pi or end >= TAU) and (u <= math.pi / 2 - delta or end >= math.pi / 2 + delta)


# A Scene's corners (corner_candidates order), their (CW, CCW) circles and linked-corner sets (None: unbuilt)
_Corners = NamedTuple("_Corners", [("points", tuple), ("circles", tuple), ("rows", list)])


def _corners(scene: Scene) -> _Corners:
    """The scene's corner table, made on first use with no row built."""
    compiled, r = scene.compiled, scene.clearance
    if compiled.corner_links is None:
        points = corner_candidates(scene)
        circles = tuple((TurningCircle(v, r, Turn.CW), TurningCircle(v, r, Turn.CCW)) for v in points)
        compiled.corner_links = _Corners(points, circles, [None] * len(points))
    return compiled.corner_links


def _corner_row(scene: Scene, i: int) -> set[int]:
    """The corners corner i links to, built on first ask and kept on the Scene.
    A pair is judged once per Scene object, as (lower, higher) index: dropped
    when, from the direction between the centers alone, no tangent leaves and
    enters within the corners' free arcs (`_faces`), else joined iff some leg
    clears (`_legs`).  A corner whose row exists already holds the verdict.
    The table keeps no reference to its Scene, so a Scene dies by refcount."""
    (points, circles, rows), r, free = _corners(scene), scene.clearance, scene.compiled.free
    def joined(a: int, b: int) -> bool:
        (x1, y1), (x2, y2) = points[a], points[b]
        beta, d = math.atan2(y2 - y1, x2 - x1), math.hypot(x2 - x1, y2 - y1)
        delta = math.acos(2.0 * r / d) - 1e-9 if d > 2.0 * r else 0.0
        return (_faces(free[points[a]], beta, delta) and _faces(free[points[b]], beta + math.pi, delta)
                and any(_legs(circles[a], circles[b], scene)))

    if rows[i] is None:
        rows[i] = {j for j in range(len(points))
                   if j != i and (i in rows[j] if rows[j] is not None else joined(min(i, j), max(i, j)))}
    return rows[i]


class RoadmapGraph(dict):
    """A query's roadmap edges: graph[node] is the node's (neighbor, weight)
    row, ascending, built on first read, so a search judges only the anchor
    pairs of the nodes it expands.  The start's row lists every corner; its
    link to one is judged as a search pops it (admit, kept in start_links).
    Every search holds the start closed, so no corner's row lists it; the
    goal's, which no search expands, is empty.  node_count answers as
    WeightedGraph's does, and has_edge(i, j), for i < j, reads row i (and
    admit).  Node k is corner order[k - 2]; to_goal(node), the straight
    distance to the goal, is A*'s h."""

    def __init__(self, scene: Scene, anchors: tuple[Point, ...], circles: tuple, order: tuple[int, ...]):
        super().__init__()
        self.scene, self.anchors, self.circles, self.order = scene, anchors, circles, order
        self.node_count = len(anchors)
        self.node_of = {corner: k for k, corner in enumerate(order, start=2)}
        self.start_links: dict[int, bool] = {}  # corner node -> whether the start links to it, once judged
        self.to_goal = [0.0, *(math.dist(anchor, anchors[-1]) for anchor in anchors)].__getitem__

    def __missing__(self, node: int) -> tuple[tuple[int, float], ...]:
        n, circles = self.node_count, self.circles
        if node == 1:  # every corner, each link judged by admit
            near = range(2, n)
        elif node == n:  # the goal: no search expands it
            near = ()
        else:  # a corner: its scene-kept links and its link to the goal judged now
            near = [self.node_of[j] for j in _corner_row(self.scene, self.order[node - 2])]
            near += [n] * any(_legs(circles[node - 1], circles[-1], self.scene))
        row = self[node] = tuple(sorted((k, math.dist(self.anchors[node - 1], self.anchors[k - 1])) for k in near))
        return row

    def admit(self, node: int) -> bool:
        """Whether the start links to corner node: some leg clears (`_legs`)."""
        if node not in self.start_links:
            self.start_links[node] = any(_legs(self.circles[0], self.circles[node - 1], self.scene))
        return self.start_links[node]

    def has_edge(self, i: int, j: int) -> bool:
        return any(v == j for v, _ in self[i]) and (i > 1 or self.admit(j))


def build_roadmap(scene: Scene, start: Point, goal: Point) -> Roadmap:
    """Weighted roadmap over start, goal and all corner candidates.

    Every anchor has its turning circles (`Roadmap.circles`): chain_path's
    one of radius 0 for an endpoint, a CW and a CCW one of radius clearance
    for a corner.  An edge exists iff the directed tangent of some turn pair
    between two anchors' circles keeps clearance (segment_clear, the limit
    validate_path applies); between an endpoint and a corner the corner's
    two turns give the two tangents, and the straight start-goal segment,
    which `_direct_plan` refused, is no edge.  An edge weighs the plain
    Euclidean anchor distance.  The edges are `RoadmapGraph` rows, built
    when first read; the links between corners are kept on the Scene
    (`_corner_row`).  Nodes run start, corners by distance from the start,
    goal.  The endpoints are not checked here: the planning entry points
    check them first.
    """
    start, goal = Point(*start), Point(*goal)
    points, corner_circles, _ = _corners(scene)
    order = tuple(sorted(range(len(points)), key=lambda i: (math.dist(start, points[i]), *points[i])))
    anchors = (start, *(points[i] for i in order), goal)
    circles = ((TurningCircle(start, 0.0),), *(corner_circles[i] for i in order), (TurningCircle(goal, 0.0),))
    return Roadmap(RoadmapGraph(scene, anchors, circles, order), anchors, circles)


def _bends_ccw(rm: Roadmap, node_seq: tuple[int, ...]) -> list[bool]:
    """Per interior corner: whether the roadmap polyline bends counter-clockwise there."""
    pts = [rm.anchors[k - 1] for k in node_seq]
    return [(b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x) > 0 for a, b, c in zip(pts, pts[1:], pts[2:])]


def k_shortest_routes(graph: Mapping, src: int, dst: int, h: Optional[Callable] = None,
                      bound: Callable[[], float] = lambda: math.inf,
                      admit: Optional[Callable[[int], bool]] = None) -> Iterator[tuple]:
    """Loopless shortest routes in ascending cost order (Yen) over graph[node],
    the node's (neighbor, weight) row.  Every search is best_first's, with the
    heuristic h when given; a spur's starts from the spur's first hops that no
    earlier route through its root took, and never enters the root; the
    first search is src's.  A search from src judges each hop with admit, if
    given, as it pops it.  bound(), never rising, is read after each yield:
    that route's spur searches skip routes dearer (by over a relative 1e-9,
    against rounding in cost + h), so every route within it still comes, in
    order; dearer ones may not."""
    if src == dst:
        yield (src,), 0.0
        return
    # route prefix -> the next node of each route yielded through it; src's also each hop admit rejected
    branches: dict[tuple[int, ...], set[int]] = {(src,): set()}
    judge = admit and (lambda v: admit(v) or branches[(src,)].add(v))
    path, cost = best_first([(w, v) for v, w in graph[src]], dst, graph, (src,), h, admit=judge)
    pool = [(cost, (src, *path))] if path else []  # (cost, route) of the candidates not yet yielded
    pooled: set[tuple[int, ...]] = set()
    while pool:
        cost, path = heapq.heappop(pool)
        yield path, cost
        # A spur whose next edge an earlier route already took has the bans it
        # had on that route's turn, so its search would repeat a pooled
        # candidate (Lawler): start where path leaves every earlier route.
        shared = 1
        while shared < len(path) - 1 and path[shared] in branches.get(path[:shared], ()):
            shared += 1
        for i in range(len(path) - 1):
            branches.setdefault(path[: i + 1], set()).add(path[i + 1])
        root_costs = list(itertools.accumulate((dict(graph[a])[b] for a, b in zip(path, path[1:])), initial=0))
        ceiling = bound() * (1.0 + 1e-9)
        for i in range(shared - 1, len(path) - 1):
            spur, root = path[i], path[: i + 1]
            taken = branches[root]
            tail, tail_cost = best_first([(w, v) for v, w in graph[spur] if v not in taken], dst, graph, root, h,
                                         ceiling - root_costs[i], judge if i == 0 else None)
            candidate = root + tail
            if tail and candidate not in pooled:
                heapq.heappush(pool, (root_costs[i] + tail_cost, candidate))
                pooled.add(candidate)


def _chain_for(rm: Roadmap, node_seq: tuple[int, ...]) -> tuple[tuple[TurningCircle, ...], SmoothPath]:
    """The corners' circles, each turned the way the roadmap polyline bends, and their chain."""
    circles = tuple(rm.circles[node - 1][ccw] for node, ccw in zip(node_seq[1:-1], _bends_ccw(rm, node_seq)))
    return circles, chain_path(rm.anchors[node_seq[0] - 1], circles, rm.anchors[node_seq[-1] - 1])


def _plan(rm: Roadmap, node_seq: tuple[int, ...], engine: str, aco=None) -> PlanResult:
    """The plan along node_seq, unchecked; raises ChainingError."""
    circles, path = _chain_for(rm, node_seq)
    return PlanResult(circles, path, path.length, travel_time(path), engine, aco)


def _result(rm, scene, node_seq, engine, aco=None) -> Optional[PlanResult]:
    """The plan along node_seq, or None when it does not chain or fails validate_path."""
    try:
        plan = _plan(rm, node_seq, engine, aco)
    except ChainingError:
        return None
    return plan if validate_path(plan.path, scene).ok else None


class _ChainScreen:
    """Whether the chain of a node sequence of one roadmap chains and passes
    validate_path, for the many sequences of one query.

    The sequences share most of their pieces, so each leg (the tangent of
    two consecutive turning circles) and each corner (a circle's arc between
    the legs into and out of it) is built and checked once, keyed by node
    ids and turns; a sequence is rejected at its first failing piece, its
    legs first.  The pieces are those chain_path builds, on the roadmap's
    circles, and each is judged at validate_path's one clearance limit
    (`_legs` for a leg, corner_clear for a corner): for a start and a goal
    apart the verdict is validate_path's on the chained path.
    """

    def __init__(self, rm: Roadmap, scene: Scene):
        self.rm = rm
        self.scene = scene
        # a circle is (node, bends ccw), False at an endpoint, which has one
        # circle; a leg is a pair of circles, a corner a triple; a leg maps to
        # its piece, or to None when it does not chain or keep clearance
        self.legs: dict[tuple, Optional[tuple[float, float, Line]]] = {}
        self.corners: dict[tuple, bool] = {}

    def ok(self, seq: tuple[int, ...]) -> bool:
        circles = list(zip(seq, [False, *_bends_ccw(self.rm, seq), False]))
        turning = self.rm.circles
        legs = list(zip(circles, circles[1:]))
        for leg in legs:
            if leg not in self.legs:
                ends = [(turning[node - 1][ccw],) for node, ccw in leg]
                self.legs[leg] = next(_legs(*ends, self.scene))
            if self.legs[leg] is None:
                return False
        for into, out in zip(legs, legs[1:]):
            corner = (*into, out[1])
            if corner not in self.corners:
                node, ccw = out[0]
                self.corners[corner] = corner_clear(self.legs[into], turning[node - 1][ccw], self.legs[out], self.scene)
            if not self.corners[corner]:
                return False
        return True


def _ranked_plans(rm: Roadmap, scene: Scene, k: int) -> list[PlanResult]:
    """The k shortest validated plans, sorted by chained length, equal
    lengths in the order the scan found them; RouteInfeasible when none.

    Sequences come in ascending roadmap cost, which never exceeds a chained
    length, so the scan stops once k plans are held and the next sequence
    costs at least the k-th plan's length.  Otherwise it gives up after
    max(_FALLBACK_TRIES, 8k) sequences.
    """
    found: list[PlanResult] = []
    screen = _ChainScreen(rm, scene)
    routes = k_shortest_routes(rm.graph, 1, rm.graph.node_count, rm.graph.to_goal,
                               lambda: found[-1].length if len(found) == k else math.inf, rm.graph.admit)
    for seq, cost in itertools.islice(routes, max(_FALLBACK_TRIES, 8 * k)):
        if len(found) == k and cost >= found[-1].length:
            break
        if screen.ok(seq):
            found = sorted([*found, _plan(rm, seq, "exact")], key=lambda p: p.length)[:k]
    if not found:
        start, goal = rm.anchors[0], rm.anchors[-1]
        raise RouteInfeasible(f"no feasible route from {tuple(start)} to {tuple(goal)}",
                              blockers=blocking_obstacles(start, goal, scene))
    return found


def _colony_subgraph(rm: Roadmap) -> Optional[tuple[WeightedGraph, tuple[int, ...]]]:
    """Roadmap restricted to the nodes of the cheapest loopless routes.

    A full roadmap has far too many corner candidates for a binary-chromosome
    colony (random chromosomes decode through dozens of penalty hops), so the
    colony searches the sub-network spanned by the best few routes - the same
    simplification step that turns a scene into a small weighted graph by
    hand.  A missing hop weighs _ACO_PENALTY, the subgraph's no-edge sentinel.
    Returns the subgraph plus the kept original node ids (ascending, so node 1
    stays the start and the last node stays the goal), or None when the goal
    is unreachable.  It cuts the plain search, whose ties A* could reorder.
    """
    g = rm.graph
    routes = itertools.islice(k_shortest_routes(g, 1, g.node_count, admit=g.admit), _ACO_ROUTES)
    keep = tuple(sorted({node for seq, _ in routes for node in seq}))
    if not keep:
        return None
    index = {a: i for i, a in enumerate(keep, start=1)}
    edges = [(index[a], index[b], w) for a in keep[:-1] for b, w in g[a] if a < b and b in index and (a > 1 or g.admit(b))]
    return graph_from_edges(len(keep), edges, no_edge=_ACO_PENALTY), keep


def _direct_plan(scene: Scene, start: Point, goal: Point, engine: str) -> Optional[PlanResult]:
    """Check both endpoints; return the empty or straight plan when one fits.
    Other routes turn on arcs of radius clearance: RequestError below MIN_TURN_RADIUS."""
    _check_endpoint(start, scene, "start")
    _check_endpoint(goal, scene, "goal")
    if start == goal or segment_clear(start, goal, scene):
        path = SmoothPath(() if start == goal else (Line(start, goal),))
        return PlanResult((), path, path.length, travel_time(path), engine)
    if scene.clearance < MIN_TURN_RADIUS:
        raise RequestError(f"the route must turn, but the scene clearance {scene.clearance:.17g}, the radius of"
                           f" its corner arcs, is below the minimum turning radius {MIN_TURN_RADIUS:.17g}")
    return None


def plan_route(req: RouteRequest) -> PlanResult:
    """Shortest validated line-and-arc route for the request; RequestError
    for an engine other than "exact" or "aco", a bad endpoint, or a route
    that must turn where the clearance is below MIN_TURN_RADIUS.

    The colony engine runs the colony once.  When its proposal does not chain
    into a valid path (an unconnected one never does), the exact engine
    answers instead: the plan says engine "exact" and keeps the colony's
    result as `aco`.
    """
    if req.engine not in ("exact", "aco"):
        raise RequestError(f"unknown engine {req.engine!r}: expected 'exact' or 'aco'")
    scene = req.scene
    start, goal = Point(*req.start), Point(*req.goal)
    direct = _direct_plan(scene, start, goal, req.engine)
    if direct is not None:
        return direct
    rm = build_roadmap(scene, start, goal)

    colony = None
    if req.engine == "aco":
        reduced = _colony_subgraph(rm)
        if reduced is not None:
            sub, keep = reduced
            colony = aco_run(sub, req.aco_params or AcoParams())
            seq = tuple(keep[i - 1] for i in colony.nodes)
            plan = _result(rm, scene, seq, "aco", aco=colony)
            if plan is not None:
                return plan
    return _ranked_plans(rm, scene, 1)[0]._replace(aco=colony)


def enumerate_candidates(scene: Scene, start: Point, goal: Point, k: int = 3) -> list[PlanResult]:
    """The k shortest validated chained paths over distinct corner sequences:
    a non-empty list, or RouteInfeasible as plan_route raises it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    start, goal = Point(*start), Point(*goal)
    direct = _direct_plan(scene, start, goal, "exact")
    if direct is not None:
        return [direct]
    rm = build_roadmap(scene, start, goal)
    return _ranked_plans(rm, scene, k)
