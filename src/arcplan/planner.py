"""End-to-end route planning over a corner roadmap.

Pipeline: take one turning-circle candidate per convex obstacle vertex and
circles of radius 0 at the start and the goal, join the corners the scene's
compiled pairs join and the endpoint pairs whose directed tangents keep
clearance, pick a node sequence (exact Dijkstra / k-shortest, or the ant
colony), assign each corner the turn direction the polyline bends in, chain
the smooth path and validate it.
Reported lengths always come from the chain.  A colony proposal that fails is
no infeasibility verdict: the exact engine answers it.

The corner-to-corner part of the roadmap does not depend on the query: each
Scene object computes its corner links once, on first use, and keeps them
for as long as it lives; a query tests only the pairs that hold its start or
its goal.  Reuse one Scene object across queries to pay for them once.

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
be shorter.  Otherwise it gives up after max(_FALLBACK_TRIES, 8k) sequences.
A query checks each leg and each corner arc of its sequences once
(`_ChainScreen`) and chains only the sequences that pass.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, NamedTuple, Optional

from .aco import AcoParams, AcoResult, WeightedGraph, aco_run, best_first, graph_from_edges
from .geometry import (
    CLEARANCE_EPS,
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

    graph: WeightedGraph
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
    d = min_clearance(p, scene)
    if d < scene.clearance - CLEARANCE_EPS:
        near = blocking_obstacles(p, p, scene)
        raise RequestError(f"{label} {tuple(p)} has clearance {d:.4f} < {scene.clearance} (obstacles {near})")


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
    and c1.at's and c2.at's floats.  A leg whose angle at either end lies in
    a window its corner's edges block (in_cone) never reaches segment_clear's
    scan of the scene; segment_clear would reject it too."""
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


def _leg(c1: TurningCircle, c2: TurningCircle, scene: Scene) -> Optional[tuple[float, float, Line]]:
    """`_legs`' leg from c1 to c2 alone."""
    return next(_legs((c1,), (c2,), scene))


def _connected(a: tuple[TurningCircle, ...], b: tuple[TurningCircle, ...], scene: Scene) -> bool:
    """True iff the directed tangent of some turn pair keeps clearance
    (`_legs`); a and b are two anchors' circles.  Any pair that clears will
    do, so the order the pairs are tried in cannot change the answer."""
    return any(_legs(a, b, scene))


class _CornerLinks(NamedTuple):
    """A scene's corners in `corner_candidates` order, their (CW, CCW)
    turning circles, and the (i, j), i < j, pairs `_connected` joins."""

    corners: tuple[Point, ...]
    circles: tuple[tuple[TurningCircle, TurningCircle], ...]
    pairs: tuple[tuple[int, int], ...]


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


def _corner_links(scene: Scene) -> _CornerLinks:
    """The scene's corner links, computed once per Scene object."""
    compiled = scene.compiled
    if compiled.corner_links is None:
        r = scene.clearance
        corners = corner_candidates(scene)
        circles = tuple((TurningCircle(v, r, Turn.CW), TurningCircle(v, r, Turn.CCW)) for v in corners)
        arcs = [compiled.free[v] for v in corners]
        pairs = []
        for i, ((x1, y1), arc) in enumerate(zip(corners, arcs)):
            for j, (x2, y2) in enumerate(corners[i + 1:], i + 1):
                beta, d = math.atan2(y2 - y1, x2 - x1), math.hypot(x2 - x1, y2 - y1)
                delta = math.acos(2.0 * r / d) - 1e-9 if d > 2.0 * r else 0.0
                if (_faces(arc, beta, delta) and _faces(arcs[j], beta + math.pi, delta)
                        and _connected(circles[i], circles[j], scene)):
                    pairs.append((i, j))
        compiled.corner_links = _CornerLinks(corners, circles, tuple(pairs))
    return compiled.corner_links


def build_roadmap(scene: Scene, start: Point, goal: Point) -> Roadmap:
    """Weighted roadmap over start, goal and all corner candidates.

    Every anchor has its turning circles (`Roadmap.circles`): chain_path's
    one of radius 0 for an endpoint, a CW and a CCW one of radius clearance
    for a corner.  An edge exists iff the directed tangent of some turn pair
    between two anchors' circles keeps clearance (segment_clear, the limit
    validate_path applies).  Between the endpoints that tangent is the
    straight segment; between an endpoint and a corner the corner's two
    turns give the two tangents.  Its weight is the plain Euclidean anchor
    distance.  A query tests only the pairs that hold an endpoint, the
    start-goal pair included; it adds one corner-to-corner edge for each pair
    the scene's compiled corner links joined.
    Nodes run start, corners by distance from the start, goal.  The endpoints
    are not checked here: the planning entry points check them first.
    """
    start, goal = Point(*start), Point(*goal)
    links = _corner_links(scene)
    order = sorted(range(len(links.corners)), key=lambda i: (math.dist(start, links.corners[i]), *links.corners[i]))
    anchors = (start, *(links.corners[i] for i in order), goal)
    circles = ((TurningCircle(start, 0.0),), *(links.circles[i] for i in order), (TurningCircle(goal, 0.0),))
    last = len(anchors) - 1
    at = {corner: k for k, corner in enumerate(order, start=1)}  # corner index -> anchor index
    ends = [(0, j) for j in range(1, last + 1)] + [(i, last) for i in range(1, last)]
    pairs = [(i, j) for i, j in ends if _connected(circles[i], circles[j], scene)]
    pairs += [(at[a], at[b]) for a, b in links.pairs]
    edges = [(i + 1, j + 1, math.dist(anchors[i], anchors[j])) for i, j in pairs]
    return Roadmap(graph_from_edges(len(anchors), edges, no_edge=math.inf), anchors, circles)


def _bends_ccw(rm: Roadmap, node_seq: tuple[int, ...]) -> list[bool]:
    """Per interior corner: whether the roadmap polyline bends counter-clockwise there."""
    pts = [rm.anchors[k - 1] for k in node_seq]
    return [(b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x) > 0 for a, b, c in zip(pts, pts[1:], pts[2:])]


def k_shortest_routes(g: WeightedGraph, src: int, dst: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Loopless shortest roadmap routes in ascending cost order (Yen).  Every
    search is best_first's; a spur's starts from the spur's first hops that no
    earlier route through its root took, and never enters the root."""
    successors = dict(enumerate(g.adjacency, 1))
    path, cost = best_first([(0.0, src)], dst, successors)
    pool = [(cost, path)] if path else []  # (cost, route) of the candidates not yet yielded
    pooled: set[tuple[int, ...]] = set()
    branches: dict[tuple[int, ...], set[int]] = {}  # route prefix -> the next node of each route yielded through it
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
        root_costs = list(itertools.accumulate((g.weight(a, b) for a, b in zip(path, path[1:])), initial=0))
        for i in range(shared - 1, len(path) - 1):
            spur, root = path[i], path[: i + 1]
            taken = branches[root]
            tail, tail_cost = best_first([(w, v) for v, w in successors[spur] if v not in taken], dst, successors, root)
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
    ids and turns; a sequence is rejected at its first failing piece, known
    ones first.  The pieces are those chain_path builds, on the roadmap's
    circles, and each is judged at validate_path's one clearance limit
    (`_leg` for a leg, corner_clear for a corner): for a start and a goal
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
        corners = list(zip(circles, circles[1:], circles[2:]))
        corner_verdicts = list(map(self.corners.get, corners))
        if any(self.legs.get(leg, True) is None for leg in legs) or False in corner_verdicts:
            return False
        for leg in legs:
            if leg not in self.legs:
                (n1, ccw1), (n2, ccw2) = leg
                if self.legs.setdefault(leg, _leg(turning[n1 - 1][ccw1], turning[n2 - 1][ccw2], self.scene)) is None:
                    return False
        for into, out, corner, verdict in zip(legs, legs[1:], corners, corner_verdicts):
            if verdict is None:
                node, ccw = corner[1]
                keeps = corner_clear(self.legs[into], turning[node - 1][ccw], self.legs[out], self.scene)
                if not self.corners.setdefault(corner, keeps):
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
    routes = k_shortest_routes(rm.graph, 1, rm.graph.node_count)
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
    is unreachable.
    """
    routes = itertools.islice(k_shortest_routes(rm.graph, 1, rm.graph.node_count), _ACO_ROUTES)
    keep = tuple(sorted({node for seq, _ in routes for node in seq}))
    if not keep:
        return None
    index = {a: i for i, a in enumerate(keep, start=1)}
    edges = [(index[a], index[b], w) for a in keep for b, w in rm.graph.adjacency[a - 1] if a < b and b in index]
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
        raise RequestError(f"the route must turn, but the scene clearance {scene.clearance:g}, the radius of"
                           f" its corner arcs, is below the minimum turning radius {MIN_TURN_RADIUS:g}")
    return None


def plan_route(req: RouteRequest) -> PlanResult:
    """Shortest validated line-and-arc route for the request; RequestError
    for an engine other than "exact" or "aco", a bad endpoint, or a route
    that must turn where the clearance is below MIN_TURN_RADIUS.

    The colony engine runs the colony once.  When its proposal is unconnected
    or does not chain into a valid path, the exact engine answers instead: the
    plan says engine "exact" and keeps the colony's result as `aco`.
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
            picked = colony.nodes
            if all(sub.has_edge(a, b) for a, b in zip(picked, picked[1:])):
                seq = tuple(keep[i - 1] for i in picked)
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
