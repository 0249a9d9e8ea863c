"""End-to-end route planning over a corner roadmap.

Pipeline: inflate the scene, take one turning-circle candidate per convex
obstacle vertex and circles of radius 0 at the start and the goal, connect
anchors whose directed tangents keep clearance, pick a node sequence (exact
Dijkstra / k-shortest, or the ant colony), assign each corner the turn
direction the polyline bends in, chain the smooth path and validate it.
Reported lengths always come from the chain.  A colony proposal that fails is
no infeasibility verdict: the exact engine answers it.

Roadmap weights are center-to-center distances, and a sequence's roadmap cost
never exceeds its chained length: a tangent leg falls short of its hop by no
more than the arcs at its two ends add.  The exact engine walks Yen's
sequences in ascending roadmap cost and stops once it holds k valid plans and
the next sequence costs at least the k-th plan's length; no later sequence can
be shorter.  Otherwise it gives up after max(_FALLBACK_TRIES, 8k) sequences.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .aco import AcoParams, AcoResult, WeightedGraph, aco_run, dijkstra_shortest, graph_from_edges
from .geometry import (
    CLEARANCE_EPS,
    Circle,
    Point,
    Scene,
    blocking_obstacles,
    min_clearance,
    obstacle_distance,
    obstacle_vertices,
    segment_clear,
)
from .paths import (
    ChainingError,
    Line,
    SmoothPath,
    Turn,
    TurningCircle,
    chain_path,
    pair_tangent,
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


@dataclass(frozen=True)
class RouteRequest:
    start: Point
    goal: Point
    scene: Scene
    engine: str = "exact"  # "exact" | "aco"
    aco_params: Optional[AcoParams] = None


@dataclass(frozen=True)
class Roadmap:
    """Node 1 = start, node n = goal, interior nodes = corner circle centers."""

    graph: WeightedGraph
    anchors: tuple[Point, ...]
    radius: float

    def circle_for(self, node: int, turn: Turn) -> TurningCircle:
        return TurningCircle(self.anchors[node - 1], self.radius, turn)


@dataclass(frozen=True)
class PlanResult:
    corners: tuple[TurningCircle, ...]
    path: SmoothPath
    length: float
    travel_time: float
    node_sequence: tuple[int, ...]
    engine: str
    roadmap_cost: float
    aco: Optional[AcoResult] = None


def _check_endpoint(p: Point, scene: Scene, label: str) -> None:
    if not scene.contains(p):
        raise RequestError(f"{label} {tuple(p)} lies outside the scene bounds {scene.bounds}")
    limit = scene.clearance - CLEARANCE_EPS
    d = min_clearance(p, scene)
    if d < limit:
        near = tuple(spec.id for spec in scene.obstacles if obstacle_distance(p, spec) < limit)
        raise RequestError(
            f"{label} {tuple(p)} has clearance {d:.4f} < {scene.clearance} (obstacles {near})"
        )


def corner_candidates(scene: Scene) -> tuple[Point, ...]:
    """Turning-circle centers: convex obstacle vertices whose clearance-radius
    circle fits inside the scene bounds (arcs may not leave the field)."""
    r = scene.clearance
    w, h = scene.bounds
    out = []
    for spec in scene.obstacles:
        if isinstance(spec.shape, Circle):
            # Circle obstacles get no turning circle, so no route wraps one:
            # a known defect, listed in ROADMAP.md.
            continue
        for v in obstacle_vertices(spec):
            if r <= v.x <= w - r and r <= v.y <= h - r:
                out.append(v)
    return tuple(out)


def _connected(a: tuple[TurningCircle, ...], b: tuple[TurningCircle, ...], scene: Scene) -> bool:
    """True iff the directed tangent of one turn pair, same turns first, keeps
    clearance; a and b are two anchors' circles."""
    for c1, c2 in sorted(itertools.product(a, b), key=lambda pair: pair[0].turn is not pair[1].turn):
        try:
            t1, t2 = pair_tangent(c1, c2)
        except ChainingError:
            continue
        if segment_clear(c1.at(t1), c2.at(t2), scene):
            return True
    return False


def build_roadmap(scene: Scene, start: Point, goal: Point) -> Roadmap:
    """Weighted roadmap over start, goal and all corner candidates.

    Every anchor has its turning circles: one of radius 0 for an endpoint, a
    CW and a CCW one of radius clearance for a corner.  An edge exists iff the
    directed tangent of some turn pair between two anchors' circles keeps
    clearance.  Between the endpoints that tangent is the straight segment;
    between an endpoint and a corner the two turn pairs give the two tangents
    (either turn of an endpoint reaches both; the start's CCW and the goal's
    CW only fix which is tried first).  Its weight is the plain Euclidean
    anchor distance.  The endpoints are not checked here: the planning entry
    points check them first.
    """
    start, goal = Point(*start), Point(*goal)
    r = scene.clearance
    corners = sorted(corner_candidates(scene), key=lambda v: (math.dist(start, v), v.x, v.y))
    anchors = (start, *corners, goal)
    circles = [
        (TurningCircle(start, 0.0, Turn.CCW),),
        *((TurningCircle(v, r, Turn.CW), TurningCircle(v, r, Turn.CCW)) for v in corners),
        (TurningCircle(goal, 0.0, Turn.CW),),
    ]
    edges = [
        (i + 1, j + 1, math.dist(anchors[i], anchors[j]))
        for i, j in itertools.combinations(range(len(anchors)), 2)
        if _connected(circles[i], circles[j], scene)
    ]
    return Roadmap(graph_from_edges(len(anchors), edges, no_edge=math.inf), anchors, r)


def _directed_corners(rm: Roadmap, node_seq: tuple[int, ...]) -> tuple[TurningCircle, ...]:
    """Turn per interior corner: the side the roadmap polyline bends toward."""
    pts = [rm.anchors[k - 1] for k in node_seq]
    circles = []
    for t in range(1, len(pts) - 1):
        ax, ay = pts[t].x - pts[t - 1].x, pts[t].y - pts[t - 1].y
        bx, by = pts[t + 1].x - pts[t].x, pts[t + 1].y - pts[t].y
        cross = ax * by - ay * bx
        turn = Turn.CCW if cross > 0 else Turn.CW
        circles.append(rm.circle_for(node_seq[t], turn))
    return tuple(circles)


def k_shortest_routes(g: WeightedGraph, src: int, dst: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Loopless shortest roadmap routes in ascending cost order (Yen)."""
    best = dijkstra_shortest(g, src, dst)
    if not best[0]:
        return
    yield best
    accepted = [best]
    pool: list[tuple[float, tuple[int, ...]]] = []
    pooled: set[tuple[int, ...]] = set()
    while True:
        prev_path = accepted[-1][0]
        for i in range(len(prev_path) - 1):
            spur = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges = set()
            for p, _ in accepted:
                if len(p) > i and p[: i + 1] == root:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = frozenset(root[:-1])
            tail, tail_cost = dijkstra_shortest(g, spur, dst, banned_nodes, frozenset(banned_edges))
            if not tail:
                continue
            candidate = root[:-1] + tail
            if candidate in pooled:
                continue
            root_cost = sum(g.weight(a, b) for a, b in zip(root, root[1:]))
            heapq.heappush(pool, (root_cost + tail_cost, candidate))
            pooled.add(candidate)
        if not pool:
            return
        cost, path = heapq.heappop(pool)
        accepted.append((path, cost))
        yield path, cost


def _chain_for(rm: Roadmap, node_seq: tuple[int, ...]) -> tuple[tuple[TurningCircle, ...], SmoothPath]:
    circles = _directed_corners(rm, node_seq)
    path = chain_path(rm.anchors[node_seq[0] - 1], circles, rm.anchors[node_seq[-1] - 1])
    return circles, path


def _result(rm, scene, node_seq, roadmap_cost, engine, aco=None) -> Optional[PlanResult]:
    try:
        circles, path = _chain_for(rm, node_seq)
    except ChainingError:
        return None
    if not validate_path(path, scene).ok:
        return None
    return PlanResult(
        corners=circles,
        path=path,
        length=path.length,
        travel_time=travel_time(path),
        node_sequence=node_seq,
        engine=engine,
        roadmap_cost=roadmap_cost,
        aco=aco,
    )


def _ranked_plans(rm: Roadmap, scene: Scene, k: int) -> list[PlanResult]:
    """The k shortest validated plans, sorted by chained length.

    Sequences come in ascending roadmap cost, which never exceeds a chained
    length, so the scan stops once k plans are held and the next sequence
    costs at least the k-th plan's length.  Otherwise it gives up after
    max(_FALLBACK_TRIES, 8k) sequences.
    """
    found: list[PlanResult] = []
    routes = k_shortest_routes(rm.graph, 1, rm.graph.node_count)
    for seq, cost in itertools.islice(routes, max(_FALLBACK_TRIES, 8 * k)):
        if len(found) == k and cost >= found[-1].length:
            break
        plan = _result(rm, scene, seq, cost, "exact")
        if plan is not None:
            found = sorted([*found, plan], key=lambda p: (p.length, p.node_sequence))[:k]
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
    edges = [
        (i, j, rm.graph.weight(a, b))
        for (i, a), (j, b) in itertools.combinations(enumerate(keep, start=1), 2)
        if rm.graph.has_edge(a, b)
    ]
    return graph_from_edges(len(keep), edges, no_edge=_ACO_PENALTY), keep


def _direct_plan(scene: Scene, start: Point, goal: Point, engine: str) -> Optional[PlanResult]:
    """Check both endpoints; return the empty or straight plan when one fits."""
    _check_endpoint(start, scene, "start")
    _check_endpoint(goal, scene, "goal")
    if start == goal:
        return PlanResult((), SmoothPath(()), 0.0, 0.0, (1, 1), engine, 0.0)
    if segment_clear(start, goal, scene):
        path = SmoothPath((Line(start, goal),))
        return PlanResult((), path, path.length, travel_time(path), (1, 2), engine, path.length)
    return None


def plan_route(req: RouteRequest) -> PlanResult:
    """Shortest validated line-and-arc route for the request.

    The colony engine runs the colony once.  When its proposal is unconnected
    or does not chain into a valid path, the exact engine answers instead: the
    plan says engine "exact" and keeps the colony's result as `aco`.
    """
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
                plan = _result(rm, scene, seq, colony.cost, "aco", aco=colony)
                if plan is not None:
                    return plan

    plans = _ranked_plans(rm, scene, 1)
    if plans:
        return replace(plans[0], aco=colony)
    raise RouteInfeasible(
        f"no feasible route from {tuple(start)} to {tuple(goal)}",
        blockers=blocking_obstacles(start, goal, scene),
    )


def enumerate_candidates(scene: Scene, start: Point, goal: Point, k: int = 3) -> list[PlanResult]:
    """The k shortest validated chained paths over distinct corner sequences."""
    if k < 1:
        raise ValueError("k must be >= 1")
    start, goal = Point(*start), Point(*goal)
    direct = _direct_plan(scene, start, goal, "exact")
    if direct is not None:
        return [direct]
    rm = build_roadmap(scene, start, goal)
    return _ranked_plans(rm, scene, k)
