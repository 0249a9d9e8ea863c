"""End-to-end route planning over a corner roadmap.

Pipeline: inflate the scene, take one turning-circle candidate per convex
obstacle vertex, connect candidates whose tangent segments keep clearance,
pick a node sequence (exact Dijkstra / k-shortest, or the ant colony), assign
each corner the turn direction the polyline bends in, chain the smooth path
and validate it.  Roadmap weights are center-to-center distances and slightly
underestimate the chained length; reported lengths always come from the chain.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .aco import AcoParams, AcoResult, WeightedGraph, aco_run, dijkstra_shortest, graph_from_edges
from .geometry import (
    CLEARANCE_EPS,
    Circle,
    Point,
    Scene,
    blocking_obstacles,
    min_clearance,
    obstacle_vertices,
    segment_clear,
)
from .paths import (
    ChainingError,
    Line,
    SmoothPath,
    TangencyError,
    Turn,
    TurningCircle,
    chain_path,
    common_tangents,
    tangents_from_point,
    travel_time,
    validate_path,
)

KNOWN_TARGETS: dict[str, Point] = {
    "O": Point(0.0, 0.0),
    "A": Point(300.0, 300.0),
    "B": Point(100.0, 700.0),
    "C": Point(700.0, 640.0),
}

MAX_ROUTE_CORNERS = 12  # enumeration cap; benchmark optima use at most 5
_FALLBACK_TRIES = 60
_KEEP_VALID = 3    # validated candidates ranked per shortest-plan query
_ACO_RETRIES = 25
_ACO_ROUTES = 12   # cheapest loopless routes whose node union the colony searches
_ACO_PENALTY = 1e6  # roadmap no-edge hops must dominate any real route cost


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
    d = min_clearance(p, scene)
    if d < scene.clearance - CLEARANCE_EPS:
        near = tuple(
            spec.id for spec in scene.obstacles
            if min_clearance(p, Scene(scene.bounds, (spec,), scene.clearance)) < scene.clearance
        )
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


def _point_circle_connected(p: Point, center: Point, r: float, scene: Scene) -> bool:
    try:
        t_plus, t_minus = tangents_from_point(p, TurningCircle(center, r))
    except TangencyError:
        return False
    return segment_clear(p, t_plus, scene) or segment_clear(p, t_minus, scene)


def _circle_circle_connected(a: Point, b: Point, r: float, scene: Scene) -> bool:
    try:
        tangents = common_tangents(TurningCircle(a, r), TurningCircle(b, r))
    except TangencyError:
        return False
    return any(seg.length > 0 and segment_clear(seg.a, seg.b, scene) for seg in tangents)


def build_roadmap(scene: Scene, start: Point, goal: Point) -> Roadmap:
    """Weighted roadmap over start, goal and all corner candidates.

    An edge exists iff some clearance-respecting tangent connection joins the
    two nodes; its weight is the plain Euclidean anchor distance.  The
    endpoints are not checked here: the planning entry points check them first.
    """
    start, goal = Point(*start), Point(*goal)
    r = scene.clearance
    corners = sorted(corner_candidates(scene), key=lambda v: (math.dist(start, v), v.x, v.y))
    anchors: list[Point] = [start, *corners, goal]
    n = len(anchors)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = anchors[i], anchors[j]
            i_pt = i == 0 or i == n - 1
            j_pt = j == 0 or j == n - 1
            if i_pt and j_pt:
                ok = segment_clear(a, b, scene)
            elif i_pt:
                ok = _point_circle_connected(a, b, r, scene)
            elif j_pt:
                ok = _point_circle_connected(b, a, r, scene)
            else:
                ok = _circle_circle_connected(a, b, r, scene)
            if ok:
                edges.append((i + 1, j + 1, math.dist(a, b)))
    return Roadmap(graph_from_edges(n, edges, no_edge=math.inf), tuple(anchors), r)


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
    if len(node_seq) - 2 > MAX_ROUTE_CORNERS:
        return None
    try:
        circles, path = _chain_for(rm, node_seq)
    except (ChainingError, TangencyError):
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


def _ranked_plans(rm: Roadmap, scene: Scene, budget: int, keep: int) -> list[PlanResult]:
    """Validated plans for the cheapest roadmap sequences, sorted by true length.

    Roadmap weights underestimate smooth-path length (tangents cut the
    corners), so the scan keeps several validated candidates before ranking.
    """
    n = rm.graph.node_count
    found: list[PlanResult] = []
    for tries, (seq, cost) in enumerate(k_shortest_routes(rm.graph, 1, n)):
        if tries >= budget or len(found) >= keep:
            break
        plan = _result(rm, scene, seq, cost, "exact")
        if plan is not None:
            found.append(plan)
    found.sort(key=lambda p: (p.length, p.node_sequence))
    return found


def _colony_subgraph(rm: Roadmap) -> Optional[tuple[WeightedGraph, tuple[int, ...]]]:
    """Roadmap restricted to the nodes of the cheapest loopless routes.

    A full roadmap has far too many corner candidates for a binary-chromosome
    colony (random chromosomes decode through dozens of penalty hops), so the
    colony searches the sub-network spanned by the best few routes - the same
    simplification step that turns a scene into a small weighted graph by
    hand.  Returns the subgraph plus the kept original node ids (ascending, so
    node 1 stays the start and the last node stays the goal), or None when the
    goal is unreachable.
    """
    routes: list[tuple[int, ...]] = []
    for seq, _cost in k_shortest_routes(rm.graph, 1, rm.graph.node_count):
        routes.append(seq)
        if len(routes) >= _ACO_ROUTES:
            break
    if not routes:
        return None
    keep = tuple(sorted({node for seq in routes for node in seq}))
    index = {orig: i + 1 for i, orig in enumerate(keep)}
    m = len(keep)
    weights = [[rm.graph.no_edge] * m for _ in range(m)]
    for a in keep:
        for b in keep:
            if a != b and rm.graph.has_edge(a, b):
                weights[index[a] - 1][index[b] - 1] = rm.graph.weight(a, b)
    return WeightedGraph(tuple(tuple(row) for row in weights), rm.graph.no_edge), keep


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
    """Shortest validated line-and-arc route for the request."""
    scene = req.scene
    start, goal = Point(*req.start), Point(*req.goal)
    direct = _direct_plan(scene, start, goal, req.engine)
    if direct is not None:
        return direct
    rm = build_roadmap(scene, start, goal)

    if req.engine == "aco":
        reduced = _colony_subgraph(rm)
        if reduced is None:
            raise RouteInfeasible(
                f"no feasible route from {tuple(start)} to {tuple(goal)}",
                blockers=blocking_obstacles(start, goal, scene),
            )
        sub, keep = reduced
        params = req.aco_params or AcoParams()
        taboo: set[tuple[int, ...]] = set()
        for _ in range(_ACO_RETRIES):
            res = aco_run(sub, params, penalty=_ACO_PENALTY, taboo=frozenset(taboo))
            picked = res.nodes
            connected = (
                picked and picked[0] == 1 and picked[-1] == sub.node_count
                and all(sub.has_edge(a, b) for a, b in zip(picked, picked[1:]))
            )
            if connected and picked not in taboo:
                seq = tuple(keep[i - 1] for i in picked)
                plan = _result(rm, scene, seq, res.cost, "aco", aco=res)
                if plan is not None:
                    return plan
            if not picked or picked in taboo:
                break  # colony re-proposed a rejected route; no progress left
            taboo.add(picked)
        raise RouteInfeasible(
            f"colony found no realizable route in {len(taboo) + 1} runs",
            blockers=blocking_obstacles(start, goal, scene),
        )

    plans = _ranked_plans(rm, scene, _FALLBACK_TRIES, _KEEP_VALID)
    if plans:
        return plans[0]
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
    return _ranked_plans(rm, scene, max(_FALLBACK_TRIES, 8 * k), _KEEP_VALID * k)[:k]
