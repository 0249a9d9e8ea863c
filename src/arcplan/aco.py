"""Binary-chromosome ant colony search over a weighted node graph.

A graph keeps only its edge lists, and a pair without an edge weighs its
no-edge penalty.  A route is a node-inclusion bit string (bit i: node i+1 is
on it) that decodes to its set nodes in ascending order, so infeasible routes
are merely expensive, never invalid.  One best-first search lives alongside:
it starts from several sources at their own costs, judged as they pop if
asked, never enters a closed state, is A* given a heuristic, and searches no
path dearer than a bound given.  The exact Dijkstra that checks the colony
(one source) and every search of the planner's k-shortest routes run it.
"""

from __future__ import annotations

import heapq
import math
import random
from functools import cache
from itertools import compress
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

NO_EDGE = 1000.0  # sentinel weight used by the builtin graph


class WeightedGraph(NamedTuple):
    """Built by graph_from_edges; its edge lists are its one stored form, and a non-edge weighs no_edge."""

    adjacency: tuple[tuple[tuple[int, float], ...], ...]  # row i - 1: node i's (neighbor, weight), ascending
    no_edge: float

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def weights(self) -> list[list[float]]:
        """[i - 1][j - 1]: the weight between nodes i and j, 0.0 when i == j, no_edge without an edge; a
        dense view of the edge lists built anew on each read."""
        m = [[self.no_edge] * len(self.adjacency) for _ in self.adjacency]
        for i, row in enumerate(self.adjacency):
            m[i][i] = 0.0
            for j, w in row:
                m[i][j - 1] = w
        return m


def graph_from_edges(n: int, edges: Sequence[tuple[int, int, float]], no_edge: float = NO_EDGE) -> WeightedGraph:
    """Nodes 1..n; the last weight given for a pair wins.  The one edge rule: i != j, finite, below no_edge."""
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, w in edges:
        if not (1 <= i <= n and 1 <= j <= n):  # node 0 or -1 would index the last row
            raise ValueError(f"edge {(i, j, w)!r} names a node outside 1..{n}")
        rows[i - 1][j] = rows[j - 1][i] = w
    adjacency = tuple(
        tuple(sorted((j, w) for j, w in row.items() if j != i and w < no_edge and math.isfinite(w)))
        for i, row in enumerate(rows, start=1)
    )
    return WeightedGraph(adjacency, no_edge)


# The 15-node benchmark graph.  No edge between nodes 2 and 6: with one, the
# overall optimum would shift to 1-2-6-7-9-11-14-15 (cost 634) instead of the
# intended 1-4-8-9-11-14-15 (cost 637) that this fixture is built to exercise.
BUILTIN_EDGES: tuple[tuple[int, int, float], ...] = (
    (1, 2, 70), (1, 4, 276), (1, 5, 208),
    (2, 3, 141), (2, 4, 211), (2, 5, 120),
    (3, 4, 68), (3, 5, 168), (3, 6, 100), (3, 7, 132), (3, 8, 500),
    (4, 7, 145), (4, 8, 131),
    (5, 6, 120), (5, 12, 313),
    (6, 7, 60),
    (7, 8, 131), (7, 9, 141), (7, 12, 89),
    (8, 9, 49), (8, 14, 555),
    (9, 11, 30), (9, 14, 118),
    (10, 11, 76), (10, 12, 170), (10, 13, 55),
    (11, 12, 123), (11, 13, 128), (11, 14, 69),
    (13, 15, 141),
    (14, 15, 82),
)


def builtin_graph() -> WeightedGraph:
    """The 15-node, 31-edge benchmark roadmap (sentinel weight 1000)."""
    return graph_from_edges(15, BUILTIN_EDGES)


Bits = tuple[int, ...]


def bits_from_string(s: str) -> Bits:
    if set(s) - {"0", "1"}:
        raise ValueError(f"chromosome must be binary, got {s!r}")
    return tuple(int(ch) for ch in s)


def bits_to_string(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def _route_cost(nodes: Sequence[int], hops: list[list[float]]) -> float:
    cost = 0.0  # plus each hop in route order, as aco_run's global moves add them
    for a, b in zip(nodes, nodes[1:]):
        cost += hops[a - 1][b - 1]
    return cost


def decode_and_cost(bits: Bits, g: WeightedGraph) -> tuple[tuple[int, ...], float]:
    """Decode a node-inclusion chromosome: visit set nodes in ascending order.
    A hop without an edge costs the graph's no-edge sentinel."""
    hops = g.weights
    if len(bits) != len(hops):
        raise ValueError(f"chromosome has {len(bits)} bits for a graph of {len(hops)} nodes")
    nodes = tuple(compress(range(1, len(bits) + 1), bits))
    return nodes, _route_cost(nodes, hops)


def pheromone_init(costs: Sequence[float]) -> list[float]:
    """Initial per-ant pheromone: max(cost) - cost, so the best ant peaks."""
    if not costs:
        raise ValueError("need at least one ant")
    top = max(costs)
    return [top - c for c in costs]


class AcoParams(NamedTuple):
    ants: int = 50
    generations: int = 100
    p0: float = 0.2   # global transfer factor
    evaporation: float = 0.8
    seed: int = 1


class AcoResult(NamedTuple):
    bits: Bits
    nodes: tuple[int, ...]
    cost: float
    best_curve: tuple[float, ...]   # best-so-far after each generation
    mean_curve: tuple[float, ...]   # colony mean cost per generation

    @property
    def chromosome(self) -> str:
        return bits_to_string(self.bits)


def aco_run(g: WeightedGraph, params: AcoParams = AcoParams()) -> AcoResult:
    """Run the colony.  Fixed seed => bit-identical result.

    Generation step (first and last bits stay set; the rest are "free"):
      1. colony of `ants` random chromosomes; cost = decoded route length.
      2. pheromone per ant: T = max(cost) - cost.
      3. each generation, for each ant in index order, compute its transition
         probability (T_best - T_ant) / T_best against the current best
         pheromone; below p0 the ant does a small local search - every free
         bit flips with probability lambda = 1/generation (at least one
         flips, if any is free); otherwise it makes a global move, redrawing
         all free bits uniformly.
      4. a move is kept only if it lowers the ant's cost.
      5. evaporate and re-deposit: T <- (1 - P) * T + (max(cost) - cost).
      6. record best / mean cost curves; repeat from 3.

    A missing hop costs the graph's no-edge sentinel, so `g.no_edge` must be
    finite and dominate any real route cost; ValueError when it is not finite
    or the graph has no node.  Bit i of a chromosome's int mask is node i + 1's.
    A global move adds each hop as it sets a node; a local move decodes only a
    mask the run has not costed.
    """
    if not math.isfinite(g.no_edge):
        raise ValueError(f"aco_run needs a finite no-edge sentinel, got {g.no_edge!r}")
    if not g.node_count:
        raise ValueError("aco_run needs a graph of at least one node, got an empty graph")
    hops, n = g.weights, g.node_count
    score = cache(lambda mask: _route_cost([i + 1 for i in range(n) if mask >> i & 1], hops))  # each mask once
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits  # a coin is randint(0, 1)'s own draw: getrandbits(2), redrawn while above 1
    free = range(1, n - 1)
    ends = 1 | 1 << n - 1
    colony = [ends] * params.ants
    for j in range(params.ants):
        for idx in range(n):  # the ends are drawn too, then set
            r = getrandbits(2)
            while r > 1:
                r = getrandbits(2)
            colony[j] |= r << idx
    costs = [score(m) for m in colony]
    pher = pheromone_init(costs)

    best_cost = min(costs)
    best = colony[costs.index(best_cost)]
    best_curve: list[float] = []
    mean_curve: list[float] = []

    for gen in range(1, params.generations + 1):
        lam = 1.0 / gen
        t_best = max(pher)
        for j in range(params.ants):
            if (1.0 if t_best <= 0.0 else (t_best - pher[j]) / t_best) < params.p0:
                cand, flipped = colony[j], False
                for idx in free:
                    if rng.random() < lam:
                        cand ^= 1 << idx
                        flipped = True
                if not flipped and free:  # lambda shrinks; never allow a dead move
                    cand ^= 1 << rng.choice(free)
                c = score(cand)
            else:
                cand, c, row = ends, 0.0, hops[0]
                for idx in free:
                    r = getrandbits(2)
                    while r > 1:
                        r = getrandbits(2)
                    if r:  # node idx + 1 joins the route, after the last one set
                        cand, c, row = cand | 1 << idx, c + row[idx], hops[idx]
                c += row[n - 1] if n > 1 else 0.0  # one node is its own route, at cost 0
            if c < costs[j]:
                colony[j] = cand
                costs[j] = c
        worst = max(costs)
        pher = [(1.0 - params.evaporation) * t + (worst - c) for t, c in zip(pher, costs)]
        gen_best = min(costs)
        if gen_best < best_cost:
            best_cost = gen_best
            best = colony[costs.index(gen_best)]
        best_curve.append(best_cost)
        mean_curve.append(math.fsum(costs) / len(costs))  # statistics.fmean(costs), whose import slows every start-up

    best_bits = tuple(best >> idx & 1 for idx in range(n))
    return AcoResult(best_bits, *decode_and_cost(best_bits, g), tuple(best_curve), tuple(mean_curve))


def best_first(
    sources: Iterable[tuple[float, Any]],
    goal: Any,
    successors: Mapping[Any, Iterable[tuple[Any, float]]],
    closed: Iterable[Any] = (),
    h: Optional[Callable[[Any], float]] = None,
    bound: float = math.inf,
    admit: Optional[Callable[[Any], bool]] = None,
) -> tuple[tuple, float]:
    """Dijkstra's best-first search from several start states to `goal`; A*
    when given `h`, 0 at goal and at most a hop's cost plus h after it.

    `sources` holds (cost, state) pairs, as from a super-source;
    `successors[state]` holds the state's (next, cost) pairs, costs
    nonnegative; no state of `closed` is entered, nor one whose cost plus h
    exceeds `bound` (those kept pop in the unbounded order).  Given `admit`,
    a source prunes nothing until it pops below its state's other costs; then
    admit(state) false drops it, leaving the state open.  Returns the path,
    from its source to goal, and its cost; ((), inf) when goal cannot be
    reached within `bound`.
    """
    dist: dict = dict.fromkeys(closed, -math.inf)  # no cost improves on a closed state, so none is pushed
    prev: dict = {}
    heap = []
    pop, push, get, inf = heapq.heappop, heapq.heappush, dist.get, math.inf  # bound once, read per relaxation
    h = h or (lambda state: 0.0)
    for cost, state in sources:
        if cost < get(state, inf) and (f := cost + h(state)) <= bound:
            if admit is None:  # an admitted source prunes the pushes it beats; an unjudged one prunes none
                dist[state], prev[state] = cost, None
            heap.append((f, cost, state))
    heapq.heapify(heap)
    while heap:
        _, d, u = pop(heap)
        if d != (known := get(u, inf)):  # a stale entry, or an unjudged source below every push of its state
            if d > known or not admit(u):
                continue
            dist[u], prev[u] = d, None
        if u == goal:
            path = [u]
            while (u := prev[u]) is not None:
                path.append(u)
            return tuple(reversed(path)), d
        for v, w in successors[u]:
            nd = d + w
            if nd < get(v, inf) and (f := nd + h(v)) <= bound:
                dist[v], prev[v] = nd, u
                push(heap, (f, nd, v))
    return (), inf


def dijkstra_shortest(g: WeightedGraph, src: int, dst: int) -> tuple[tuple[int, ...], float]:
    """Exact shortest path treating sentinel/no-edge weights as absent, by
    best_first over g.adjacency; ((), inf) when dst is unreachable."""
    return best_first([(0.0, src)], dst, dict(enumerate(g.adjacency, 1)))
