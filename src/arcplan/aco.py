"""Binary-chromosome ant colony search over a weighted node graph.

Routes are encoded as node-inclusion bit strings: bit i says whether node i+1
is on the route, and a chromosome decodes by visiting its set nodes in
ascending index order.  Missing edges between consecutive visited nodes cost
the graph's no-edge penalty, so infeasible routes are merely expensive, never
invalid.  The exact Dijkstra that checks the colony, and that the planner's
k-shortest search runs, lives alongside.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

NO_EDGE = 1000.0  # sentinel weight used by the builtin graph


class WeightedGraph(NamedTuple):
    """Built by graph_from_edges; a weight at or above no_edge, or not finite, is no edge."""

    weights: tuple[tuple[float, ...], ...]
    no_edge: float
    adjacency: tuple[tuple[tuple[int, float], ...], ...]  # row i - 1: node i's (neighbor, weight), ascending

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def weight(self, i: int, j: int) -> float:
        """Weight between 1-based nodes i and j."""
        return self.weights[i - 1][j - 1]

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        w = self.weights[i - 1][j - 1]
        return w < self.no_edge and math.isfinite(w)

    def neighbors(self, i: int):
        return iter(self.adjacency[i - 1])


def graph_from_edges(n: int, edges: Sequence[tuple[int, int, float]], no_edge: float = NO_EDGE) -> WeightedGraph:
    m = [[0.0 if i == j else no_edge for j in range(n)] for i in range(n)]
    for i, j, w in edges:
        m[i - 1][j - 1] = w
        m[j - 1][i - 1] = w
    adjacency = tuple(
        tuple((j, w) for j, w in enumerate(row, start=1) if j != i and w < no_edge and math.isfinite(w))
        for i, row in enumerate(m, start=1)
    )
    return WeightedGraph(tuple(tuple(row) for row in m), no_edge, adjacency)


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


def decode_and_cost(bits: Bits, g: WeightedGraph) -> tuple[tuple[int, ...], float]:
    """Decode a node-inclusion chromosome: visit set nodes in ascending order.

    Consecutive pairs without an edge contribute the graph's no-edge sentinel
    instead of a real weight.
    """
    weights, no_edge, low = g.weights, g.no_edge, -math.inf  # read once: a record field is slower than a local
    if len(bits) != len(weights):
        raise ValueError(f"chromosome has {len(bits)} bits for a graph of {len(weights)} nodes")
    nodes = tuple(compress(range(1, len(bits) + 1), bits))
    cost = 0.0
    for a, b in zip(nodes, nodes[1:]):
        w = weights[a - 1][b - 1]
        cost += w if low < w < no_edge else no_edge  # has_edge's test (the nodes ascend, so a != b)
    return nodes, cost


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
         bit flips with probability lambda = 1/generation (at least one bit
         always flips); otherwise it makes a global move, redrawing all free
         bits uniformly.
      4. a move is kept only if it lowers the ant's cost.
      5. evaporate and re-deposit: T <- (1 - P) * T + (max(cost) - cost).
      6. record best / mean cost curves; repeat from 3.

    A missing hop costs the graph's no-edge sentinel, so `g.no_edge` must be
    finite and dominate any real route cost.
    """
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits  # a coin is randint(0, 1)'s own draw: getrandbits(2), redrawn while above 1
    n = g.node_count
    free = list(range(1, n - 1))
    colony = [[1] * n for _ in range(params.ants)]
    for bits in colony:
        for idx in range(n):  # the ends are drawn too, then set
            r = getrandbits(2)
            while r > 1:
                r = getrandbits(2)
            bits[idx] = r
        bits[0] = bits[n - 1] = 1
    costs = [decode_and_cost(tuple(b), g)[1] for b in colony]
    pher = pheromone_init(costs)

    best_cost = min(costs)
    best_bits = tuple(colony[costs.index(best_cost)])
    best_curve: list[float] = []
    mean_curve: list[float] = []

    for gen in range(1, params.generations + 1):
        lam = 1.0 / gen
        t_best = max(pher)
        for j in range(params.ants):
            prob = 1.0 if t_best <= 0.0 else (t_best - pher[j]) / t_best
            cand = colony[j][:]
            if prob < params.p0:
                flipped = False
                for idx in free:
                    if rng.random() < lam:
                        cand[idx] ^= 1
                        flipped = True
                if not flipped:  # lambda shrinks; never allow a dead move
                    cand[rng.choice(free)] ^= 1
            else:
                for idx in free:
                    r = getrandbits(2)
                    while r > 1:
                        r = getrandbits(2)
                    cand[idx] = r
            c = decode_and_cost(tuple(cand), g)[1]
            if c < costs[j]:
                colony[j] = cand
                costs[j] = c
        worst = max(costs)
        pher = [(1.0 - params.evaporation) * t + (worst - c) for t, c in zip(pher, costs)]
        gen_best = min(costs)
        if gen_best < best_cost:
            best_cost = gen_best
            best_bits = tuple(colony[costs.index(gen_best)])
        best_curve.append(best_cost)
        mean_curve.append(math.fsum(costs) / len(costs))  # statistics.fmean(costs), whose import slows every start-up

    nodes, cost = decode_and_cost(best_bits, g)
    return AcoResult(best_bits, nodes, cost, tuple(best_curve), tuple(mean_curve))


def dijkstra_shortest(
    g: WeightedGraph,
    src: int,
    dst: int,
    banned_nodes: Iterable[int] = (),
    banned_edges: Iterable[tuple[int, int]] = (),
) -> tuple[tuple[int, ...], float]:
    """Exact shortest path treating sentinel/no-edge weights as absent.

    The search never enters a node of `banned_nodes` nor uses an edge of
    `banned_edges` (listed in either direction), as Yen's spur searches need.
    Returns ((), inf) when dst is unreachable.
    """
    n = g.node_count
    banned = set(banned_nodes)
    cut: dict[int, set[int]] = {}
    for a, b in banned_edges:
        cut.setdefault(a, set()).add(b)
        cut.setdefault(b, set()).add(a)
    adjacency = g.adjacency
    dist = [math.inf] * (n + 1)
    dist[src] = 0.0
    prev = [0] * (n + 1)
    seen = [False] * (n + 1)
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if seen[u]:
            continue
        seen[u] = True
        if u == dst:
            break
        skip = cut.get(u, ())
        for v, w in adjacency[u - 1]:
            if v in banned or v in skip:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                push(heap, (nd, v))
    if not seen[dst]:
        return (), math.inf
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path), dist[dst]
