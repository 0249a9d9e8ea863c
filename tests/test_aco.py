"""Colony search and graph utilities against exact and exhaustive oracles."""

import hashlib
import itertools
import math
import random
import re

import pytest

import arcplan.aco
import oracles
from arcplan.aco import (
    BUILTIN_EDGES,
    NO_EDGE,
    AcoParams,
    aco_run,
    best_first,
    bits_from_string,
    bits_to_string,
    builtin_graph,
    decode_and_cost,
    dijkstra_shortest,
    graph_from_edges,
    pheromone_init,
)

OPTIMUM_NODES = (1, 4, 8, 9, 11, 14, 15)
OPTIMUM_CHROMOSOME = "100100011010011"
OPTIMUM_COST = 637.0


def test_builtin_graph_shape(graph):
    assert graph.node_count == 15
    assert graph.no_edge == 1000.0
    weights = graph.weights
    for i in range(1, 16):
        assert weights[i - 1][i - 1] == 0.0
        for j in range(1, 16):
            assert weights[i - 1][j - 1] == weights[j - 1][i - 1]
    edges = sum(1 for i in range(1, 16) for j in range(i + 1, 16) if j in dict(graph.adjacency[i - 1]))
    assert edges == 31


def test_builtin_graph_spot_weights(graph):
    weights = graph.weights
    spots = [(1, 2, 70.0), (1, 4, 276.0), (3, 8, 500.0), (8, 9, 49.0), (9, 11, 30.0), (11, 14, 69.0), (14, 15, 82.0),
             (8, 14, 555.0)]
    for i, j, w in spots:
        assert weights[i - 1][j - 1] == w, (i, j)
    # 2-6 stays disconnected; an edge there would re-route the whole benchmark
    assert 6 not in dict(graph.adjacency[2 - 1])
    assert weights[2 - 1][6 - 1] == NO_EDGE


def test_builtin_graph_neighbors(graph):
    assert dict(graph.adjacency[0]) == {2: 70.0, 4: 276.0, 5: 208.0}
    assert dict(graph.adjacency[14]) == {13: 141.0, 14: 82.0}
    assert 1 not in dict(graph.adjacency[0])


def test_graph_from_edges_symmetry():
    g = graph_from_edges(4, [(1, 2, 5.0), (2, 4, 7.5)], no_edge=99.0)
    weights = g.weights
    assert weights[2 - 1][1 - 1] == 5.0 and weights[4 - 1][2 - 1] == 7.5
    assert weights[1 - 1][1 - 1] == 0.0
    assert 3 not in dict(g.adjacency[1 - 1])
    assert g.no_edge == 99.0


@pytest.mark.parametrize("edge", [(0, 2, 5.0), (-1, 2, 5.0), (2, 4, 5.0)], ids=["zero", "negative", "above-n"])
def test_graph_from_edges_rejects_a_node_outside_the_graph(edge):
    # node 0 and -1 would index the last row from the end; 4 would raise a bare IndexError
    with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} names a node outside 1..3")):
        graph_from_edges(3, [edge])


def test_graph_from_edges_applies_the_one_edge_rule():
    # against an oracle: the last weight given for an unordered pair wins, and
    # the pair holds an edge iff i != j and that weight is finite and below
    # no_edge; every other pair, a self-loop's too, weighs no_edge
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        no_edge = rng.choice([NO_EDGE, 60.5, math.inf])
        specials = [math.nan, math.inf, -math.inf, -2.25, no_edge, 1.5 * no_edge]
        edges = [
            (rng.randint(1, n), rng.randint(1, n), rng.choice(specials) if rng.random() < 0.3 else rng.uniform(0.1, 99.9))
            for _ in range(rng.randint(0, 3 * n))
        ]
        edges += [(j, i, rng.choice(specials)) for i, j, _ in rng.sample(edges, len(edges) // 3)]  # re-given reversed
        last = {(min(i, j), max(i, j)): w for i, j, w in edges}
        want = {(i, j): w for (a, b), w in last.items() if a != b and math.isfinite(w) and w < no_edge
                for i, j in ((a, b), (b, a))}
        g = graph_from_edges(n, edges, no_edge=no_edge)
        weights = g.weights
        assert g.node_count == len(weights) == n
        for i in range(1, n + 1):
            neighbors = [j for j, _ in g.adjacency[i - 1]]
            assert all(a < b for a, b in zip(neighbors, neighbors[1:])), (seed, i)
            assert dict(g.adjacency[i - 1]) == {j: w for (a, j), w in want.items() if a == i}, (seed, i)
            for j in range(1, n + 1):
                assert (j in dict(g.adjacency[i - 1])) == ((i, j) in want), (seed, i, j)
                assert weights[i - 1][j - 1] == weights[j - 1][i - 1], (seed, i, j)
                assert weights[i - 1][j - 1] == (0.0 if i == j else want.get((i, j), no_edge)), (seed, i, j)


def test_bits_string_roundtrip():
    bits = bits_from_string(OPTIMUM_CHROMOSOME)
    assert bits == (1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1)
    assert bits_to_string(bits) == OPTIMUM_CHROMOSOME
    with pytest.raises(ValueError):
        bits_from_string("10012")


def test_decode_known_chromosome(graph):
    nodes, cost = decode_and_cost(bits_from_string(OPTIMUM_CHROMOSOME), graph)
    assert nodes == OPTIMUM_NODES
    assert cost == OPTIMUM_COST


@pytest.mark.parametrize(
    "edges, no_edge, chromosome, nodes, cost",
    [
        (BUILTIN_EDGES, NO_EDGE, "110000000000001", (1, 2, 15), 70.0 + NO_EDGE),
        ([(1, 2, 5.0), (2, 3, NO_EDGE)], NO_EDGE, "111", (1, 2, 3), 5.0 + NO_EDGE),
        ([(1, 2, 5.0), (2, 3, 2 * NO_EDGE)], NO_EDGE, "111", (1, 2, 3), 5.0 + NO_EDGE),
        ([(1, 2, 5.0), (2, 3, -math.inf)], NO_EDGE, "111", (1, 2, 3), 5.0 + NO_EDGE),
        ([(1, 2, 5.0)], math.inf, "111", (1, 2, 3), math.inf),
        ([(1, 2, 5.0), (2, 3, 7.0)], math.inf, "111", (1, 2, 3), 12.0),
    ],
    ids=["builtin", "at-sentinel", "above-sentinel", "not-finite", "inf-sentinel", "inf-sentinel-edges"],
)
def test_decode_charges_missing_edges(edges, no_edge, chromosome, nodes, cost):
    # a hop without an edge (no adjacency entry) costs the sentinel, whatever weight was given for it
    g = graph_from_edges(len(chromosome), edges, no_edge=no_edge)
    assert decode_and_cost(bits_from_string(chromosome), g) == (nodes, cost)
    hops = zip(nodes, nodes[1:])
    assert cost == sum(dict(g.adjacency[a - 1]).get(b, g.no_edge) for a, b in hops)


def test_pheromone_init_peaks_at_best():
    costs = [700.0, 640.0, 900.0, 640.0]
    pher = pheromone_init(costs)
    assert pher == [200.0, 260.0, 0.0, 260.0]
    assert min(pher) == 0.0 and all(p >= 0.0 for p in pher)
    with pytest.raises(ValueError):
        pheromone_init([])


def test_dijkstra_builtin_optimum(graph):
    nodes, cost = dijkstra_shortest(graph, 1, 15)
    assert nodes == OPTIMUM_NODES
    assert cost == OPTIMUM_COST


def test_dijkstra_matches_exhaustive_on_builtin(graph):
    routes = oracles.exhaustive_routes([list(r) for r in graph.weights], graph.no_edge, 1, 15)
    assert routes[0] == (OPTIMUM_COST, OPTIMUM_NODES)
    # strict optimum: the runner-up is a full 3 units worse
    assert routes[1][0] == 640.0
    nodes, cost = dijkstra_shortest(graph, 1, 15)
    assert (cost, nodes) == routes[0]


def test_dijkstra_matches_exhaustive_on_random_graphs():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(5, 8)
        edges = [
            (i, j, float(rng.randint(1, 99)))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.45
        ]
        g = graph_from_edges(n, edges)
        routes = oracles.exhaustive_routes([list(r) for r in g.weights], g.no_edge, 1, n)
        nodes, cost = dijkstra_shortest(g, 1, n)
        if routes:
            assert cost == routes[0][0]
            assert (cost, nodes) in routes  # tie-safe: any cheapest route is fine
        else:
            assert nodes == () and cost == math.inf


def test_dijkstra_unreachable_and_trivial():
    g = graph_from_edges(4, [(1, 2, 3.0)])
    assert dijkstra_shortest(g, 1, 4) == ((), math.inf)
    assert dijkstra_shortest(g, 3, 3) == ((3,), 0.0)


def random_graphs(euclidean: bool):
    """40 graphs from random.Random(7), each (n, points, edges, sources,
    closed): nodes 1..n, the goal node n, (cost, node) sources and closed
    nodes.  Integer weights, or Euclidean ones, an edge weighing the distance
    between random points (points[v] is node v's; points is empty else)."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(8, 11) if euclidean else rng.randint(5, 8)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n + 1)] if euclidean else []
        edges = [
            (i, j, math.dist(points[i], points[j]) if euclidean else float(rng.randint(1, 99)))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < (0.5 if euclidean else 0.4)
        ]
        top = 20 if euclidean else 80  # the sources' starting costs
        sources = [(float(rng.randint(0, top)), v) for v in rng.sample(range(1, n + 1), rng.randint(1, 3))]
        closed = {v for v in range(1, n) if rng.random() < 0.2}
        yield n, points, edges, sources, closed


def test_best_first_matches_exhaustive_on_random_graphs():
    # The sources, each with its own starting cost, are one super-source:
    # node n + 1 of the oracle's graph, joined to each source at that cost.
    # The oracle's graph leaves out the closed nodes; the goal is node n.
    # Two kinds of graph: integer weights, searched without a heuristic, and
    # Euclidean ones, searched as A* with h = the straight distance to the goal.
    for euclidean in (False, True):
        seen = {"reached": 0, "unreachable": 0, "source is goal": 0, "closed source": 0}
        for n, points, edges, sources, closed in random_graphs(euclidean):
            kept = [(i, j, w) for i, j, w in edges if i not in closed and j not in closed]
            kept += [(n + 1, v, cost) for cost, v in sources if v not in closed]
            oracle_graph = graph_from_edges(n + 1, kept)
            routes = oracles.exhaustive_routes([list(r) for r in oracle_graph.weights], NO_EDGE, n + 1, n)
            successors = dict(enumerate(graph_from_edges(n, edges).adjacency, 1))
            h = (lambda v: math.dist(points[v], points[n])) if euclidean else None
            path, cost = best_first(sources, n, successors, closed, h)
            if routes:
                assert cost == routes[0][0], euclidean
                assert (cost, (n + 1, *path)) in routes  # tie-safe: any cheapest route is fine
                seen["reached"] += 1
                seen["source is goal"] += path == (n,)
            else:
                assert (path, cost) == ((), math.inf)
                seen["unreachable"] += 1
            seen["closed source"] += any(v in closed for _, v in sources)
        assert min(seen.values()) > 0, (euclidean, seen)


class Reads(dict):
    """successors that records each state whose row is read: the states expanded."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, state):
        self.read.append(state)
        return super().__getitem__(state)


def test_best_first_with_a_bound_searches_only_within_it():
    # On the Euclidean graphs, as Dijkstra and as A* (h = the straight
    # distance to the goal): a bound at or above the optimum returns the
    # unbounded answer, one below it returns nothing, and no state expanded
    # has its shortest cost from the sources plus h above the bound.
    seen = {"pruned": 0, "reached": 0}
    for informed in (False, True):
        for n, points, edges, sources, closed in random_graphs(True):
            successors = dict(enumerate(graph_from_edges(n, edges).adjacency, 1))
            h = (lambda v, points=points, n=n: math.dist(points[v], points[n])) if informed else None
            f = {v: best_first(sources, v, successors, closed)[1] + (h(v) if h else 0.0) for v in successors}
            path, cost = best_first(sources, n, successors, closed, h)
            if path:
                seen["reached"] += 1
                for bound in (cost, cost + 1.0, math.inf):
                    assert best_first(sources, n, successors, closed, h, bound) == (path, cost), (informed, bound)
                assert best_first(sources, n, successors, closed, h, cost - 1e-6) == ((), math.inf), informed
            for bound in (cost, 0.75 * cost, 0.5 * cost, 30.0):
                reads = Reads(successors)
                best_first(sources, n, reads, closed, h, bound)
                assert all(f[u] <= bound for u in reads.read), (informed, bound)
                everything = Reads(successors)
                best_first(sources, n, everything, closed, h)
                seen["pruned"] += len(set(everything.read) - set(reads.read)) > 0
    assert seen["pruned"] > 0 and seen["reached"] > 0, seen


def test_best_first_sources_compete():
    successors = dict(enumerate(graph_from_edges(4, [(1, 2, 3.0), (2, 3, 3.0)]).adjacency, 1))
    assert best_first([(5.0, 3), (0.0, 1)], 3, successors) == ((3,), 5.0)  # a source that is the goal
    assert best_first([(5.0, 3), (0.0, 2)], 3, successors) == ((2, 3), 3.0)
    assert best_first([(0.0, 1)], 4, successors) == ((), math.inf)
    assert best_first([(0.0, 1)], 3, successors, closed={2}) == ((), math.inf)
    assert best_first([(0.0, 1), (1.0, 2)], 3, successors, closed={2}) == ((), math.inf)  # a closed source


def test_aco_is_deterministic(graph):
    a = aco_run(graph, AcoParams(seed=9))
    b = aco_run(graph, AcoParams(seed=9))
    assert a == b  # every field: the route, its cost and both curves
    assert a.best_curve == b.best_curve and a.mean_curve == b.mean_curve


def test_aco_curves_well_formed(graph):
    params = AcoParams(seed=3)
    res = aco_run(graph, params)
    assert len(res.best_curve) == params.generations
    assert len(res.mean_curve) == params.generations
    for earlier, later in zip(res.best_curve, res.best_curve[1:]):
        assert later <= earlier
    for best, mean in zip(res.best_curve, res.mean_curve):
        assert best <= mean + 1e-12
    assert res.cost == res.best_curve[-1]


def test_aco_finds_builtin_optimum(graph):
    res = aco_run(graph, AcoParams(seed=1))
    assert res.chromosome == OPTIMUM_CHROMOSOME
    assert res.nodes == OPTIMUM_NODES
    assert res.cost == OPTIMUM_COST


def test_aco_result_decodes_consistently(graph):
    res = aco_run(graph, AcoParams(seed=4))
    nodes, cost = decode_and_cost(res.bits, graph)
    assert nodes == res.nodes and cost == res.cost
    assert res.nodes[0] == 1 and res.nodes[-1] == 15


def _pinned_graphs():
    yield builtin_graph()
    for n in (3, 5, 40):
        rng = random.Random(n)
        edges = [
            (i, j, float(rng.randint(1, 99)))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.4
        ]
        yield graph_from_edges(n, edges, no_edge=1e6)


def test_aco_bits_are_pinned():
    # One digest over every field of 60 runs.  It was computed with each coin
    # drawn by random.randint(0, 1), so it fails if aco_run's coins ever leave
    # that stream, or if a CPython release changes the draw randint makes.
    # p0=0.0 makes every move global, p0=2.0 every move local (the forced
    # flip included).
    digest = hashlib.sha256()
    for g in _pinned_graphs():
        for seed in range(1, 6):
            for params in (
                AcoParams(seed=seed),
                AcoParams(ants=7, generations=13, p0=0.0, seed=seed),
                AcoParams(ants=7, generations=13, p0=2.0, seed=seed),
            ):
                digest.update(repr(aco_run(g, params)).encode())
    assert digest.hexdigest() == "4763b2b5190a51644ca1efb1f06969a390423719f03e9baa5c376a95f4936702"


@pytest.mark.parametrize("n, edges", [(1, []), (2, [(1, 2, 5.0)])], ids=["one-node", "two-node"])
def test_aco_runs_on_a_graph_without_free_bits(n, edges):
    # no bit lies between the first and the last, so a move has none to flip:
    # a local move (p0=2.0) skips its forced flip, and a global move redraws nothing
    cost = sum(w for _, _, w in edges)
    for p0 in (0.0, 2.0):
        res = aco_run(graph_from_edges(n, edges), AcoParams(ants=3, generations=2, p0=p0))
        assert res.bits == (1,) * n and res.nodes == tuple(range(1, n + 1)) and res.cost == cost
        assert res.best_curve == res.mean_curve == (cost, cost)


@pytest.mark.parametrize("no_edge", [math.inf, math.nan], ids=["inf", "nan"])
def test_aco_rejects_a_sentinel_that_is_not_finite(no_edge):
    # an infinite sentinel would start mean_curve at inf and turn the pheromones to nan
    g = graph_from_edges(3, [(1, 2, 5.0)], no_edge=no_edge)
    with pytest.raises(ValueError, match="aco_run needs a finite no-edge sentinel"):
        aco_run(g, AcoParams(ants=3, generations=2))


def test_aco_rejects_an_empty_graph():
    # a graph of no node has no first and last bit to set
    with pytest.raises(ValueError, match="aco_run needs a graph of at least one node, got an empty graph"):
        aco_run(graph_from_edges(0, []), AcoParams(ants=2, generations=1))


def test_aco_scores_through_the_module_name(graph, monkeypatch):
    # the answer is the one chromosome a run decodes through the module name
    # aco.decode_and_cost; a global move adds its hops as it draws its bits,
    # and a local move decodes (_route_cost) only a chromosome not seen before
    answers: list = []
    routes: list[tuple] = []
    route_cost = arcplan.aco._route_cost

    def counted_decode(bits, g):
        answers.append(bits)
        return decode_and_cost(bits, g)

    def counted_route_cost(nodes, hops):
        routes.append(tuple(nodes))
        return route_cost(nodes, hops)

    monkeypatch.setattr(arcplan.aco, "decode_and_cost", counted_decode)
    monkeypatch.setattr(arcplan.aco, "_route_cost", counted_route_cost)
    res = aco_run(graph, AcoParams())
    assert answers == [res.bits]
    assert routes[-1] == res.nodes  # the answer's decode
    decoded = routes[:-1]
    assert decoded and len(set(decoded)) == len(decoded)  # no chromosome decoded twice
    assert all(r[0] == 1 and r[-1] == 15 for r in decoded)  # each with both ends set
    # of the 50 * (100 + 1) = 5,050 chromosomes the run scores, the initial
    # colony and the local moves hold 324 distinct ones that need a decode
    assert len(decoded) == 324


def _reference_graph(rng: random.Random):
    """1-18 nodes with non-integer weights, some of them inf, nan, negative or
    above the sentinel, so that a hop charged or added otherwise shows."""
    n = rng.randint(1, 18)
    no_edge = rng.choice([NO_EDGE, 60.5])
    specials = [math.inf, -math.inf, math.nan, 1.5 * no_edge, no_edge, -2.25]
    edges = [
        (i, j, rng.choice(specials) if rng.random() < 0.15 else rng.uniform(0.1, 99.9))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.6
    ]
    return graph_from_edges(n, edges, no_edge=no_edge)


def test_aco_run_matches_the_reference():
    # every field of every run, bit for bit, against the colony that copied a
    # bit list per move; ants=1 keeps t_best at 0, where the branch test must
    # read a transfer probability of 1.0 (local for p0 > 1)
    cases = itertools.product((-0.5, 0.0, 0.2, 1.0, 2.0), (0.0, 0.8, 1.0), range(1, 9))
    for seed, (p0, evaporation, ants) in enumerate(cases):
        rng = random.Random(seed)
        g = _reference_graph(rng)
        params = AcoParams(ants=ants, generations=rng.randint(0, 30), p0=p0, evaporation=evaporation, seed=seed)
        assert repr(aco_run(g, params)) == repr(oracles.reference_aco_run(g, params)), (g.node_count, params)
    g = builtin_graph()
    for seed in (1, 2):
        params = AcoParams(seed=seed)
        assert repr(aco_run(g, params)) == repr(oracles.reference_aco_run(g, params))


@pytest.mark.parametrize("chromosome", ["1" * 20, "1101"], ids=["too-long", "too-short"])
def test_decode_rejects_a_chromosome_of_the_wrong_length(graph, chromosome):
    with pytest.raises(ValueError, match=f"chromosome has {len(chromosome)} bits for a graph of 15 nodes"):
        decode_and_cost(bits_from_string(chromosome), graph)
