"""Benchmark acceptance gate.

Every criterion prints exactly one line and then asserts, so a red criterion
is visible both ways.  Capture is suspended for the whole module (pytest's
default fd capture would otherwise swallow the lines on green runs).
"""

import math
import sys
import time

import pytest

import oracles
from arcplan.aco import AcoParams, aco_run, builtin_graph, dijkstra_shortest
from arcplan.cli import main
from arcplan.geometry import Point, Scene, builtin_scene
from arcplan.paths import (
    Arc,
    TurningCircle,
    Turn,
    max_turn_speed,
    solve_corner,
)
from arcplan.planner import KNOWN_TARGETS, RouteRequest, plan_route
from test_planner import corner_disc_scene, oracle

O, A, B = KNOWN_TARGETS["O"], KNOWN_TARGETS["A"], KNOWN_TARGETS["B"]


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is None:
        print(line, file=sys.__stdout__, flush=True)
    else:
        with _CAPTURE.disabled():
            print(line, flush=True)
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_shortest_route_to_a(scene, expected):
    want = expected["corner_oa"]
    t0 = time.perf_counter()
    plan = plan_route(RouteRequest(O, A, scene))
    elapsed = time.perf_counter() - t0
    arc = plan.path.segments[1]
    entry_off = math.dist(arc.start, want["entry"])
    exit_off = math.dist(arc.end, want["exit"])
    ok = (
        abs(plan.length - want["total"]) <= want["total_tol"]
        and entry_off <= want["point_tol"]
        and exit_off <= want["point_tol"]
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"O->A length {plan.length:.4f} (want {want['total']}±{want['total_tol']}), "
        f"tangent offsets {entry_off:.4f}/{exit_off:.4f} (tol {want['point_tol']}), "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_first_corner_to_b(expected):
    want = expected["corner_ob3"]
    sol = solve_corner(Point(*want["start"]), Point(*want["end"]), Point(*want["center"]), want["radius"])
    live = oracles.corner_descent(tuple(want["start"]), tuple(want["end"]), tuple(want["center"]), want["radius"], grid=8)
    first = sol.segments[0].length
    ok = (
        abs(sol.length - live) <= want["oracle_tol"]
        and abs(sol.length - want["oracle_total"]) <= want["oracle_tol"]
        and abs(sol.length - want["total"]) <= want["total_tol"]
        and abs(first - want["first_line"]) <= want["first_line_tol"]
    )
    report(
        2,
        ok,
        f"corner total {sol.length:.4f} vs descent {live:.4f} (tol {want['oracle_tol']}) "
        f"and {want['total']}±{want['total_tol']}; first line {first:.4f} "
        f"(want {want['first_line']}±{want['first_line_tol']})",
    )


def test_criterion_3_chained_route_to_b(scene, expected):
    want = expected["chain_ob"]
    t0 = time.perf_counter()
    plan = plan_route(RouteRequest(O, B, scene))
    elapsed = time.perf_counter() - t0
    turns = [1 if t == "ccw" else -1 for t in want["turns"]]
    corners = [(cx, cy, t) for (cx, cy), t in zip(want["centers"], turns)]
    live = oracles.chain_length(tuple(want["start"]), corners, tuple(want["end"]), 10.0)
    centers = [list(c.center) for c in plan.corners]
    ok = (
        abs(plan.length - want["total"]) <= want["total_tol"]
        and abs(plan.length - live) <= 1e-6
        and centers == want["centers"]
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"O->B length {plan.length:.4f} (want {want['total']}±{want['total_tol']}, "
        f"oracle {live:.4f}±1e-6), {len(centers)} corners, {elapsed * 1000:.0f} ms",
    )


def test_criterion_4_graph_optimum(graph, expected):
    want = expected["graph_optimum"]
    nodes, cost = dijkstra_shortest(graph, 1, 15)
    routes = oracles.exhaustive_routes([list(r) for r in graph.weights], graph.no_edge, 1, 15)
    ok = (
        list(nodes) == want["path"]
        and cost == want["cost"]
        and routes[0] == (cost, nodes)
    )
    report(
        4,
        ok,
        f"dijkstra {'-'.join(map(str, nodes))} cost {cost:g}; exhaustive scan of "
        f"{len(routes)} simple routes agrees",
    )


def test_criterion_5_colony_convergence(graph, expected):
    want = expected["graph_optimum"]
    t0 = time.perf_counter()
    hits, monotone, failing = 0, True, []
    for seed in range(1, 21):
        res = aco_run(graph, AcoParams(seed=seed))
        if res.chromosome == want["chromosome"] and res.cost == want["cost"]:
            hits += 1
        else:
            failing.append(seed)
        if any(b > a for a, b in zip(res.best_curve, res.best_curve[1:])):
            monotone = False
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and monotone and elapsed < 30.0
    report(
        5,
        ok,
        f"{hits}/20 seeds reached chromosome {want['chromosome']} cost {want['cost']:g} "
        f"(misses: {failing or 'none'}), best curves nonincreasing: {monotone}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_6_speed_law(expected):
    want = expected["speed_law"]
    v10 = max_turn_speed(10.0)
    exact_half = v10 == want["at_10"]
    grid = [i * 0.1 for i in range(1, 1001)]
    vals = [max_turn_speed(rho) for rho in grid]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    v100_ok = abs(vals[-1] - want["at_100"]) <= want["at_100_tol"]
    ok = exact_half and monotone and v100_ok
    report(
        6,
        ok,
        f"v(10)={v10} (exactly {want['at_10']}: {exact_half}), nondecreasing on "
        f"1000-point grid: {monotone}, v(100)={vals[-1]} within {want['at_100_tol']:g} "
        f"of {want['at_100']}: {v100_ok}",
    )


def test_criterion_7_property_suite(scene):
    # a) line/arc junctions are tangent and b) half-unit sampling keeps
    # clearance, judged with the rest of a correct route by perfbench's
    # check_route on each segment's plain fields, not by arcplan's own checks;
    # on the corner-disc scene the shortest route that keeps clearance on its
    # legs alone turns around the wall's corner within 10 of the disc
    faults = {}
    for name, sc, start, goal in (("O->A", scene, O, A), ("O->B", scene, O, B),
                                  ("disc", corner_disc_scene(), Point(86, 130), Point(140, 200))):
        plan = plan_route(RouteRequest(start, goal, sc))
        faults[name] = oracle.check_route(oracles.route(plan.path), start, goal, oracles.scene_obstacles(sc),
                                          sc.clearance, plan.length)
    ok_ab = not any(faults.values())
    verdicts = ", ".join(f"{name} {fault or 'ok'}" for name, fault in faults.items())

    # c) closed form equals numeric descent on 100 random corner problems
    worst_c = 0.0
    for s, e, c, r in oracles.random_corner_problems(100, seed=7):
        sol = solve_corner(Point(*s), Point(*e), Point(*c), r)
        num = oracles.corner_descent(s, e, c, r, grid=4)
        if not math.isfinite(num) or abs(sol.length - num) > 1e-6:
            num = oracles.corner_descent(s, e, c, r, grid=8)
        worst_c = max(worst_c, abs(sol.length - num))
    ok_c = worst_c <= 1e-6

    # d) chord length identity on 1000 random arcs below a half turn
    import random

    rng = random.Random(99)
    worst_d = 0.0
    for _ in range(1000):
        r = rng.uniform(0.5, 50.0)
        a0 = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(1e-4, math.pi - 1e-4)
        turn = Turn.CCW if rng.random() < 0.5 else Turn.CW
        a1 = a0 + turn.sign * theta
        circle = TurningCircle(Point(rng.uniform(-100, 100), rng.uniform(-100, 100)), r, turn)
        arc = Arc(circle, a0, a1)
        chord = math.dist(arc.start, arc.end)
        worst_d = max(worst_d, abs(chord - 2.0 * r * math.sin(theta / 2.0)))
    ok_d = worst_d <= 1e-9

    # e) an empty scene plans the exact straight segment
    empty = Scene(bounds=(900.0, 900.0))
    s, g = Point(17.0, 23.0), Point(842.0, 618.5)
    straight = plan_route(RouteRequest(s, g, empty))
    ok_e = straight.length == math.dist(s, g) and straight.corners == ()

    ok = ok_ab and ok_c and ok_d and ok_e
    report(
        7,
        ok,
        f"check_route {verdicts} (a, b:{ok_ab}), "
        f"descent worst {worst_c:.2e} (c:{ok_c}), chord worst {worst_d:.2e} (d:{ok_d}), "
        f"empty-scene exact: {ok_e}",
    )


def test_criterion_8_deterministic_reports(capsys, tmp_path):
    commands = [
        ("plan",),
        ("plan", "--to", "B"),
        ("plan", "--engine", "aco", "--seed", "5"),
        ("aco", "--seed", "2"),
        ("enumerate", "--to", "B", "--top", "3"),
        ("verify",),
    ]
    stable = True
    for argv in commands:
        runs = []
        for _ in range(2):
            rc = main(list(argv))
            out = capsys.readouterr().out
            runs.append((rc, out.encode()))
        if runs[0] != runs[1]:
            stable = False
    svg_bytes = []
    for path in (tmp_path / "a.svg", tmp_path / "b.svg"):
        rc = main(["export-svg", "--to", "B", "--out", str(path)])
        capsys.readouterr()
        svg_bytes.append((rc, path.read_bytes()))
    stable = stable and svg_bytes[0] == svg_bytes[1]
    report(8, stable, f"{len(commands)} commands plus SVG export byte-identical on repeat runs")
