"""Command-line front end.

Commands:
  plan        shortest route between two points (report + optional SVG/JSON)
  aco         seeded colony run on the builtin 15-node graph
  verify      check the build against the stored benchmark results
  export-svg  draw scene, hazard envelope and route
  enumerate   ranked alternative routes
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import Optional

from .aco import AcoParams, aco_run, bits_from_string, builtin_graph, decode_and_cost, dijkstra_shortest
from .geometry import Point, Scene, builtin_scene
from .paths import Turn, TurningCircle, chain_path, solve_corner
from .planner import (
    KNOWN_TARGETS,
    PlanResult,
    RequestError,
    RouteInfeasible,
    RouteRequest,
    enumerate_candidates,
    plan_route,
)
from . import sceneio


def _parse_point(text: str) -> Point:
    name = text.strip()
    if name.upper() in KNOWN_TARGETS:
        return KNOWN_TARGETS[name.upper()]
    try:
        x, y = (float(v) for v in name.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a named point ({'/'.join(KNOWN_TARGETS)}) or 'x,y', got {text!r}"
        ) from None
    return Point(x, y)


def _at_least(minimum: int, kind=int):
    """An argparse type: a finite int (or float) no less than minimum."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {noun} >= {minimum}, got {value}")
        return value

    return parse


@contextlib.contextmanager
def _writing(path: str):
    """A failure to write the output file `path` is a bad request (exit 2)."""
    try:
        yield
    except OSError as e:
        raise RequestError(f"cannot write {path}: {e.strerror or e}") from None


def _load_scene(arg: Optional[str]) -> Scene:
    if arg is None:
        return builtin_scene()
    return sceneio.load_scene(arg)


def _add_route_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", metavar="FILE", help="scene file (default: builtin 12-obstacle scene)")
    p.add_argument("--from", dest="src", type=_parse_point, default=KNOWN_TARGETS["O"],
                   metavar="NAME|X,Y", help="start point (default O)")
    p.add_argument("--to", dest="dst", type=_parse_point, default=KNOWN_TARGETS["A"],
                   metavar="NAME|X,Y", help="goal point (default A)")


def _add_colony_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_at_least(0), default=1)  # Random(-s) is Random(s)
    p.add_argument("--ants", type=_at_least(1), default=50)
    p.add_argument("--gens", type=_at_least(0), default=100)


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=("exact", "aco"), default="exact")
    _add_colony_args(p)


def _label(args) -> str:
    names = {v: k for k, v in KNOWN_TARGETS.items()}
    return " -> ".join(names.get(p, f"({p.x:g},{p.y:g})") for p in (args.src, args.dst))


@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcplan",
        description="Shortest line-and-arc paths for a point robot among fixed obstacles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute the shortest route")
    p_plan.set_defaults(run=_cmd_plan)
    _add_route_args(p_plan)
    _add_engine_args(p_plan)
    p_plan.add_argument("--out", metavar="FILE", help="write full-precision JSON result")
    p_plan.add_argument("--svg", metavar="FILE", help="write an SVG drawing")

    p_aco = sub.add_parser("aco", help="run the colony on the builtin 15-node graph")
    p_aco.set_defaults(run=_cmd_aco)
    _add_colony_args(p_aco)
    p_aco.add_argument("--out", metavar="FILE", help="write the convergence curve (gen best mean)")

    p_ver = sub.add_parser("verify", help="check this build against stored benchmark results")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--tolerance", type=_at_least(0, float), default=None,
                       help="override every check tolerance (units)")

    p_svg = sub.add_parser("export-svg", help="draw scene + envelope + route")
    p_svg.set_defaults(run=_cmd_export_svg)
    _add_route_args(p_svg)
    _add_engine_args(p_svg)
    p_svg.add_argument("--out", metavar="FILE", required=True)

    p_enum = sub.add_parser("enumerate", help="ranked alternative routes")
    p_enum.set_defaults(run=_cmd_enumerate)
    _add_route_args(p_enum)
    p_enum.add_argument("--top", type=_at_least(1), default=3, metavar="K")

    return parser


def _plan(args) -> tuple[Scene, PlanResult]:
    scene = _load_scene(args.scene)
    params = AcoParams(ants=args.ants, generations=args.gens, seed=args.seed)
    return scene, plan_route(RouteRequest(args.src, args.dst, scene, engine=args.engine, aco_params=params))


def _cmd_plan(args, stdout) -> int:
    scene, plan = _plan(args)
    stdout.write(sceneio.format_plan_report(_label(args), plan))
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            json.dump(sceneio.plan_to_dict(_label(args), plan), fh, indent=2)
            fh.write("\n")
    if args.svg:
        with _writing(args.svg):
            sceneio.write_svg(scene, plan.path, args.svg)
    return 0


def _cmd_aco(args, stdout) -> int:
    g = builtin_graph()
    res = aco_run(g, AcoParams(ants=args.ants, generations=args.gens, seed=args.seed))
    route = " -> ".join(str(n) for n in res.nodes)
    stdout.write(f"colony result (seed {args.seed}, {args.ants} ants, {args.gens} generations)\n")
    stdout.write(f"  chromosome: {res.chromosome}\n")
    stdout.write(f"  route: {route}\n")
    stdout.write(f"  cost: {res.cost:.4f}\n")
    if args.out:
        with _writing(args.out):
            sceneio.write_curve(res, args.out)
        stdout.write(f"  curve written to {args.out}\n")
    return 0


def _cmd_export_svg(args, stdout) -> int:
    scene, plan = _plan(args)
    with _writing(args.out):
        sceneio.write_svg(scene, plan.path, args.out)
    stdout.write(f"wrote {args.out} ({_label(args)}, length {plan.length:.4f})\n")
    return 0


def _cmd_enumerate(args, stdout) -> int:
    scene = _load_scene(args.scene)
    plans = enumerate_candidates(scene, args.src, args.dst, k=args.top)
    stdout.write(f"{len(plans)} route(s) {_label(args)}, shortest first:\n")
    for rank, plan in enumerate(plans, start=1):
        corners = ", ".join(f"({c.center.x:g},{c.center.y:g}){c.turn.value}" for c in plan.corners)
        stdout.write(f"  {rank}. length {plan.length:.4f}  time {plan.travel_time:.4f}  corners [{corners}]\n")
    return 0


def _cmd_verify(args, stdout) -> int:
    exp, scene, g = sceneio.load_expected(), builtin_scene(), builtin_graph()
    checks = []  # (name, ok, detail): none is written before every entry is read and computed

    def read(entry, key: str, convert=sceneio.read_number):
        """convert(entry[key], key), a scene file's number by default;
        SceneFormatError naming the fixture file and key if that fails."""
        try:
            return convert(entry[key], key)
        except (KeyError, TypeError, ValueError):
            raise sceneio.SceneFormatError(f"{sceneio.expected_path()}: {key!r} is missing or malformed") from None

    def near(name: str, got: float, e: dict, key: str, tol_key: str, places: int = 4) -> None:
        t = read(e, tol_key) if args.tolerance is None else args.tolerance
        checks.append((name, abs(got - read(e, key)) <= t, f"{got:.{places}f} vs {e[key]} (tol {t:g})"))

    # corner benchmarks
    for key in ("corner_oa", "corner_ob3"):
        e = read(exp, key, lambda v, _: dict(v))
        corner = (*(read(e, k, sceneio.read_point) for k in ("start", "end", "center")),
                  read(e, "radius", sceneio.read_size))  # a positive number, as a scene file's circle radius
        sol = read(exp, key, lambda *_: solve_corner(*corner))  # ChainingError: an end lies inside the circle
        first, last = sol.segments[0], sol.segments[-1]
        near(f"{key} total", sol.length, e, "total", "total_tol")
        near(f"{key} exact total", sol.length, e, "exact_total", "exact_tol", 9)
        if "oracle_total" in e:
            near(f"{key} oracle band", sol.length, e, "oracle_total", "oracle_tol")
        if "entry" in e:
            t = read(e, "point_tol") if args.tolerance is None else args.tolerance
            d1 = math.dist(first.b, read(e, "entry", sceneio.read_point))
            d2 = math.dist(last.a, read(e, "exit", sceneio.read_point))
            checks.append((f"{key} tangent points", max(d1, d2) <= t, f"offsets {d1:.5f}, {d2:.5f} (tol {t:g})"))
        if "first_line" in e:
            near(f"{key} first line", first.length, e, "first_line", "first_line_tol")

    # chained route benchmark
    e = read(exp, "chain_ob", lambda v, _: dict(v))
    centers = read(e, "centers", lambda v, name: [sceneio.read_point(c, name) for c in v])
    turns = read(e, "turns", lambda v, _: [Turn(t) for t in v])
    circles = tuple(TurningCircle(c, 10.0, t) for c, t in zip(centers, turns))
    start, end = read(e, "start", sceneio.read_point), read(e, "end", sceneio.read_point)
    path = read(exp, "chain_ob", lambda *_: chain_path(start, circles, end))
    near("chain_ob total", path.length, e, "total", "total_tol")
    near("chain_ob exact total", path.length, e, "exact_total", "exact_tol", 9)
    plan = plan_route(RouteRequest(start, end, scene))
    got_centers = [[float(v) for v in c.center] for c in plan.corners]  # as expected.json stores them
    checks.append(("chain_ob corner centers", got_centers == e["centers"], f"{got_centers}"))

    # planner benchmark: full O->A pipeline
    e = read(exp, "corner_oa", lambda v, _: dict(v))
    plan = plan_route(RouteRequest(read(e, "start", sceneio.read_point), read(e, "end", sceneio.read_point), scene))
    near("plan O->A total", plan.length, e, "total", "total_tol")

    # graph benchmarks
    e = read(exp, "graph_optimum", lambda v, _: dict(v))
    want_path, want_cost = read(e, "path", lambda v, _: list(v)), read(e, "cost")
    nodes, cost = dijkstra_shortest(g, 1, 15)
    checks.append(("graph optimum", list(nodes) == want_path and cost == want_cost,
                   f"{'-'.join(map(str, nodes))} cost {cost:g}"))
    dn, dc = read(e, "chromosome", lambda v, _: decode_and_cost(bits_from_string(v), g))
    checks.append(("chromosome decode", list(dn) == want_path and dc == want_cost,
                   f"{e['chromosome']} -> {'-'.join(map(str, dn))} cost {dc:g}"))

    failures = sum(not ok for _, ok, _ in checks)
    stdout.writelines(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n" for name, ok, detail in checks)
    stdout.write(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)\n")
    return 0 if failures == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (RequestError, sceneio.SceneFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RouteInfeasible as e:
        blockers = f" (blocking obstacles: {', '.join(map(str, e.blockers))})" if e.blockers else ""
        print(f"infeasible: {e}{blockers}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
