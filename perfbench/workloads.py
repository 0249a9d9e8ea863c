"""The three workloads: how each builds its requests, sets up arcplan, runs
one request through arcplan's public API and checks the answer.

A request is a plain dict:

    {"kind": "plan", "from": (x, y), "to": (x, y), "engine": "exact" | "aco", "seed": s, "target": "A"}
    {"kind": "cli", "scene": FILE, "from": (x, y), "to": (x, y), "out": FILE, "svg": FILE}
    {"kind": "colony", "seed": s}   # aco_run on the 15-node graph, then colony plans O->A, O->B, O->C
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import inputs
import oracle

MODULES = ("geometry", "paths", "aco", "planner", "sceneio", "cli")


def load_arcplan(root: str, fresh: bool = False) -> SimpleNamespace:
    """Import arcplan from ``root/src``.  With `fresh`, drop any earlier import
    first, so module-level caches start empty."""
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    if fresh:
        for name in [m for m in sys.modules if m == "arcplan" or m.startswith("arcplan.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module(f"arcplan.{name}") for name in MODULES}
    here = os.path.realpath(mods["cli"].__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"arcplan was imported from {here}, not from {src}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# running one request


def setup(arc, workload: str) -> SimpleNamespace:
    """What a workload loads before its first request (timed as set-up)."""
    state = SimpleNamespace(scene=None, graph=None)
    if workload in ("warm_queries", "colony"):
        state.scene = arc.geometry.builtin_scene()
    if workload == "colony":
        state.graph = arc.aco.builtin_graph()
    return state


def _coords(p) -> str:
    return f"{p[0]!r},{p[1]!r}"


def execute(arc, state, req: dict):
    """Run one request.  Exceptions propagate to the caller, which times them."""
    kind = req["kind"]
    if kind == "plan":
        params = arc.aco.AcoParams(seed=req["seed"]) if req["engine"] == "aco" else None
        point = arc.geometry.Point
        request = arc.planner.RouteRequest(
            point(*req["from"]), point(*req["to"]), state.scene, engine=req["engine"], aco_params=params
        )
        return arc.planner.plan_route(request)
    if kind == "colony":
        answers = [arc.aco.aco_run(state.graph, arc.aco.AcoParams(seed=req["seed"]))]
        for target in req["targets"]:
            answers.append(execute(arc, state, target))
        return answers
    if kind == "cli":
        argv = ["plan", "--scene", req["scene"], "--from", _coords(req["from"]), "--to", _coords(req["to"]),
                "--out", req["out"], "--svg", req["svg"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = arc.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    raise ValueError(f"unknown request kind {kind!r}")


# ---------------------------------------------------------------------------
# checking one answer


@dataclass
class Outcome:
    status: str                       # "ok" | "failed" (no answer) | "wrong" (a bad answer)
    detail: str = ""
    excess: tuple = ()                # length / stored optimum - 1, for each answer with a stored optimum


def _plan_segments(plan) -> list:
    segs = []
    for seg in plan.path.segments:
        if hasattr(seg, "circle"):
            c = seg.circle
            sign = 1.0 if c.turn.value == "ccw" else -1.0
            segs.append(("arc", tuple(c.center), c.radius, sign, seg.start_angle, seg.end_angle))
        else:
            segs.append(("line", tuple(seg.a), tuple(seg.b)))
    return segs


def _dict_segments(plan_dict: dict) -> list:
    segs = []
    for s in plan_dict["segments"]:
        if s["type"] == "arc":
            sign = 1.0 if s["turn"] == "ccw" else -1.0
            segs.append(("arc", tuple(s["center"]), s["radius"], sign, s["start_angle"], s["end_angle"]))
        else:
            segs.append(("line", tuple(s["start"]), tuple(s["end"])))
    return segs


def check(checker: "Checker", req: dict, result, error: Optional[BaseException]) -> Outcome:
    if error is not None:
        kind = "infeasible" if type(error).__name__ == "RouteInfeasible" else type(error).__name__
        return Outcome("failed", f"{kind}: {error}")
    kind = req["kind"]
    if kind == "colony":
        colony, plans = result[0], result[1:]
        problem = oracle.check_graph_route(
            colony.nodes, colony.cost, checker.graph_weights, checker.graph_no_edge, 1, checker.graph_nodes
        )
        if problem:
            return Outcome("wrong", problem)
        excess = [colony.cost / oracle.GRAPH_OPTIMUM - 1.0]
        for target, plan in zip(req["targets"], plans):
            outcome = check(checker, target, plan, None)
            if outcome.status != "ok":
                return outcome
            excess += outcome.excess
        return Outcome("ok", excess=tuple(excess))
    if kind == "plan":
        problem = oracle.check_route(
            _plan_segments(result), req["from"], req["to"], checker.shapes, checker.clearance, result.length
        )
        if problem:
            return Outcome("wrong", problem)
        target = req.get("target")
        if target is None:
            return Outcome("ok")
        optimum = oracle.NAMED_OPTIMA[target]
        if req["engine"] == "exact" and abs(result.length - optimum) > oracle.OPTIMUM_TOL:
            return Outcome("wrong", f"O->{target} length {result.length:.4f}, stored optimum {optimum}")
        return Outcome("ok", excess=(result.length / optimum - 1.0,))
    code, stdout, stderr = result
    try:
        if code != 0:
            return Outcome("failed", f"exit {code}: {stderr.strip()}")
        with open(req["out"], encoding="utf-8") as fh:
            plan_dict = json.load(fh)
        with open(req["svg"], encoding="utf-8") as fh:
            svg = fh.read()
    finally:
        for path in (req["out"], req["svg"]):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    shapes = oracle.scene_shapes(req["scene_dict"])
    problem = oracle.check_route(
        _dict_segments(plan_dict), req["from"], req["to"], shapes, req["scene_dict"]["clearance"],
        plan_dict["length"],
    )
    if problem:
        return Outcome("wrong", problem)
    if f"total length {plan_dict['length']:.4f}\n" not in stdout:
        return Outcome("wrong", "report and JSON disagree on the length")
    if not svg.startswith("<svg") or 'id="route"' not in svg:
        return Outcome("wrong", "SVG has no route")
    return Outcome("ok")


@dataclass
class Checker:
    """Reference data the checks need, read once from arcplan's public data."""

    shapes: list
    clearance: float
    graph_weights: tuple
    graph_no_edge: float
    graph_nodes: int


def make_checker(arc) -> Checker:
    scene = arc.sceneio.scene_to_dict(arc.geometry.builtin_scene())
    graph = arc.aco.builtin_graph()
    return Checker(oracle.scene_shapes(scene), scene["clearance"], graph.weights, graph.no_edge, graph.node_count)


# ---------------------------------------------------------------------------
# inputs per workload

NAMED_QUERIES = ("A", "B", "C")
RANDOM_PAIRS_MIN = 24     # the seed-3 recipe set is the first 24 pairs; it holds the known false infeasible
# Requests a run times per second of --seconds.  Set from the median request
# time at the seed commit on a 2-vCPU host, about 0.8 of what fits, so a run's
# timed work takes about --seconds there; the rest is checks and cold starts.
# A run's request list is fixed by the seed and this rate, never by the clock,
# so two runs with one seed attempt exactly the same requests.
TIMED_PER_SECOND = {"warm_queries": 2.4, "cold_scenes": 2.6, "colony": 1.1}
COLD_START_COLONY_SEED = 1


@dataclass
class Inputs:
    warmup: dict           # run once, untimed, before each pass
    requests: list         # the timed requests, in order, all distinct
    first: dict            # the request of every fresh-interpreter cold start
    files: bool = False    # cold scenes: each pass writes its own scene files

    def for_pass(self, directory: str) -> tuple[dict, list]:
        """The warm-up and timed requests of one pass, with any files they
        read written afresh under `directory`, so no pass reuses another's."""
        if not self.files:
            return self.warmup, self.requests
        written = inputs.write_scenes([self.warmup] + self.requests, directory)
        return written[0], written[1:]


def make_inputs(arc, workload: str, seed: int, count: int, tmpdir: str) -> Inputs:
    """`count` distinct timed requests (more where a workload needs them)."""
    origin = tuple(arc.planner.KNOWN_TARGETS["O"])
    builtin = arc.sceneio.scene_to_dict(arc.geometry.builtin_scene())
    named = [{"kind": "plan", "from": origin, "to": tuple(arc.planner.KNOWN_TARGETS[t]),
              "engine": "exact", "seed": 1, "target": t} for t in NAMED_QUERIES]
    if workload == "warm_queries":
        pairs = inputs.random_pairs(builtin, seed, max(RANDOM_PAIRS_MIN, count - len(named)))
        requests = named + [{"kind": "plan", "from": a, "to": b, "engine": "exact", "seed": 1} for a, b in pairs]
        return Inputs(named[0], requests, named[0])
    if workload == "cold_scenes":
        rotation = len(inputs.COLD_OBSTACLE_COUNTS)
        requests = inputs.cold_scenes(seed, -(-count // rotation) * rotation + 1)
        # Every cold start plans O->A on the builtin scene, through a scene
        # file and cli.main like the timed requests: a fixed request, so
        # first_query_ms follows the program, not which random scene came first.
        reference = {"kind": "cli", "scene_dict": builtin, "from": origin,
                     "to": tuple(arc.planner.KNOWN_TARGETS["A"])}
        first = inputs.write_scenes([reference], os.path.join(tmpdir, "reference"))[0]
        return Inputs(requests[-1], requests[:-1], first, files=True)
    if workload == "colony":
        requests = [
            {"kind": "colony", "seed": s, "targets": [
                {"kind": "plan", "from": origin, "to": tuple(arc.planner.KNOWN_TARGETS[t]),
                 "engine": "aco", "seed": s, "target": t} for t in NAMED_QUERIES]}
            for s in inputs.colony_seeds(seed, count + 1) + [COLD_START_COLONY_SEED]
        ]
        # Every cold start runs the same colony seed, so first_query_ms does not
        # follow how many retries the seed's colony happens to need.
        return Inputs(requests[-2], requests[:-2], requests[-1])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("warm_queries", "cold_scenes", "colony")
