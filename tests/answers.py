"""Write the planner's answers to a fixed query set, for diffing two checkouts.

    python tests/answers.py OUT.json [--repo DIR]

A sweep (tests/sweep.py).  The queries: O->A/B/C on the builtin scene, 69
random pairs on it for each of seeds 1-3, the 80 cold scenes of each of
seeds 1-2 with their one query each
(the exact engine throughout), colony-engine plans O->A/B/C for colony
seeds 1-3, exact queries from O to 40 goals drawn uniformly over the
builtin field by random.Random(4) with no clearance filter, so that the
endpoint check's rejections are among them, and aco_run on the 15-node graph
for colony seeds 1-3: 422 answers.  Each query answer is its verdict (the
plan, RouteInfeasible with its blockers, or RequestError with its message),
repr(length), the corners and the format_plan_report text.  A colony
plan and each aco_run also record the colony's chromosome, repr(cost) and a
SHA-256 of repr((best_curve, mean_curve)), so the random stream is compared
too, not only the routes it leads to.  Prints the answer count and a SHA-256
digest of OUT; two checkouts give the same answers iff the files are equal.
Times nothing.  tests/bounds.py brackets the same exact queries
(exact_queries).
"""

from __future__ import annotations

import hashlib
import random

import sweep

GOALS = 40  # exact queries from O to goals drawn uniformly over the builtin field


def colony(res) -> dict:
    curves = repr((res.best_curve, res.mean_curve)).encode()
    return {"chromosome": res.chromosome, "cost": repr(res.cost), "curves_sha256": hashlib.sha256(curves).hexdigest()}


def answer(arc, scene, start, goal, engine="exact", seed=1) -> dict:
    query = {"from": list(start), "to": list(goal), "engine": engine, "seed": seed}
    plan = sweep.plan(arc, scene, start, goal, engine, seed)
    if isinstance(plan, arc.planner.RouteInfeasible):
        return {**query, "verdict": "infeasible", "blockers": list(plan.blockers)}
    if isinstance(plan, arc.planner.RequestError):
        return {**query, "verdict": "request error", "message": str(plan)}
    out = {
        **query,
        "verdict": "plan",
        "length": repr(plan.length),
        "corners": [[*c.center, c.radius, c.turn.value] for c in plan.corners],
        "report": arc.sceneio.format_plan_report(f"{start} -> {goal}", plan),
    }
    if engine == "aco":
        out["aco"] = colony(plan.aco) if plan.aco is not None else None
    return out


def exact_queries(arc, inputs) -> list[tuple]:
    """(scene, start, goal) of the 410 exact queries: O->A/B/C, the random
    pairs of seeds 1-3, the cold scenes of seeds 1-2 and, last, O to the
    GOALS goals."""
    scene = arc.geometry.builtin_scene()
    builtin = arc.sceneio.scene_to_dict(scene)
    origin = tuple(arc.planner.KNOWN_TARGETS["O"])
    queries = [(scene, origin, tuple(arc.planner.KNOWN_TARGETS[t])) for t in "ABC"]
    for seed in (1, 2, 3):
        queries += [(scene, a, b) for a, b in inputs.random_pairs(builtin, seed, 69)]
    for seed in (1, 2):
        for req in inputs.cold_scenes(seed, 80):
            queries.append((arc.sceneio.scene_from_dict(req["scene_dict"]), req["from"], req["to"]))
    rng = random.Random(4)
    w, h = scene.bounds
    return queries + [(scene, origin, (rng.uniform(0, w), rng.uniform(0, h))) for _ in range(GOALS)]


def collect(arc, inputs, _oracle) -> list[dict]:
    queries = exact_queries(arc, inputs)
    scene, origin, _ = queries[0]
    out = [answer(arc, *q) for q in queries[:-GOALS]]
    for seed in (1, 2, 3):
        out += [answer(arc, scene, origin, tuple(arc.planner.KNOWN_TARGETS[t]), "aco", seed) for t in "ABC"]
    out += [answer(arc, *q) for q in queries[-GOALS:]]
    graph = arc.aco.builtin_graph()
    out += [{"graph": "builtin", "seed": s, "aco": colony(arc.aco.aco_run(graph, arc.aco.AcoParams(seed=s)))} for s in (1, 2, 3)]
    return out


def summary(answers: list, text: str, _seconds) -> None:
    print(f"{len(answers)} answers, sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    raise SystemExit(sweep.run(__doc__, collect, summary))
