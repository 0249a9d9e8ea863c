"""Write the planner's answers to a fixed query set, for diffing two checkouts.

    python tests/answers.py OUT.json [--repo DIR]

Imports arcplan from DIR/src and the seeded query generators from
DIR/perfbench (DIR defaults to the checkout holding this script).  The
queries: O->A/B/C on the builtin scene, 69 random pairs on it for each of
seeds 1-3, the 80 cold scenes of each of seeds 1-2 with their one query each
(the exact engine throughout), colony-engine plans O->A/B/C for colony
seeds 1-3, exact queries from O to 40 goals drawn uniformly over the
builtin field by random.Random(4) with no clearance filter, so that the
endpoint check's rejections are among them, and aco_run on the 15-node graph
for colony seeds 1-3: 422 answers.  Each query answer is its verdict (the
plan, RouteInfeasible with its blockers, or RequestError with its message),
repr(length), the node sequence and the format_plan_report text.  A colony
plan and each aco_run also record the colony's chromosome, repr(cost) and a
SHA-256 of repr((best_curve, mean_curve)), so the random stream is compared
too, not only the routes it leads to.  Prints the answer count and a SHA-256
digest of OUT; two checkouts give the same answers iff the files are equal.
Times nothing, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys


def colony(res) -> dict:
    curves = repr((res.best_curve, res.mean_curve)).encode()
    return {"chromosome": res.chromosome, "cost": repr(res.cost), "curves_sha256": hashlib.sha256(curves).hexdigest()}


def answer(arc, scene, start, goal, engine="exact", seed=1) -> dict:
    params = arc.aco.AcoParams(seed=seed) if engine == "aco" else None
    req = arc.planner.RouteRequest(arc.geometry.Point(*start), arc.geometry.Point(*goal), scene, engine, params)
    query = {"from": list(start), "to": list(goal), "engine": engine, "seed": seed}
    try:
        plan = arc.planner.plan_route(req)
    except arc.planner.RouteInfeasible as e:
        return {**query, "verdict": "infeasible", "blockers": list(e.blockers)}
    except arc.planner.RequestError as e:
        return {**query, "verdict": "request error", "message": str(e)}
    out = {
        **query,
        "verdict": "plan",
        "length": repr(plan.length),
        "nodes": list(plan.node_sequence),
        "report": arc.sceneio.format_plan_report(f"{start} -> {goal}", plan),
    }
    if engine == "aco":
        out["aco"] = colony(plan.aco) if plan.aco is not None else None
    return out


def collect(repo: str) -> list[dict]:
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import arcplan.aco
    import arcplan.geometry
    import arcplan.planner
    import arcplan.sceneio
    import inputs

    arc = arcplan
    scene = arc.geometry.builtin_scene()
    builtin = arc.sceneio.scene_to_dict(scene)
    named = {t: tuple(arc.planner.KNOWN_TARGETS[t]) for t in "OABC"}
    out = [answer(arc, scene, named["O"], named[t]) for t in "ABC"]
    for seed in (1, 2, 3):
        out += [answer(arc, scene, a, b) for a, b in inputs.random_pairs(builtin, seed, 69)]
    for seed in (1, 2):
        for req in inputs.cold_scenes(seed, 80):
            out.append(answer(arc, arc.sceneio.scene_from_dict(req["scene_dict"]), req["from"], req["to"]))
    for seed in (1, 2, 3):
        out += [answer(arc, scene, named["O"], named[t], "aco", seed) for t in "ABC"]
    rng = random.Random(4)
    w, h = scene.bounds
    out += [answer(arc, scene, named["O"], (rng.uniform(0, w), rng.uniform(0, h))) for _ in range(40)]
    graph = arc.aco.builtin_graph()
    out += [{"graph": "builtin", "seed": s, "aco": colony(arc.aco.aco_run(graph, arc.aco.AcoParams(seed=s)))} for s in (1, 2, 3)]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    answers = collect(os.path.abspath(args.repo))
    text = json.dumps(answers, indent=1) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{len(answers)} answers, sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
