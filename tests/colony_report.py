"""Report how well the colony does, as numbers, for diffing two checkouts.

    python tests/colony_report.py OUT.json [--repo DIR]

Imports arcplan from DIR/src and the seeded query generators from
DIR/perfbench (DIR defaults to the checkout holding this script).  Two parts:

- graph: aco_run with the default parameters on the 15-node graph for seeds
  1-100; the histogram of final costs, how many runs reach the exact optimum
  (dijkstra_shortest's cost, 637), and the generation of the first hit
  (median, p90 and max over the runs that reach it), read from best_curve;
- warm_pairs: the 207 random pairs of perfbench's warm_queries seeds 1-3 on
  the builtin scene, planned by the colony engine for colony seeds 1-3; per
  seed, how many plans the colony's proposal realized, how many fell back to
  the exact engine, how many have no route, and the excess of each realized
  plan over the exact engine's length.

The report is deterministic and times nothing: two checkouts whose colony
behaves the same write the same file.  Prints a summary line per part.
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

SEEDS = range(1, 101)  # aco_run seeds on the 15-node graph
COLONY_SEEDS = (1, 2, 3)
PAIR_SEEDS = (1, 2, 3)  # warm_queries seeds: 69 random pairs each
PAIRS_PER_SEED = 69
SLACK = 1e-9  # float noise below which a length difference is no excess


def load(repo: str):
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import arcplan.aco
    import arcplan.geometry
    import arcplan.planner
    import arcplan.sceneio
    import inputs

    return arcplan, inputs


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def graph_part(arc) -> dict:
    graph = arc.aco.builtin_graph()
    optimum = arc.aco.dijkstra_shortest(graph, 1, graph.node_count)[1]
    finals: dict[str, int] = {}
    first_hits = []
    for seed in SEEDS:
        res = arc.aco.aco_run(graph, arc.aco.AcoParams(seed=seed))
        finals[repr(res.cost)] = finals.get(repr(res.cost), 0) + 1
        hit = next((gen for gen, cost in enumerate(res.best_curve, 1) if cost == optimum), None)
        if hit is not None:
            first_hits.append(hit)
    return {
        "seeds": [SEEDS[0], SEEDS[-1]],
        "optimum": optimum,
        "final_costs": dict(sorted(finals.items(), key=lambda kv: float(kv[0]))),
        "reach_optimum": len(first_hits),
        "reach_share": len(first_hits) / len(SEEDS),
        "first_hit_generation": {
            "median": statistics.median(first_hits),
            "p90": p90(first_hits),
            "max": max(first_hits),
        } if first_hits else None,
    }


def plan(arc, scene, start, goal, engine: str, seed: int):
    """The planner's plan for the query, or None when it finds no route."""
    params = arc.aco.AcoParams(seed=seed) if engine == "aco" else None
    req = arc.planner.RouteRequest(arc.geometry.Point(*start), arc.geometry.Point(*goal), scene, engine, params)
    try:
        return arc.planner.plan_route(req)
    except arc.planner.RouteInfeasible:
        return None


def warm_part(arc, inputs) -> dict:
    scene = arc.geometry.builtin_scene()
    builtin = arc.sceneio.scene_to_dict(scene)
    pairs = [p for seed in PAIR_SEEDS for p in inputs.random_pairs(builtin, seed, PAIRS_PER_SEED)]
    exact = [plan(arc, scene, a, b, "exact", 1) for a, b in pairs]
    per_seed = {}
    for seed in COLONY_SEEDS:
        counts = {"colony": 0, "fallback": 0, "infeasible": 0}
        excess = []
        for (a, b), best in zip(pairs, exact):
            colony = plan(arc, scene, a, b, "aco", seed)
            if colony is None:
                counts["infeasible"] += 1
            elif colony.engine == "aco":
                counts["colony"] += 1
                excess.append(colony.length - best.length)
            else:
                counts["fallback"] += 1
        per_seed[str(seed)] = {
            **counts,
            "excess": {
                "longer": sum(e > SLACK for e in excess),
                "shorter": sum(e < -SLACK for e in excess),
                "max": max(excess, default=0.0),
                "mean": math.fsum(excess) / len(excess) if excess else 0.0,
            },
        }
    return {"pairs": len(pairs), "pair_seeds": list(PAIR_SEEDS), "colony_seeds": per_seed}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    arc, inputs = load(os.path.abspath(args.repo))
    report = {"graph": graph_part(arc), "warm_pairs": warm_part(arc, inputs)}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")
    g = report["graph"]
    print(f"15-node graph, seeds {g['seeds'][0]}-{g['seeds'][1]}: {g['reach_optimum']} reach {g['optimum']:g};"
          f" final costs {g['final_costs']}; first hit {g['first_hit_generation']}")
    for seed, row in report["warm_pairs"]["colony_seeds"].items():
        print(f"warm pairs, colony seed {seed}: colony {row['colony']}, fallback {row['fallback']},"
              f" infeasible {row['infeasible']}; excess {row['excess']}")


if __name__ == "__main__":
    main()
