"""Bracket the planner's answers with two-sided length bounds, for diffing two checkouts.

    python tests/bounds.py OUT.json [--repo DIR]

A sweep (tests/sweep.py), with `oracles` and the query list from this
script's own checkout.  For each of
the 410 exact queries of tests/answers.py it plans the route and computes
oracles.length_bounds at step STEP, which uses none of arcplan's tangent,
clearance or arc code, and writes one verdict:

- inside: the route's length lies in [lower, upper];
- above: the route is longer than the upper bound, so not the shortest;
- below: the route is shorter than the lower bound, so it cuts into the
  clearance somewhere, or a bound is wrong;
- infeasible with a route: exit 3, though the upper bound is finite, so a
  route exists;
- infeasible: exit 3, with no path around the circumscribed polygons either;
- request error: the query is refused, and no bound is computed.

Prints the count of each verdict and writes every query's verdict, length
(null without a route) and bounds to OUT.  Exits 1 when some answer lies
below its lower bound and 0 otherwise: no correct route is shorter than the
lower bound, while routes above the bracket and false exit 3s are the
engine's known defects.
"""

from __future__ import annotations

import math

import answers
import oracles
import sweep

STEP = 0.3  # rad of envelope arc between polygon vertices
SLACK = 1e-9  # float noise allowed on either side of the bracket
VERDICTS = ("inside", "above", "below", "infeasible with a route", "infeasible", "request error")


def verdict(arc, scene, start, goal) -> dict:
    query = {"from": list(start), "to": list(goal)}
    plan = sweep.plan(arc, scene, start, goal)
    if isinstance(plan, arc.planner.RequestError):
        return {**query, "verdict": "request error"}
    length = None if isinstance(plan, arc.planner.RouteInfeasible) else plan.length
    lower, upper = oracles.length_bounds(scene, start, goal, STEP)
    if length is None:
        kind = "infeasible with a route" if upper < math.inf else "infeasible"
    else:
        kind = "below" if length < lower - SLACK else "above" if length > upper + SLACK else "inside"
    return {**query, "verdict": kind, "length": length, "lower": lower, "upper": upper}


def collect(arc, inputs, _oracle) -> list[dict]:
    return [verdict(arc, *q) for q in answers.exact_queries(arc, inputs)]


def summary(entries: list, _text, seconds: float) -> int:
    counts = {v: sum(e["verdict"] == v for e in entries) for v in VERDICTS}
    print(f"{len(entries)} queries: " + ", ".join(f"{n} {v}" for v, n in counts.items()) + f" ({seconds:.1f} s)")
    return 1 if counts["below"] else 0


if __name__ == "__main__":
    raise SystemExit(sweep.run(__doc__, collect, summary))
