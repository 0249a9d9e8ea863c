"""The same-answer sweeps' one loader, one command line and one diff.

    python tests/<sweep>.py OUT.json [--repo DIR]   # write one checkout's record
    python tests/sweep.py BASE.json HEAD.json       # name every leaf that differs

A sweep (tests/answers.py, reports.py, bounds.py, relations.py, scaling.py,
colony_report.py) imports arcplan from DIR/src and perfbench's `inputs` and
`oracle` from DIR/perfbench (DIR defaults to the checkout holding the
script), writes its record to OUT as indented JSON and prints its summary.
The diff flattens both records to their leaves, each named by its path of
dict keys and list indices (`/17/length`; an empty list or dict is a leaf
too), prints how many leaves differ and then each one as
`path: base -> head`, long texts shortened by reprlib.  A file that is
missing, as when a base run crashed, is named and not diffed.  Both report
and exit 0.  Every sweep runs its queries through `plan`; tier-1 tests that
accept a verdict for an answer use it too, and load perfbench with `load`.
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(repo: str) -> tuple:
    """(arcplan with its modules imported, inputs, oracle) of the checkout at repo."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import arcplan.aco
    import arcplan.cli
    import arcplan.geometry
    import arcplan.planner
    import arcplan.sceneio
    import inputs
    import oracle

    return arcplan, inputs, oracle


def run(doc: str, collect, summary) -> int:
    """A sweep's command line: writes collect(*load(DIR)) to OUT and returns
    summary(record, text, seconds), its exit code (None for 0)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--repo", default=REPO)
    args = ap.parse_args()
    t = time.perf_counter()
    record = collect(*load(os.path.abspath(args.repo)))
    seconds = time.perf_counter() - t
    text = json.dumps(record, indent=1) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return summary(record, text, seconds) or 0


def plan(arc, scene, start, goal, engine: str = "exact", seed: int = 1, **aco):
    """plan_route's plan for the query, or the RouteInfeasible or RequestError
    it raised; any other exception propagates.  aco holds the colony's other
    AcoParams fields."""
    params = arc.aco.AcoParams(seed=seed, **aco) if engine == "aco" else None
    req = arc.planner.RouteRequest(arc.geometry.Point(*start), arc.geometry.Point(*goal), scene, engine, params)
    try:
        return arc.planner.plan_route(req)
    except (arc.planner.RouteInfeasible, arc.planner.RequestError) as e:
        return e


def leaves(node, path: str = "") -> dict:
    """{path: value} of every leaf under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = {k: v for key, child in items for k, v in leaves(child, f"{path}/{key}").items()}
    return out or {path or "/": node}


def typed(value) -> tuple:
    """A leaf as compared: 1, 1.0 and true write different files."""
    return type(value), value


def diff(base_path: str, head_path: str) -> int:
    records = []
    for path in (base_path, head_path):
        if not os.path.exists(path):
            print(f"{path}: missing")
            return 0
        with open(path, encoding="utf-8") as fh:
            records.append(leaves(json.load(fh)))
    base, head = records
    paths = {**base, **head}
    differ = [k for k in paths if k not in base or k not in head or typed(base[k]) != typed(head[k])]
    print(f"{len(differ)} of {len(paths)} leaves differ")
    for k in differ:
        b, h = (reprlib.repr(side[k]) if k in side else "absent" for side in (base, head))
        print(f"  {k}: {b} -> {h}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args()
    raise SystemExit(diff(args.base, args.head))
