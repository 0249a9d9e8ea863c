"""Measure how the cost of a plan grows with the scene, for diffing two checkouts.

    python tests/scaling.py OUT.json [--repo DIR]

A sweep (tests/sweep.py); it needs `planner._legs`, `planner._corners` and
`planner._corner_row`.
For each size of 6, 12, 24, 48 and 96 obstacles, SCENES scenes drawn by
random.Random(size): perfbench/inputs' obstacle recipe, one obstacle in each
of `size` cells drawn from a grid of 160-unit cells, 5 x 5 (the cold scenes'
800-unit field) up to 25 obstacles and 10 x 10 (1600 units) beyond.  Each
scene gets one query by random_query's recipe, drawn over its whole field.

Per size it records, summed over the scenes, the deterministic counts of a
cold plan_route (a fresh Scene, so the corner rows its search expands are
built within it):
segment_clear calls (the start's and the goal's checks among them), the
exact obstacle distances they run, the anchor pairs that reach `_legs`,
the legs it tests (turn pairs, whether they have a tangent or not) and the
corner rows built (`_corner_row` calls on a row not yet built).  They are
counted by wrapping the module attributes, as the tests do.  It also
records the median time of a cold plan_route and of a warm one (the same
query again on the same Scene), timed without the wrappers, and how many
queries got no route.  The growth exponent of each figure is the
least-squares slope of its logarithm over log(size).

It also plans two queries with no route, built on the first scene of 96
obstacles (`sealed_queries`), and records for each the verdict, the same
counts of one cold plan_route and the median time of REPEATS more: the cost
of an exit 3, which no feasible query shows.  Prints the tables and writes
OUT; two runs of one checkout give the same counts, so a count diff between
checkouts is a same-work check.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import time

import sweep

SIZES = (6, 12, 24, 48, 96)
SCENES = 8  # per size
REPEATS = 3  # timed cold plans of each query with no route
COUNTS = ("segment_clear", "segment_distance", "pairs", "legs", "rows")


def scene_dict(inputs, rng: random.Random, obstacles: int) -> dict:
    cells = inputs.CELLS if obstacles <= inputs.CELLS ** 2 else 2 * inputs.CELLS
    cell = inputs.FIELD / inputs.CELLS
    size = cell - 2 * inputs.CELL_MARGIN
    entries = [
        inputs._obstacle(rng, oid, (c % cells) * cell + inputs.CELL_MARGIN, (c // cells) * cell + inputs.CELL_MARGIN, size)
        for oid, c in enumerate(rng.sample(range(cells * cells), obstacles), start=1)
    ]
    return {"bounds": [cells * cell] * 2, "clearance": inputs.CLEARANCE, "obstacles": entries}


def query(oracle, inputs, rng: random.Random, d: dict) -> tuple[tuple, tuple]:
    """Endpoints with clearance >= 10.5 anywhere in the field and no straight route between them."""
    shapes = oracle.scene_shapes(d)
    w, h = d["bounds"]

    def point():
        while True:
            p = (rng.uniform(0, w), rng.uniform(0, h))
            if oracle.point_clearance(p, shapes) >= inputs.POINT_CLEARANCE:
                return p

    while True:
        a, b = point(), point()
        if oracle.segment_clearance(a, b, shapes) < d["clearance"] - 1e-9:
            return a, b


def sealed_queries(inputs, oracle) -> list[tuple[str, dict, tuple, tuple]]:
    """(name, scene, start, goal) of two queries with no route, on the first
    scene of 96 obstacles (field W) and its query: the far corner closed by
    two 45 x 5 bars that touch at (W - 45, W - 45), with the goal inside it at
    (W - 15, W - 15), and a 5-wide bar from wall to wall at x = W / 2 between
    the query's own ends."""
    rng = random.Random(96)
    d = scene_dict(inputs, rng, 96)
    start, goal = query(oracle, inputs, rng, d)
    w, n = d["bounds"][0], len(d["obstacles"])

    def bar(i, x, y, width, height):
        return {"id": n + i, "kind": "rect", "anchor": [x, y], "width": width, "height": height}

    corner = [bar(1, w - 45, w - 50, 45, 5), bar(2, w - 50, w - 45, 5, 45)]
    return [("sealed corner", {**d, "obstacles": d["obstacles"] + corner}, start, (w - 15, w - 15)),
            ("barrier", {**d, "obstacles": d["obstacles"] + [bar(1, w / 2 - 2.5, 0, 5, w)]}, start, goal)]


def plan(arc, d: dict, start, goal, scene=None):
    """The Scene planned on (a fresh one unless given) and whether a route came back."""
    scene = arc.sceneio.scene_from_dict(d) if scene is None else scene
    return scene, not isinstance(sweep.plan(arc, scene, start, goal), Exception)


def counted(arc, counts: dict):
    """Wrap the counted module attributes; returns a function that undoes it."""
    planner, geometry = arc.planner, arc.geometry
    saved = [(planner, "segment_clear"), (geometry, "_segment_distance"), (planner, "_legs"), (planner, "_corner_row")]
    saved = [(module, name, getattr(module, name)) for module, name in saved]
    for (module, name, original), key in zip(saved[:2], COUNTS):
        def call(*args, _original=original, _key=key):
            counts[_key] += 1
            return _original(*args)
        setattr(module, name, call)
    legs, row = saved[2][2], saved[3][2]

    def counted_legs(*args):
        counts["pairs"] += 1
        for leg in legs(*args):
            counts["legs"] += 1
            yield leg

    def counted_row(scene, i):
        counts["rows"] += planner._corners(scene).rows[i] is None
        return row(scene, i)

    planner._legs, planner._corner_row = counted_legs, counted_row
    return lambda: [setattr(module, name, original) for module, name, original in saved]


def exponent(sizes, values) -> float | None:
    points = [(math.log(n), math.log(v)) for n, v in zip(sizes, values) if v > 0]
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def machine() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def collect(arc, inputs, oracle) -> dict:
    rows = []
    for size in SIZES:
        rng = random.Random(size)
        scenes = []
        for _ in range(SCENES):
            d = scene_dict(inputs, rng, size)
            scenes.append((d, *query(oracle, inputs, rng, d)))
        counts = dict.fromkeys(COUNTS, 0)
        undo = counted(arc, counts)
        try:
            routed = sum(plan(arc, d, start, goal)[1] for d, start, goal in scenes)
        finally:
            undo()
        cold, warm = [], []
        for d, start, goal in scenes:
            t = time.perf_counter()
            scene, _ = plan(arc, d, start, goal)
            cold.append(1e3 * (time.perf_counter() - t))
            t = time.perf_counter()
            plan(arc, d, start, goal, scene)
            warm.append(1e3 * (time.perf_counter() - t))
        rows.append({"obstacles": size, "field": d["bounds"][0], "scenes": SCENES, **counts,
                     "no_route": SCENES - routed, "cold_ms_p50": statistics.median(cold),
                     "warm_ms_p50": statistics.median(warm)})
    sealed = []
    for name, d, start, goal in sealed_queries(inputs, oracle):
        counts = dict.fromkeys(COUNTS, 0)
        undo = counted(arc, counts)
        try:
            _, routed = plan(arc, d, start, goal)
        finally:
            undo()
        cold = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            plan(arc, d, start, goal)
            cold.append(1e3 * (time.perf_counter() - t))
        sealed.append({"query": name, "obstacles": len(d["obstacles"]), "verdict": "route" if routed else "no route",
                       **counts, "cold_ms_p50": statistics.median(cold)})
    figures = (*COUNTS, "cold_ms_p50", "warm_ms_p50")
    return {"machine": machine(), "sizes": rows, "sealed": sealed,
            "exponents": {k: exponent(SIZES, [row[k] for row in rows]) for k in figures}}


def summary(record: dict, _text, _seconds) -> None:
    columns = ("obstacles", *COUNTS, "no_route", "cold_ms_p50", "warm_ms_p50")
    print(" ".join(f"{c:>16}" for c in columns))
    for row in record["sizes"]:
        print(" ".join(f"{row[c]:>16.2f}" if isinstance(row[c], float) else f"{row[c]:>16}" for c in columns))
    slopes = record["exponents"]
    print(f"{'exponent':>16} " + " ".join(f"{'-':>16}" if slopes.get(c) is None else f"{slopes[c]:>16.2f}"
                                          for c in columns[1:]))
    columns = ("query", "obstacles", "verdict", *COUNTS, "cold_ms_p50")
    print(" ".join(f"{c:>16}" for c in columns))
    for row in record["sealed"]:
        print(" ".join(f"{row[c]:>16.2f}" if isinstance(row[c], float) else f"{row[c]:>16}" for c in columns))
    print(record["machine"])


if __name__ == "__main__":
    raise SystemExit(sweep.run(__doc__, collect, summary))
