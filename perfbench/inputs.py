"""Seeded input generators.  The same seed always gives the same inputs.

Accept/reject decisions use the benchmark's own geometry (oracle.py), never
arcplan, so arcplan receives only the generated inputs.
"""

from __future__ import annotations

import json
import os
import random

from oracle import point_clearance, scene_shapes, segment_clearance

FIELD = 800.0
CLEARANCE = 10.0
POINT_CLEARANCE = 10.5            # endpoint clearance of every random query
# Largest first: the first request of a run, which the cold starts time, is then
# the scene size whose latency varies least from scene to scene.
COLD_OBSTACLE_COUNTS = (24, 18, 12, 6)
CELLS = 5                         # cold scenes place one obstacle per cell of a 5x5 grid
CELL_MARGIN = 25.0                # so corridors between obstacles stay >= 50 wide


def random_pairs(scene_dict: dict, seed: int, count: int) -> list[tuple[tuple, tuple]]:
    """The roadmap recipe: uniform points with clearance >= 10.5, paired
    (0,1), (2,3), ...; only pairs without a straight route are kept.

    Points are drawn until `count` pairs are kept, so the first 60 points are
    the recipe's 60-point set.  Nothing else is filtered: queries the planner
    fails on stay in the set.
    """
    shapes = scene_shapes(scene_dict)
    w, h = scene_dict["bounds"]
    rng = random.Random(seed)

    def point():
        while True:
            p = (rng.uniform(0, w), rng.uniform(0, h))
            if point_clearance(p, shapes) >= POINT_CLEARANCE:
                return p

    pairs = []
    while len(pairs) < count:
        a, b = point(), point()
        if segment_clearance(a, b, shapes) < scene_dict["clearance"] - 1e-9:
            pairs.append((a, b))
    return pairs


def _obstacle(rng: random.Random, oid: int, x0: float, y0: float, size: float) -> dict:
    """One obstacle inside the square [x0, x0 + size]^2."""
    kind = rng.choice(("rect", "circle", "triangle", "parallelogram"))

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    if kind == "rect":
        w, h = u(25, size), u(25, size)
        return {"id": oid, "kind": kind, "anchor": [u(x0, x0 + size - w), u(y0, y0 + size - h)],
                "width": w, "height": h}
    if kind == "circle":
        r = u(12, size / 2)
        return {"id": oid, "kind": kind, "center": [u(x0 + r, x0 + size - r), u(y0 + r, y0 + size - r)],
                "radius": r}
    if kind == "triangle":
        # counter-clockwise as the scene format stores it: left, lower right, top
        # (the top sits above both lower vertices and between them in x)
        left = [u(x0, x0 + size / 3), u(y0, y0 + size / 4)]
        lower_right = [u(x0 + 2 * size / 3, x0 + size), u(y0, y0 + size / 4)]
        top = [u(left[0], lower_right[0]), u(y0 + 3 * size / 4, y0 + size)]
        return {"id": oid, "kind": kind, "left": left, "lower_right": lower_right, "top": top}
    base, height = u(25, size * 0.7), u(25, size)
    shift = u(-(size - base) / 2, (size - base) / 2)
    ax = u(x0 + max(0.0, -shift), x0 + size - base - max(0.0, shift))
    ay = u(y0, y0 + size - height)
    return {"id": oid, "kind": kind, "anchor": [ax, ay], "base": base, "top_left": [round(ax + shift, 3), round(ay + height, 3)]}


def random_scene(rng: random.Random, obstacles: int) -> dict:
    cell = FIELD / CELLS
    size = cell - 2 * CELL_MARGIN
    cells = rng.sample(range(CELLS * CELLS), obstacles)
    entries = [
        _obstacle(rng, oid, (c % CELLS) * cell + CELL_MARGIN, (c // CELLS) * cell + CELL_MARGIN, size)
        for oid, c in enumerate(cells, start=1)
    ]
    return {"bounds": [FIELD, FIELD], "clearance": CLEARANCE, "obstacles": entries}


def random_query(rng: random.Random, scene_dict: dict) -> tuple[tuple, tuple]:
    """Endpoints with clearance >= 10.5 and no straight route between them."""
    shapes = scene_shapes(scene_dict)

    def point():
        while True:
            p = (rng.uniform(0, FIELD), rng.uniform(0, FIELD))
            if point_clearance(p, shapes) >= POINT_CLEARANCE:
                return p

    while True:
        a, b = point(), point()
        if segment_clearance(a, b, shapes) < CLEARANCE - 1e-9:
            return a, b


def cold_scenes(seed: int, count: int) -> list[dict]:
    """`count` scenes whose obstacle counts cycle through 24, 18, 12, 6, each
    with one query.  Returns the requests in order, without files yet."""
    rng = random.Random(seed)
    requests = []
    for i in range(count):
        scene = random_scene(rng, COLD_OBSTACLE_COUNTS[i % len(COLD_OBSTACLE_COUNTS)])
        start, goal = random_query(rng, scene)
        requests.append({"kind": "cli", "scene_dict": scene, "from": start, "to": goal})
    return requests


def write_scenes(requests: list[dict], directory: str) -> list[dict]:
    """Copies of `requests` whose scene, JSON and SVG files live in `directory`
    (made if missing); the scene files are written here."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for i, req in enumerate(requests):
        path = os.path.join(directory, f"scene{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req["scene_dict"], fh)
        out.append(dict(req, scene=path, out=os.path.join(directory, "plan.json"),
                        svg=os.path.join(directory, "route.svg")))
    return out


def colony_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 1_000_000) for _ in range(count)]
