"""Count the planner's broken metamorphic relations on the cold scenes, for diffing two checkouts.

    python tests/relations.py OUT.json [--repo DIR]

A sweep (tests/sweep.py).  For each of the 160 cold scenes of
inputs.cold_scenes seeds 1-2 it plans the scene's one query with the exact
engine four times: as drawn, mirrored (every x mapped to W - x, W the
field's width), scaled (every coordinate and the clearance times 2) and
reversed (from the goal to the start).  Three relations must hold, each
within TOL:

- mirror: the verdict and the length are the same, and each corner is the
  mirror image of the drawn plan's, turned the other way;
- scale: the verdict is the same and the length doubles;
- reverse: the verdict and the length are the same.

When the drawn query has a route, it also plans it once on the scene without
each obstacle in turn (`removals`), and a fourth relation must hold:

- removal: no removal makes the answer longer by more than TOL or leaves it
  without a route.

None needs an oracle.  Prints the count of broken mirror, scale and reverse
relations, and per seed how many removals lengthened the answer (and by how
much at most) or lost its route; writes every query's verdict, length and
relations to OUT, with each removal that breaks its relation.  Always exits
0: a broken relation is a defect to report, as tests/bounds.py reports routes
above their bracket.  test_planner's tier-1 test checks the same queries and
the builtin scene's against the first three relations (`check`), and the
removal relation on one cold query per seed, which the engine is known to
break there (a strict xfail).
"""

from __future__ import annotations

import sweep

SCALE = 2.0  # a power of two: scaling the scene rounds no coordinate
TOL = 1e-6
RELATIONS = ("mirror", "scale", "reverse")


def mirrored(geometry, scene):
    """The scene reflected in the line x = W / 2."""
    w = scene.bounds[0]

    def flip(p):
        return geometry.Point(w - p[0], p[1])

    def shape(s):
        if isinstance(s, geometry.AxisRect):
            (x, y), width, height = s
            return geometry.AxisRect(geometry.Point(w - x - width, y), width, height)
        if isinstance(s, geometry.Circle):
            return geometry.Circle(flip(s.center), s.radius)
        if isinstance(s, geometry.Triangle):
            return geometry.Triangle(*map(flip, s))
        (x, y), base, (tx, ty) = s  # a parallelogram: its base still runs along +x from the lower-left vertex
        return geometry.Parallelogram(geometry.Point(w - x - base, y), base, geometry.Point(w - tx - base, ty))

    obstacles = tuple(spec._replace(shape=shape(spec.shape)) for spec in scene.obstacles)
    return geometry.Scene(scene.bounds, obstacles, scene.clearance)


def scaled(geometry, scene, k: float):
    """The scene with every coordinate, length and the clearance times k."""
    def shape(s):  # each field of a shape is a point or a length
        return type(s)(*(geometry.Point(k * f[0], k * f[1]) if isinstance(f, tuple) else k * f for f in s))

    obstacles = tuple(spec._replace(shape=shape(spec.shape)) for spec in scene.obstacles)
    return geometry.Scene(tuple(k * b for b in scene.bounds), obstacles, k * scene.clearance)


def outcome(arc, scene, start, goal) -> tuple:
    """(verdict, length, corners) of the exact engine's answer; length and
    corners are None without a plan."""
    plan = sweep.plan(arc, scene, start, goal)
    if isinstance(plan, Exception):
        return "infeasible" if isinstance(plan, arc.planner.RouteInfeasible) else "request error", None, None
    return "plan", plan.length, plan.corners


def check(arc, scene, start, goal) -> dict:
    """{relation: whether it holds} for one query, with the drawn query's
    verdict and length."""
    w = scene.bounds[0]
    verdict, length, corners = outcome(arc, scene, start, goal)
    m_verdict, m_length, m_corners = outcome(arc, mirrored(arc.geometry, scene), (w - start[0], start[1]),
                                             (w - goal[0], goal[1]))
    s_verdict, s_length, _ = outcome(arc, scaled(arc.geometry, scene, SCALE), (SCALE * start[0], SCALE * start[1]),
                                     (SCALE * goal[0], SCALE * goal[1]))
    mirror = m_verdict == verdict and (length is None or (
        abs(m_length - length) <= TOL and len(m_corners) == len(corners)
        and all(abs(m.center[0] - (w - c.center[0])) <= TOL and abs(m.center[1] - c.center[1]) <= TOL
                and m.turn is not c.turn for m, c in zip(m_corners, corners))))
    scale = s_verdict == verdict and (length is None or abs(s_length - SCALE * length) <= TOL)
    r_verdict, r_length, _ = outcome(arc, scene, goal, start)
    reverse = r_verdict == verdict and (length is None or abs(r_length - length) <= TOL)
    return {"verdict": verdict, "length": length, "mirror": mirror, "scale": scale, "reverse": reverse}


def removals(arc, scene, start, goal, length) -> list[dict]:
    """The id, verdict and length of each one-obstacle removal that breaks
    the removal relation of a query whose drawn answer has this length (None
    without a route, when no removal can break it)."""
    if length is None:
        return []
    broken = []
    for spec in scene.obstacles:
        rest = tuple(o for o in scene.obstacles if o is not spec)
        verdict, r_length, _ = outcome(arc, arc.geometry.Scene(scene.bounds, rest, scene.clearance), start, goal)
        if r_length is None or r_length > length + TOL:
            broken.append({"id": spec.id, "verdict": verdict, "length": r_length})
    return broken


def collect(arc, inputs, _oracle) -> list[dict]:
    out = []
    for seed in (1, 2):
        for i, req in enumerate(inputs.cold_scenes(seed, 80)):
            scene = arc.sceneio.scene_from_dict(req["scene_dict"])
            query = {"seed": seed, "scene": i, "from": list(req["from"]), "to": list(req["to"])}
            entry = {**query, **check(arc, scene, req["from"], req["to"])}
            out.append({**entry, "removal": removals(arc, scene, req["from"], req["to"], entry["length"])})
    return out


def summary(entries: list, _text, seconds: float) -> None:
    broken = ", ".join(f"{sum(not e[r] for e in entries)} {r}" for r in RELATIONS)
    print(f"{len(entries)} queries, broken relations: {broken} ({seconds:.1f} s)")
    for seed in sorted({e["seed"] for e in entries}):
        broken = [(e, r) for e in entries if e["seed"] == seed for r in e["removal"]]
        excess = [r["length"] - e["length"] for e, r in broken if r["length"] is not None]
        print(f"removal, seed {seed}: {len(excess)} answers longer (by up to {max(excess, default=0.0):.2f}),"
              f" {len(broken) - len(excess)} without a route")


if __name__ == "__main__":
    raise SystemExit(sweep.run(__doc__, collect, summary))
