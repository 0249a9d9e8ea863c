"""Independent reference implementations used to cross-check the library.

Everything in this module is derived from first principles - taut paths
around clearance circles, kinematic tangency tests, exhaustive route
enumeration - without calling into the package's own geometry helpers, so a
shared bug cannot hide on both sides of an assertion.  A golden-section
descent over the contact angles acts as the numeric authority for the
closed-form corner solver.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import NamedTuple

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# plain point / segment / polygon primitives


def seg_dist(p, a, b) -> float:
    """Distance from point p to segment a-b."""
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.dist(p, a)
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2
    t = max(0.0, min(1.0, t))
    return math.dist(p, (ax + t * vx, ay + t * vy))


def point_in_poly(p, poly) -> bool:
    """Ray-casting membership test (boundary counts as inside)."""
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        if seg_dist(p, (x1, y1), (x2, y2)) == 0.0:
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > x:
                inside = not inside
    return inside


def poly_dist(p, poly) -> float:
    """Distance from p to a polygon (0 inside)."""
    if point_in_poly(p, poly):
        return 0.0
    return min(seg_dist(p, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly)))


def circle_dist(p, center, radius) -> float:
    return max(0.0, math.dist(p, center) - radius)


# ---------------------------------------------------------------------------
# numeric descent for the one-corner problem (the two contact-point angles)


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section search: where on [lo, hi] a unimodal f is least.  80
    steps shrink a quarter turn below the float spacing of an angle."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    return x1 if f1 <= f2 else x2


def corner_descent(start, end, center, radius, grid: int = 8) -> float:
    """Shortest line-arc-line length around one circle by numeric descent.

    Minimizes |start->P1| + r*sweep + |P2->end| over the contact angles a of
    P1 and b of P2 for both turn directions; the tangency conditions emerge
    at the optimum instead of being imposed.  The sweep is direction*(b - a)
    plus whole turns, so the length splits into a term in a and a term in b:
    each angle gets its own golden-section search on each of `grid` equal
    windows of the circle, and every pair of window minima is scored with
    its true sweep.  A penalty keeps both straight pieces out of the disk;
    without it the contact arc slips around the circle through secant
    configurations.  Over the circle each term has one minimum and one
    maximum, more than a quarter turn apart, so with grid >= 4 the window
    holding a minimum is unimodal.  A pair is accepted only when both
    straight pieces are tangent to the arc (mindot ~ 1): that keeps genuine
    wraps of any sweep and discards kinked artifacts such as window-edge
    stalls.
    """
    cx, cy = center

    def at(a):
        return (cx + radius * math.cos(a), cy + radius * math.sin(a))

    def cut(p, q):
        return max(0.0, radius - seg_dist(center, p, q))

    def parts(a, b, direction):
        sweep = (direction * (b - a)) % TAU
        p1, p2 = at(a), at(b)
        d1, d2 = math.dist(start, p1), math.dist(p2, end)
        length = d1 + radius * sweep + d2
        if d1 == 0.0 or d2 == 0.0:
            mindot = -1.0
        else:
            # each straight piece against the arc's velocity at its contact
            mindot = min(
                ((p1[0] - start[0]) * -math.sin(a) + (p1[1] - start[1]) * math.cos(a)) * direction / d1,
                ((end[0] - p2[0]) * -math.sin(b) + (end[1] - p2[1]) * math.cos(b)) * direction / d2,
            )
        return length, cut(start, p1) + cut(p2, end), mindot

    windows = [(k * TAU / grid, (k + 1) * TAU / grid) for k in range(grid)]
    best = math.inf
    for direction in (1.0, -1.0):
        # the weight outgrows the length's slope beyond a tangent, yet keeps
        # the cut's rounding (about 1e-14 each) from moving a flat minimum
        def entry(a):
            return math.dist(start, at(a)) - direction * radius * a + 1e2 * cut(start, at(a))

        def exit_(b):
            return math.dist(at(b), end) + direction * radius * b + 1e2 * cut(at(b), end)

        entries = [_golden_min(entry, lo, hi) for lo, hi in windows]
        exits = [_golden_min(exit_, lo, hi) for lo, hi in windows]
        for a in entries:
            for b in exits:
                length, c, mindot = parts(a, b, direction)
                if c < 1e-9 and mindot >= 1.0 - 1e-7 and length < best:
                    best = length
    return best


def random_corner_problems(count: int, seed: int):
    """Random wrap-style corner instances as ((sx,sy), (ex,ey), (cx,cy), r).

    Endpoints sit outside the circle and the straight segment passes through
    the disk (perpendicular distance well below r).  That makes the wrap the
    shortest disk-avoiding path, i.e. a strict local minimum of the penalized
    descent objective; when the segment clears the disk the touch constraint
    only admits kinked optima and descent is ill-posed.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.uniform(5.0, 40.0)
        c = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        a1, a2 = rng.uniform(0, TAU), rng.uniform(0, TAU)
        d1 = rng.uniform(r + 5.0, r + 300.0)
        d2 = rng.uniform(r + 5.0, r + 300.0)
        s = (c[0] + d1 * math.cos(a1), c[1] + d1 * math.sin(a1))
        e = (c[0] + d2 * math.cos(a2), c[1] + d2 * math.sin(a2))
        dx, dy = e[0] - s[0], e[1] - s[1]
        L2 = dx * dx + dy * dy
        if L2 <= (2.0 * r) ** 2:
            continue
        t = ((c[0] - s[0]) * dx + (c[1] - s[1]) * dy) / L2
        if not 0.1 <= t <= 0.9:
            continue
        if 0.15 * r < seg_dist(c, s, e) < 0.9 * r:
            out.append((s, e, c, r))
    return out


def random_clearing_problems(count: int, seed: int):
    """Corner instances whose straight segment clears the disk.

    The wrap is still forced (the center projects inside the segment) but the
    segment itself never enters the circle, so the shorter side hugs the disk
    with a small sweep.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.uniform(5.0, 40.0)
        c = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        a1, a2 = rng.uniform(0, TAU), rng.uniform(0, TAU)
        d1 = rng.uniform(r + 10.0, r + 300.0)
        d2 = rng.uniform(r + 10.0, r + 300.0)
        s = (c[0] + d1 * math.cos(a1), c[1] + d1 * math.sin(a1))
        e = (c[0] + d2 * math.cos(a2), c[1] + d2 * math.sin(a2))
        dx, dy = e[0] - s[0], e[1] - s[1]
        L2 = dx * dx + dy * dy
        if L2 <= (2.0 * r) ** 2:
            continue
        t = ((c[0] - s[0]) * dx + (c[1] - s[1]) * dy) / L2
        if not 0.1 <= t <= 0.9:
            continue
        if seg_dist(c, s, e) > 1.05 * r:
            out.append((s, e, c, r))
    return out


def wrap_length(s, e, c, r, turn: int) -> float:
    """Smooth line-arc-line length via kinematic candidate selection.

    Independent reconstruction: entry/exit contact angles are picked by
    testing both acos candidates for velocity alignment (`turn` is +1 ccw,
    -1 cw), then tangent lengths and the directed sweep are summed.
    """
    u1 = entry_angle(s, c, r, turn)
    u2 = exit_angle(e, c, r, turn)
    sweep = (u2 - u1) % TAU if turn > 0 else (u1 - u2) % TAU
    p1 = (c[0] + r * math.cos(u1), c[1] + r * math.sin(u1))
    p2 = (c[0] + r * math.cos(u2), c[1] + r * math.sin(u2))
    return math.dist(s, p1) + r * sweep + math.dist(p2, e)


# ---------------------------------------------------------------------------
# kinematic tangent construction (select-by-test, no angle case analysis)


def _vel(angle: float, turn: int):
    # unit velocity on a circle at `angle` when rotating with sign `turn`
    return (-turn * math.sin(angle), turn * math.cos(angle))


def _aligned(u, v) -> bool:
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    norm = math.hypot(*u) * math.hypot(*v)
    return norm > 0 and abs(cross) <= 1e-9 * norm and dot > 0.0


def entry_angle(p, center, radius, turn) -> float:
    """Angle where a path from p joins the circle turning `turn` (+1 ccw)."""
    d = math.dist(p, center)
    base = math.atan2(p[1] - center[1], p[0] - center[0])
    half = math.acos(radius / d)
    for cand in (base + half, base - half):
        t = (center[0] + radius * math.cos(cand), center[1] + radius * math.sin(cand))
        u = (t[0] - p[0], t[1] - p[1])
        if _aligned(u, _vel(cand, turn)):
            return cand
    raise AssertionError("no kinematically consistent entry tangent")


def exit_angle(p, center, radius, turn) -> float:
    """Angle where a path leaves the circle (turning `turn`) toward p."""
    d = math.dist(p, center)
    base = math.atan2(p[1] - center[1], p[0] - center[0])
    half = math.acos(radius / d)
    for cand in (base + half, base - half):
        t = (center[0] + radius * math.cos(cand), center[1] + radius * math.sin(cand))
        u = (p[0] - t[0], p[1] - t[1])
        if _aligned(u, _vel(cand, turn)):
            return cand
    raise AssertionError("no kinematically consistent exit tangent")


def pair_angles(c1, turn1, c2, turn2, radius) -> tuple[float, float]:
    """Tangency angles of the common tangent respecting both turn signs."""
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    D = math.hypot(dx, dy)
    beta = math.atan2(dy, dx)
    if turn1 == turn2:
        cands = [(beta + math.pi / 2, beta + math.pi / 2), (beta - math.pi / 2, beta - math.pi / 2)]
    else:
        off = math.acos(min(1.0, 2.0 * radius / D))
        cands = [(beta + off, beta + off + math.pi), (beta - off, beta - off + math.pi)]
    for a1, a2 in cands:
        t1 = (c1[0] + radius * math.cos(a1), c1[1] + radius * math.sin(a1))
        t2 = (c2[0] + radius * math.cos(a2), c2[1] + radius * math.sin(a2))
        u = (t2[0] - t1[0], t2[1] - t1[1])
        if _aligned(u, _vel(a1, turn1)) and _aligned(u, _vel(a2, turn2)):
            return a1, a2
    raise AssertionError("no kinematically consistent pair tangent")


def chain_length(start, corners, end, radius) -> float:
    """Exact taut length through corner circles ((cx, cy, turn), ...)."""
    if not corners:
        return math.dist(start, end)
    total = 0.0
    entries = []
    exits = []
    first = corners[0]
    entries.append(entry_angle(start, (first[0], first[1]), radius, first[2]))
    for (x1, y1, t1), (x2, y2, t2) in zip(corners, corners[1:]):
        a_out, a_in = pair_angles((x1, y1), t1, (x2, y2), t2, radius)
        exits.append(a_out)
        entries.append(a_in)
    last = corners[-1]
    exits.append(exit_angle(end, (last[0], last[1]), radius, last[2]))

    prev = start
    for (cx, cy, turn), a_in, a_out in zip(corners, entries, exits):
        p_in = (cx + radius * math.cos(a_in), cy + radius * math.sin(a_in))
        p_out = (cx + radius * math.cos(a_out), cy + radius * math.sin(a_out))
        sweep = (turn * (a_out - a_in)) % TAU
        total += math.dist(prev, p_in) + radius * sweep
        prev = p_out
    return total + math.dist(prev, end)


def chain_segment_lengths(start, corners, end, radius) -> list[float]:
    """Per-segment lengths (line, arc, line, arc, ..., line) of the chain."""
    if not corners:
        return [math.dist(start, end)]
    entries = []
    exits = []
    first = corners[0]
    entries.append(entry_angle(start, (first[0], first[1]), radius, first[2]))
    for (x1, y1, t1), (x2, y2, t2) in zip(corners, corners[1:]):
        a_out, a_in = pair_angles((x1, y1), t1, (x2, y2), t2, radius)
        exits.append(a_out)
        entries.append(a_in)
    last = corners[-1]
    exits.append(exit_angle(end, (last[0], last[1]), radius, last[2]))

    out: list[float] = []
    prev = start
    for (cx, cy, turn), a_in, a_out in zip(corners, entries, exits):
        p_in = (cx + radius * math.cos(a_in), cy + radius * math.sin(a_in))
        p_out = (cx + radius * math.cos(a_out), cy + radius * math.sin(a_out))
        sweep = (turn * (a_out - a_in)) % TAU
        out.append(math.dist(prev, p_in))
        out.append(radius * sweep)
        prev = p_out
    out.append(math.dist(prev, end))
    return out


# ---------------------------------------------------------------------------
# tangent roadmap edges


def segment_distance(a, b, c, d) -> float:
    """Distance between segments ab and cd (0 when they cross)."""

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
        return 0.0
    return min(seg_dist(a, c, d), seg_dist(b, c, d), seg_dist(c, a, b), seg_dist(d, a, b))


def segment_clearance(a, b, obstacles) -> float:
    """Least distance from segment ab to obstacles given as ("poly", vertices)
    or ("circle", center, radius); 0 where the segment enters one."""
    best = math.inf
    for ob in obstacles:
        if ob[0] == "circle":
            d = max(0.0, seg_dist(ob[1], a, b) - ob[2])
        else:
            poly = ob[1]
            if point_in_poly(a, poly) or point_in_poly(b, poly):
                return 0.0
            d = min(segment_distance(a, b, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly)))
        best = min(best, d)
    return best


def tangent_roadmap_edges(anchors, radius, obstacles, limit) -> set:
    """Edges (i, j), 1-based with i < j, of a roadmap over anchors[0] (start),
    anchors[-1] (goal) and corner circles of `radius` at the anchors between.

    An edge exists iff one tangent joining the two nodes keeps clearance
    `limit`: the straight segment between start and goal, the entry (start) or
    exit (goal) tangent for either turn, or the common tangent of one of the
    four turn pairs between two corners.  Opposite turns have no common
    tangent when the circles touch or overlap.
    """
    n = len(anchors)

    def clear(p, q):
        return segment_clearance(p, q, obstacles) >= limit

    def on_circle(center, angle):
        return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))

    def endpoint_tangents(p, center, tangent):
        if math.dist(p, center) <= radius:
            return []
        return [(p, on_circle(center, tangent(p, center, radius, turn))) for turn in (1, -1)]

    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            a, b = anchors[i], anchors[j]
            if i == 0 and j == n - 1:
                segments = [(a, b)]
            elif i == 0:
                segments = endpoint_tangents(a, b, entry_angle)
            elif j == n - 1:
                segments = endpoint_tangents(b, a, exit_angle)
            else:
                D = math.dist(a, b)
                segments = []
                for t1 in (1, -1):
                    for t2 in (1, -1):
                        if D == 0.0 or (t1 != t2 and D <= 2 * radius):
                            continue
                        a1, a2 = pair_angles(a, t1, b, t2, radius)
                        segments.append((on_circle(a, a1), on_circle(b, a2)))
            if any(clear(p, q) for p, q in segments):
                edges.add((i + 1, j + 1))
    return edges


# ---------------------------------------------------------------------------
# exhaustive route enumeration over a weight matrix


def exhaustive_routes(weights, no_edge, src: int, dst: int):
    """All simple src->dst routes by DFS: list of (cost, path), cheapest first.

    `weights` is a 1-based-square matrix given as nested sequences; entries
    >= no_edge (or non-finite) mean "no edge".
    """
    n = len(weights)

    def has_edge(i, j):
        w = weights[i - 1][j - 1]
        return math.isfinite(w) and w < no_edge

    out = []
    path = [src]
    seen = {src}

    def walk(u, cost):
        if u == dst:
            out.append((cost, tuple(path)))
            return
        for v in range(1, n + 1):
            if v not in seen and has_edge(u, v):
                seen.add(v)
                path.append(v)
                walk(v, cost + weights[u - 1][v - 1])
                path.pop()
                seen.remove(v)

    walk(src, 0.0)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# the colony on bit lists, the reference for aco_run's results


class AcoResult(NamedTuple):
    """Field for field arcplan.aco.AcoResult, so the two reprs compare."""

    bits: tuple
    nodes: tuple
    cost: float
    best_curve: tuple
    mean_curve: tuple


def reference_aco_run(g, params) -> AcoResult:
    """The colony of arcplan.aco.aco_run with each move on a copied bit list
    and each distinct chromosome decoded pair by pair: the same RNG draws,
    the same float additions and the same branch test, so its repr must equal
    aco_run's on every graph and parameter set."""
    if not math.isfinite(g.no_edge):
        raise ValueError(f"aco_run needs a finite no-edge sentinel, got {g.no_edge!r}")
    weights = g.weights  # a view the graph builds anew on each read: read once per run

    def decode(bits):
        nodes = tuple(i + 1 for i, b in enumerate(bits) if b)
        cost = 0.0
        for a, b in zip(nodes, nodes[1:]):
            w = weights[a - 1][b - 1]
            cost += w if -math.inf < w < g.no_edge else g.no_edge
        return nodes, cost

    scored: dict[bytes, float] = {}

    def score(bits: list[int]) -> float:
        key = bytes(bits)
        cost = scored.get(key)
        if cost is None:
            cost = scored[key] = decode(tuple(bits))[1]
        return cost

    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits
    n = len(weights)
    free = list(range(1, n - 1))
    colony = [[1] * n for _ in range(params.ants)]
    for bits in colony:
        for idx in range(n):
            r = getrandbits(2)
            while r > 1:
                r = getrandbits(2)
            bits[idx] = r
        bits[0] = bits[n - 1] = 1
    costs = [score(b) for b in colony]
    top = max(costs)
    pher = [top - c for c in costs]

    best_cost = min(costs)
    best_bits = tuple(colony[costs.index(best_cost)])
    best_curve: list[float] = []
    mean_curve: list[float] = []

    for gen in range(1, params.generations + 1):
        lam = 1.0 / gen
        t_best = max(pher)
        for j in range(params.ants):
            prob = 1.0 if t_best <= 0.0 else (t_best - pher[j]) / t_best
            cand = colony[j][:]
            if prob < params.p0:
                flipped = False
                for idx in free:
                    if rng.random() < lam:
                        cand[idx] ^= 1
                        flipped = True
                if not flipped and free:
                    cand[rng.choice(free)] ^= 1
            else:
                for idx in free:
                    r = getrandbits(2)
                    while r > 1:
                        r = getrandbits(2)
                    cand[idx] = r
            c = score(cand)
            if c < costs[j]:
                colony[j] = cand
                costs[j] = c
        worst = max(costs)
        pher = [(1.0 - params.evaporation) * t + (worst - c) for t, c in zip(pher, costs)]
        gen_best = min(costs)
        if gen_best < best_cost:
            best_cost = gen_best
            best_bits = tuple(colony[costs.index(gen_best)])
        best_curve.append(best_cost)
        mean_curve.append(math.fsum(costs) / len(costs))

    nodes, cost = decode(best_bits)
    return AcoResult(best_bits, nodes, cost, tuple(best_curve), tuple(mean_curve))


# ---------------------------------------------------------------------------
# Monte-Carlo area


def mc_area(inside, bbox, samples: int, seed: int) -> float:
    """Monte-Carlo area of `inside` over bbox=(xmin, ymin, xmax, ymax)."""
    rng = random.Random(seed)
    xmin, ymin, xmax, ymax = bbox
    hits = 0
    for _ in range(samples):
        p = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        if inside(p):
            hits += 1
    return (xmax - xmin) * (ymax - ymin) * hits / samples


# ---------------------------------------------------------------------------
# sampled arcs and whole paths


def scene_obstacles(scene):
    """A scene's obstacles as ("poly", vertices) or ("circle", center,
    radius), read from the fields of its shapes: a rectangle's anchor, width
    and height, a circle's center and radius, a parallelogram's anchor, base
    and top_left (its top edge parallel to the base), and a triangle's
    vertices v1, v2, v3 in the order given."""
    out = []
    for spec in scene.obstacles:
        s = spec.shape
        if hasattr(s, "radius"):
            out.append(("circle", tuple(s.center), s.radius))
        elif hasattr(s, "width"):
            (x, y), w, h = s.anchor, s.width, s.height
            out.append(("poly", [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]))
        elif hasattr(s, "base"):
            (x, y), base, (tx, ty) = s.anchor, s.base, s.top_left
            out.append(("poly", [(x, y), (x + base, y), (tx + base, ty), (tx, ty)]))
        else:
            out.append(("poly", [tuple(s.v1), tuple(s.v2), tuple(s.v3)]))
    return out


def point_clearance(p, obstacles) -> float:
    """Least distance from p to obstacles given as ("poly", vertices) or
    ("circle", center, radius); 0 inside one."""
    return min(circle_dist(p, ob[1], ob[2]) if ob[0] == "circle" else poly_dist(p, ob[1]) for ob in obstacles)


def arc_points(center, radius, start, sweep, spacing):
    """Points of the arc swept counter-clockwise from angle `start` through
    `sweep`, both ends included, at most `spacing` apart along it."""
    steps = max(1, math.ceil(radius * sweep / spacing))
    return [
        (center[0] + radius * math.cos(start + sweep * k / steps), center[1] + radius * math.sin(start + sweep * k / steps))
        for k in range(steps + 1)
    ]


def path_violation(segments, obstacles, clearance, spacing=0.5):
    """The first fault of a line/arc chain, or None: a gap or a kink at a
    joint, or a point closer than clearance - 1e-6 to an obstacle (lines
    exactly, arcs at points `spacing` apart).  Reads only the plain fields of
    the segments: a line's ends `a` and `b`; an arc's circle (center, radius,
    turn "cw"/"ccw") and its start and end angles."""

    def parts(seg):  # (start point, end point, direction in, direction out)
        if hasattr(seg, "a"):
            (ax, ay), (bx, by) = seg.a, seg.b
            L = math.hypot(bx - ax, by - ay)
            d = ((bx - ax) / L, (by - ay) / L) if L else None
            return (ax, ay), (bx, by), d, d
        (cx, cy), r = seg.circle.center, seg.circle.radius
        s = 1.0 if seg.circle.turn.value == "ccw" else -1.0
        a0, a1 = seg.start_angle, seg.end_angle
        return (
            (cx + r * math.cos(a0), cy + r * math.sin(a0)),
            (cx + r * math.cos(a1), cy + r * math.sin(a1)),
            (-s * math.sin(a0), s * math.cos(a0)),
            (-s * math.sin(a1), s * math.cos(a1)),
        )

    pieces = [parts(seg) for seg in segments]
    for i, (p, q) in enumerate(zip(pieces, pieces[1:])):
        if math.dist(p[1], q[0]) > 1e-6:
            return f"gap after segment {i}"
        if p[3] and q[2] and p[3][0] * q[2][0] + p[3][1] * q[2][1] < 1.0 - 1e-7:
            return f"kink after segment {i}"
    limit = clearance - 1e-6
    for i, seg in enumerate(segments):
        if hasattr(seg, "a"):
            d = segment_clearance(seg.a, seg.b, obstacles)
        else:
            c = seg.circle
            s = 1.0 if c.turn.value == "ccw" else -1.0
            sweep = (s * (seg.end_angle - seg.start_angle)) % TAU
            low = seg.start_angle if s > 0 else seg.end_angle
            d = min(point_clearance(p, obstacles) for p in arc_points(c.center, c.radius, low, sweep, spacing))
        if d < limit:
            return f"segment {i} has clearance {d:.9f}"
    return None


# ---------------------------------------------------------------------------
# two-sided bounds on the shortest route: visibility-graph search among
# polygons inside and around the clearance envelopes (Lozano-Perez & Wesley,
# CACM 1979)


def envelope_polygons(scene, step: float, outer: bool) -> list:
    """Each obstacle's clearance envelope as a convex CCW polygon with a vertex
    at least every `step` rad of each of its arcs: inscribed, its vertices on
    the arcs, or if `outer` circumscribed, its edges tangent to the arcs and
    its vertices at r / cos(delta / 2) for a split of delta rad."""
    c = scene.clearance
    polys = []
    for ob in scene_obstacles(scene):
        if ob[0] == "circle":
            arcs, closed = [(ob[1], ob[2] + c, 0.0, TAU)], True
        else:
            poly = list(ob[1])
            if sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(poly, poly[1:] + poly[:1])) < 0.0:
                poly.reverse()
            arcs, closed = [], False
            for u, v, w in zip(poly[-1:] + poly[:-1], poly, poly[1:] + poly[:1]):
                a_in = math.atan2(u[0] - v[0], v[1] - u[1])  # the outward normal of edge u-v
                a_out = math.atan2(v[0] - w[0], w[1] - v[1])
                arcs.append((v, c, a_in, (a_out - a_in) % TAU))
        pts = []
        for (cx, cy), r, start, sweep in arcs:
            n = max(1, math.ceil(sweep / step))
            d = sweep / n
            if outer:
                r, ks = r / math.cos(d / 2.0), [k + 0.5 for k in range(n)]
            else:
                ks = range(n if closed else n + 1)
            pts += [(cx + r * math.cos(start + k * d), cy + r * math.sin(start + k * d)) for k in ks]
        polys.append(pts)
    return polys


def _enters(p, q, planes, eps: float) -> bool:
    """Whether segment pq goes more than eps deep into the convex polygon
    whose inward edge half-planes (nx, ny, offset) are given (Cyrus-Beck)."""
    lo, hi = 0.0, 1.0
    for nx, ny, off in planes:
        f0, f1 = nx * p[0] + ny * p[1] - off, nx * q[0] + ny * q[1] - off
        if f0 <= eps and f1 <= eps:
            return False
        if f0 <= eps:
            lo = max(lo, (eps - f0) / (f1 - f0))
        elif f1 <= eps:
            hi = min(hi, (eps - f0) / (f1 - f0))
        if lo >= hi:
            return False
    return True


def shortest_polyline(polys, start, goal, field, eps: float = 1e-9) -> float:
    """Length of the shortest start-goal polyline inside the field (w, h)
    that goes no more than eps deep into any of the convex CCW polygons,
    math.inf if there is none.  A* over the polygon vertices inside the field,
    where alone a taut path bends (where a polygon meets another or a field
    edge, the free space has a notch), and whose legs are the segments that
    support the polygon at each vertex end."""
    (w, h), nodes = field, [(tuple(start), None), (tuple(goal), None)]
    planes, boxes = [], []
    for poly in polys:
        for k, v in enumerate(poly):
            if -eps <= v[0] <= w + eps and -eps <= v[1] <= h + eps:
                nodes.append((v, (poly[k - 1], poly[(k + 1) % len(poly)])))
        hp = []
        for a, b in zip(poly, poly[1:] + poly[:1]):
            L = math.dist(a, b)
            nx, ny = (a[1] - b[1]) / L, (b[0] - a[0]) / L  # inward: left of a CCW edge
            hp.append((nx, ny, nx * a[0] + ny * a[1]))
        planes.append(hp)
        xs, ys = [v[0] for v in poly], [v[1] for v in poly]
        boxes.append((min(xs), min(ys), max(xs), max(ys)))

    def supports(p, corner, q) -> bool:  # line pq leaves both neighbours of corner p on one side
        if corner is None:
            return True
        u, w = corner
        dx, dy, d = q[0] - p[0], q[1] - p[1], math.dist(p, q)
        s1 = (dx * (u[1] - p[1]) - dy * (u[0] - p[0])) / (d * math.dist(p, u))  # sines of the angles to them
        s2 = (dx * (w[1] - p[1]) - dy * (w[0] - p[0])) / (d * math.dist(p, w))
        return not ((s1 > 1e-9 and s2 < -1e-9) or (s1 < -1e-9 and s2 > 1e-9))

    def visible(p, q) -> bool:
        x0, x1, y0, y1 = min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])
        return not any(
            b[0] < x1 and x0 < b[2] and b[1] < y1 and y0 < b[3] and _enters(p, q, hp, eps)
            for hp, b in zip(planes, boxes)
        )

    goal = nodes[1][0]
    best = [math.inf] * len(nodes)
    best[0] = 0.0
    heap = [(math.dist(nodes[0][0], goal), 0.0, 0)]
    while heap:
        _, g, i = heapq.heappop(heap)
        if i == 1:
            return g
        if g > best[i]:
            continue
        p, pc = nodes[i]
        for j, (q, qc) in enumerate(nodes):
            if j == i or p == q:
                continue
            h = g + math.dist(p, q)
            if h < best[j] and supports(p, pc, q) and supports(q, qc, p) and visible(p, q):
                best[j] = h
                heapq.heappush(heap, (h + math.dist(q, goal), h, j))
    return math.inf


def length_bounds(scene, start, goal, step: float) -> tuple[float, float]:
    """(lower, upper) bounds on the length of the shortest start-goal path
    that keeps the scene's clearance inside its field: the shortest polyline
    around the polygons inscribed in the clearance envelopes, then around the
    circumscribed ones, at most `step` rad of envelope arc apart.  The
    shortest path bends only on envelope arcs, of radius clearance or circle
    radius + clearance; when the clearance is at least the turning radius
    these are turns the robot can make, so that path is the smooth model's
    shortest.  Nothing here calls the package's tangent, clearance or arc
    code."""
    return tuple(
        shortest_polyline(envelope_polygons(scene, step, outer), start, goal, scene.bounds) for outer in (False, True)
    )
