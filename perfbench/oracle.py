"""Independent checks of arcplan's answers.

Nothing here calls arcplan.  Obstacles come in the scene-file form (the dicts
of ``sceneio.scene_to_dict`` and of the scene files this benchmark writes) and
routes as plain segment tuples:

    ("line", (ax, ay), (bx, by))
    ("arc", (cx, cy), radius, sign, start_angle, end_angle)   # sign +1 ccw, -1 cw

A route is correct when it starts and ends at the requested points, is
tangent-continuous, turns on radius >= 10, keeps the scene clearance on every
line exactly and on every arc at samples at most 0.5 apart, and its length
matches the reported length.
"""

from __future__ import annotations

import math

TAU = 2.0 * math.pi
MIN_RADIUS = 10.0
JOIN_TOL = 1e-6       # endpoint gap allowed at a junction and at the ends
TANGENT_TOL = 1e-9    # 1 - dot of unit tangents allowed at a junction
CLEAR_TOL = 1e-6      # clearance shortfall allowed
ARC_SPACING = 0.5     # largest distance between arc samples

# Stored optima: the exact engine's lengths for the named targets and the
# cost of the 15-node graph's shortest 1 -> 15 route.
NAMED_OPTIMA = {"A": 471.0372, "B": 853.7001, "C": 1101.3596}
GRAPH_OPTIMUM = 637.0
OPTIMUM_TOL = 1e-4    # the stored optima carry four decimals


# ---------------------------------------------------------------------------
# obstacles


def obstacle_shape(entry: dict):
    """("poly", [(x, y), ...]) or ("circle", (cx, cy), r) from a scene-file entry."""
    kind = entry["kind"]
    if kind == "circle":
        return ("circle", tuple(entry["center"]), float(entry["radius"]))
    if kind == "rect":
        x, y = entry["anchor"]
        w, h = entry["width"], entry["height"]
        return ("poly", [(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
    if kind == "triangle":
        return ("poly", [tuple(entry["left"]), tuple(entry["lower_right"]), tuple(entry["top"])])
    if kind == "parallelogram":
        (ax, ay), base, (tx, ty) = entry["anchor"], entry["base"], entry["top_left"]
        return ("poly", [(ax, ay), (ax + base, ay), (ax + base + tx - ax, ty), (tx, ty)])
    raise ValueError(f"unknown obstacle kind {kind!r}")


def scene_shapes(scene_dict: dict) -> list:
    return [obstacle_shape(e) for e in scene_dict["obstacles"]]


def _pt_seg(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _inside(p, poly) -> bool:
    """Point in a convex polygon of either orientation (boundary counts)."""
    n = len(poly)
    signs = [_cross(poly[i], poly[(i + 1) % n], p) for i in range(n)]
    return all(s >= 0.0 for s in signs) or all(s <= 0.0 for s in signs)


def _segments_cross(p1, p2, q1, q2) -> bool:
    d1, d2 = _cross(q1, q2, p1), _cross(q1, q2, p2)
    d3, d4 = _cross(p1, p2, q1), _cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    # touching or collinear cases fall to the distance test, which gives 0
    return False


def point_distance(p, shape) -> float:
    if shape[0] == "circle":
        (cx, cy), r = shape[1], shape[2]
        return max(0.0, math.hypot(p[0] - cx, p[1] - cy) - r)
    poly = shape[1]
    if _inside(p, poly):
        return 0.0
    n = len(poly)
    return min(_pt_seg(p[0], p[1], *poly[i], *poly[(i + 1) % n]) for i in range(n))


def segment_distance(a, b, shape) -> float:
    if shape[0] == "circle":
        (cx, cy), r = shape[1], shape[2]
        return max(0.0, _pt_seg(cx, cy, a[0], a[1], b[0], b[1]) - r)
    poly = shape[1]
    if _inside(a, poly) or _inside(b, poly):
        return 0.0
    n = len(poly)
    best = math.inf
    for i in range(n):
        q1, q2 = poly[i], poly[(i + 1) % n]
        if _segments_cross(a, b, q1, q2):
            return 0.0
        best = min(
            best,
            _pt_seg(a[0], a[1], q1[0], q1[1], q2[0], q2[1]),
            _pt_seg(b[0], b[1], q1[0], q1[1], q2[0], q2[1]),
            _pt_seg(q1[0], q1[1], a[0], a[1], b[0], b[1]),
        )
    return best


def point_clearance(p, shapes) -> float:
    return min((point_distance(p, s) for s in shapes), default=math.inf)


def segment_clearance(a, b, shapes) -> float:
    return min((segment_distance(a, b, s) for s in shapes), default=math.inf)


# ---------------------------------------------------------------------------
# routes


def _arc_sweep(seg) -> float:
    _, _, _, sign, a0, a1 = seg
    return ((a1 - a0) if sign > 0 else (a0 - a1)) % TAU


def _arc_point(seg, angle):
    (cx, cy), r = seg[1], seg[2]
    return (cx + r * math.cos(angle), cy + r * math.sin(angle))


def _ends(seg):
    if seg[0] == "line":
        return seg[1], seg[2]
    return _arc_point(seg, seg[4]), _arc_point(seg, seg[5])


def _direction_out(seg):
    """Unit tangent at the end of the segment (None for a zero-length line)."""
    if seg[0] == "line":
        return _line_dir(seg)
    s, a = seg[3], seg[5]
    return (-s * math.sin(a), s * math.cos(a))


def _direction_in(seg):
    if seg[0] == "line":
        return _line_dir(seg)
    s, a = seg[3], seg[4]
    return (-s * math.sin(a), s * math.cos(a))


def _line_dir(seg):
    (ax, ay), (bx, by) = seg[1], seg[2]
    L = math.hypot(bx - ax, by - ay)
    return None if L < 1e-12 else ((bx - ax) / L, (by - ay) / L)


def segment_length(seg) -> float:
    if seg[0] == "line":
        return math.dist(seg[1], seg[2])
    return seg[2] * _arc_sweep(seg)


def check_route(segments, start, goal, shapes, clearance, reported_length) -> str | None:
    """None when the route is correct, else the first problem found."""
    if not segments:
        return "empty route"
    if math.dist(_ends(segments[0])[0], start) > JOIN_TOL:
        return f"route starts at {_ends(segments[0])[0]}, not at {tuple(start)}"
    if math.dist(_ends(segments[-1])[1], goal) > JOIN_TOL:
        return f"route ends at {_ends(segments[-1])[1]}, not at {tuple(goal)}"
    for i, (a, b) in enumerate(zip(segments, segments[1:])):
        gap = math.dist(_ends(a)[1], _ends(b)[0])
        if gap > JOIN_TOL:
            return f"segments {i} and {i + 1} are {gap:g} apart"
        da, db = _direction_out(a), _direction_in(b)
        if da is not None and db is not None and da[0] * db[0] + da[1] * db[1] < 1.0 - TANGENT_TOL:
            return f"segments {i} and {i + 1} meet at an angle"
    limit = clearance - CLEAR_TOL
    for i, seg in enumerate(segments):
        if seg[0] == "line":
            d = segment_clearance(seg[1], seg[2], shapes)
            if d < limit:
                return f"line {i} has clearance {d:.9f}"
            continue
        if seg[2] < MIN_RADIUS - 1e-9:
            return f"arc {i} has radius {seg[2]}"
        sweep = _arc_sweep(seg)
        steps = max(1, math.ceil(seg[2] * sweep / ARC_SPACING))
        for k in range(steps + 1):
            q = _arc_point(seg, seg[4] + seg[3] * sweep * k / steps)
            d = point_clearance(q, shapes)
            if d < limit:
                return f"arc {i} has clearance {d:.9f} at {q}"
    total = sum(segment_length(s) for s in segments)
    if abs(total - reported_length) > 1e-6 * max(1.0, total):
        return f"reported length {reported_length} but segments sum to {total}"
    return None


def check_graph_route(nodes, cost, weights, no_edge, first, last) -> str | None:
    """A colony route must run first -> last over real edges and cost their sum."""
    if not nodes or nodes[0] != first or nodes[-1] != last:
        return f"route {nodes} does not run {first} -> {last}"
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        w = weights[a - 1][b - 1]
        if a == b or not (w < no_edge and math.isfinite(w)):
            return f"route {nodes} uses missing edge {a}-{b}"
        total += w
    if abs(total - cost) > 1e-9 * max(1.0, total):
        return f"route {nodes} costs {total}, reported {cost}"
    if total < GRAPH_OPTIMUM - OPTIMUM_TOL:
        return f"route {nodes} costs {total}, below the stored optimum {GRAPH_OPTIMUM}"
    return None
