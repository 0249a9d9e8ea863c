"""File formats and rendering: JSON scenes, run reports, convergence curves,
SVG drawings.

Scene files carry the obstacle parameters verbatim (anchor + dimensions, not
derived vertex lists) so they stay human-editable, and each shape record holds
exactly its file fields, so a scene file read and written back is unchanged.
All report output is deterministic: identical inputs and seeds yield
byte-identical text.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from collections import Counter
from typing import Optional

from .aco import AcoResult
from .geometry import (
    AxisRect,
    Circle,
    ObstacleSpec,
    Parallelogram,
    Point,
    Scene,
    Triangle,
    polygon_vertices,
)
from .paths import Arc, Line, SmoothPath, Turn

FIXTURE_ENV = "ARCPLAN_FIXTURES"


class SceneFormatError(ValueError):
    pass


def read_number(value, name: str, positive: bool = False) -> float:
    """value as a float: a JSON number (an int or a float, never a bool or a
    string), finite, and positive if asked."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise SceneFormatError(f"{name} must be a finite number, got an integer too large for a float") from None
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise SceneFormatError(f"{name} must be a {'positive' if positive else 'finite'} number, got {reprlib.repr(value)}")
    return x


def _keys_once(pairs: list) -> dict:
    """json.loads' object_pairs_hook: the object, or SceneFormatError naming the
    first key in it that recurs later (json would keep the last value silently)."""
    d = dict(pairs)
    if len(d) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise SceneFormatError(f"key {reprlib.repr(repeated)} appears more than once in one JSON object")
    return d


def _no_unknown_keys(d: dict, known, what: str) -> None:
    unknown = [key for key in d if key not in known]
    if unknown:  # reprlib names at most six keys, each quoted in part
        raise SceneFormatError(f"{what}: unknown key {reprlib.repr(unknown)[1:-1]}")


def read_point(v, name: str) -> Point:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SceneFormatError(f"{name}: expected [x, y] pair, got {reprlib.repr(v)}")
    return Point(read_number(v[0], name), read_number(v[1], name))


def read_size(v, name: str) -> float:
    return read_number(v, name, positive=True)


# Each obstacle kind: its shape class, whose fields are the file's fields in
# file order, and each field's reader: an [x, y] point (read_point) or a
# positive number (read_size).  A triangle is stored as (left, lower-right,
# top); either orientation reads as CCW.
_KINDS = {
    "rect": (AxisRect, {"anchor": read_point, "width": read_size, "height": read_size}),
    "circle": (Circle, {"center": read_point, "radius": read_size}),
    "triangle": (Triangle, {"left": read_point, "lower_right": read_point, "top": read_point}),
    "parallelogram": (Parallelogram, {"anchor": read_point, "base": read_size, "top_left": read_point}),
}


def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON form, an object with a list of obstacle objects;
    every number must be a finite JSON number (no boolean or string), the
    clearance, bounds and obstacle dimensions positive, the obstacle ids
    distinct integers, no triangle or parallelogram of zero area, no two
    corners of a rect or parallelogram at one point and no corner or area
    beyond the float range; a key it does not define, at the top or for an
    obstacle's kind, is never ignored."""
    if not isinstance(d, dict):
        raise SceneFormatError(f"a scene must be a JSON object, got {type(d).__name__}")
    try:
        _no_unknown_keys(d, ("bounds", "clearance", "obstacles"), "scene")
        raw = d.get("bounds", Scene.bounds)
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise SceneFormatError(f"bounds must be [width, height], got {reprlib.repr(raw)}")
        bounds = (read_size(raw[0], "bounds width"), read_size(raw[1], "bounds height"))
        clearance = read_size(d.get("clearance", Scene.clearance), "clearance")
        entries, obstacles, ids = d.get("obstacles", []), [], set()
        if not isinstance(entries, (list, tuple)):
            raise SceneFormatError(f"obstacles must be a list, got {reprlib.repr(entries)}")
        for i, entry in enumerate(entries):
            at = f"obstacle entry {i}"  # until its id is read
            if not isinstance(entry, dict):
                raise SceneFormatError(f"{at} must be an object, got {reprlib.repr(entry)}")
            oid = read_number(entry["id"], "obstacle id")
            if not oid.is_integer():
                raise SceneFormatError(f"obstacle id must be an integer, got {entry['id']!r}")
            oid = int(oid)
            if oid in ids:
                raise SceneFormatError(f"obstacle id {oid} is used twice")
            ids.add(oid)
            at = f"obstacle {oid}"
            kind = entry["kind"]
            if not isinstance(kind, str) or kind not in _KINDS:
                raise SceneFormatError(f"{at}: unknown kind {reprlib.repr(kind)}")
            cls, fields = _KINDS[kind]
            shape = cls(*[read(entry[key], f"{at} {key}") for key, read in fields.items()])
            if kind != "circle":  # area: the cross product of the sides at the first vertex
                verts = polygon_vertices(shape)
                (ax, ay), (bx, by), (cx, cy) = verts[0], verts[1], verts[-1]
                area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if kind == "triangle":
                if area == 0.0:
                    raise SceneFormatError(f"{at}: left, lower_right and top are collinear (zero area)")
            elif kind == "parallelogram" and shape.top_left.y == shape.anchor.y:
                raise SceneFormatError(f"{at}: top_left is level with anchor (zero area)")
            elif kind != "circle" and len(set(verts)) < 4:
                raise SceneFormatError(f"{at}: two corners coincide (a side is below the float spacing)")
            if kind != "circle" and not all(map(math.isfinite, (area, *sum(verts, ())))):
                raise SceneFormatError(f"{at}: a corner or the area is beyond the float range")
            _no_unknown_keys(entry, ("id", "kind", *fields), f"{at} ({kind})")
            obstacles.append(ObstacleSpec(oid, shape))
    except KeyError as e:
        raise SceneFormatError(f"{at}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        if isinstance(e, SceneFormatError):
            raise
        raise SceneFormatError(f"bad scene value: {e}") from None
    return Scene(bounds=bounds, obstacles=tuple(obstacles), clearance=clearance)


def scene_to_dict(scene: Scene) -> dict:
    obstacles = []
    for spec in scene.obstacles:
        kind = next((k for k, (cls, _) in _KINDS.items() if isinstance(spec.shape, cls)), None)
        if kind is None:
            raise SceneFormatError(f"obstacle {spec.id}: unserializable shape {type(spec.shape).__name__}")
        entry = {"id": spec.id, "kind": kind}
        for (key, read), v in zip(_KINDS[kind][1].items(), spec.shape):
            entry[key] = list(v) if read is read_point else v
        obstacles.append(entry)
    return {"bounds": list(scene.bounds), "clearance": scene.clearance, "obstacles": obstacles}


def _load_json(path: str, what: str):
    """The JSON value in file `path` (a `what`), or SceneFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SceneFormatError(f"{path}: cannot read {what}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise SceneFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    try:
        return json.loads(text, object_pairs_hook=_keys_once)
    except SceneFormatError:
        raise
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer of more digits than int() converts
        raise SceneFormatError(f"{path}: invalid JSON: a number has too many digits") from None
    except RecursionError:
        raise SceneFormatError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None


def load_scene(path: str) -> Scene:
    return scene_from_dict(_load_json(path, "scene file"))


def dump_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scene_to_dict(scene), indent=2) + "\n")


def fixture_dir() -> str:
    override = os.environ.get(FIXTURE_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def expected_path() -> str:
    return os.path.join(fixture_dir(), "expected.json")


def load_expected() -> dict:
    return _load_json(expected_path(), "fixture file")


# ---------------------------------------------------------------------------
# reports


def format_point(p: Point) -> str:
    return f"({p.x:.4f}, {p.y:.4f})"


def _segment_kind(seg) -> str:
    if isinstance(seg, Line):
        return "line"
    c = seg.circle
    return f"arc center ({c.center.x:g}, {c.center.y:g}) {c.turn.value}"


def format_segment_table(path: SmoothPath) -> str:
    lines = [f"  {'no':>2}  {'start':<24} {'end':<24} {'type':<34} {'length':>12}"]
    for no, seg in enumerate(path.segments, start=1):
        lines.append(
            f"  {no:>2}  {format_point(seg.start):<24} {format_point(seg.end):<24} "
            f"{_segment_kind(seg):<34} {seg.length:>12.4f}"
        )
    return "\n".join(lines)


def format_plan_report(label: str, plan) -> str:
    out = [f"route {label}  (engine {plan.engine})"]
    if plan.corners:
        corners = ", ".join(
            f"({c.center.x:g}, {c.center.y:g}) {c.turn.value}" for c in plan.corners
        )
        out.append(f"  corners: {corners}")
    else:
        out.append("  corners: none (straight segment)" if plan.path.segments else "  corners: none")
    out.append("segments:")
    if plan.path.segments:
        out.append(format_segment_table(plan.path))
    else:
        out.append("  (empty path)")
    out.append(f"total length {plan.length:.4f}")
    out.append(f"travel time  {plan.travel_time:.4f}")
    if plan.aco is not None:
        out.append(f"colony cost  {plan.aco.cost:.4f}  chromosome {plan.aco.chromosome}")
    return "\n".join(out) + "\n"


def plan_to_dict(label: str, plan) -> dict:
    """Full-precision machine-readable result."""
    segs = []
    for seg in plan.path.segments:
        if isinstance(seg, Line):
            segs.append({"type": "line", "start": list(seg.a), "end": list(seg.b), "length": seg.length})
        else:
            segs.append(
                {
                    "type": "arc",
                    "center": list(seg.circle.center),
                    "radius": seg.circle.radius,
                    "turn": seg.circle.turn.value,
                    "start": list(seg.start),
                    "end": list(seg.end),
                    "start_angle": seg.start_angle,
                    "end_angle": seg.end_angle,
                    "length": seg.length,
                }
            )
    return {
        "route": label,
        "engine": plan.engine,
        "length": plan.length,
        "travel_time": plan.travel_time,
        "segments": segs,
    }


def write_curve(result: AcoResult, path: str) -> None:
    """Convergence curves as text: generation, best-so-far, colony mean."""
    with open(path, "w", encoding="utf-8") as fh:
        for gen, (best, mean) in enumerate(zip(result.best_curve, result.mean_curve), start=1):
            fh.write(f"{gen} {best:.6f} {mean:.6f}\n")


# ---------------------------------------------------------------------------
# SVG


def _svg_obstacle(spec: ObstacleSpec) -> str:
    s = spec.shape
    if isinstance(s, Circle):
        return f'<circle cx="{s.center.x:g}" cy="{s.center.y:g}" r="{s.radius:g}" class="obstacle"/>'
    if isinstance(s, AxisRect):
        return (
            f'<rect x="{s.anchor.x:g}" y="{s.anchor.y:g}" width="{s.width:g}" '
            f'height="{s.height:g}" class="obstacle"/>'
        )
    pts = " ".join(f"{v.x:g},{v.y:g}" for v in polygon_vertices(s))
    return f'<polygon points="{pts}" class="obstacle"/>'


def _svg_envelope(kind: str, payload, c: float) -> str:
    """One compiled obstacle's hazard envelope at clearance c: a circle grown
    by c, or a polygon's edges offset outward by c joined by arcs of radius c."""
    if kind == "circle":
        x, y, r = payload
        return f'<circle cx="{x:g}" cy="{y:g}" r="{r + c:g}" class="envelope"/>'
    edges = []
    for (ax, ay), (bx, by) in zip(payload, payload[1:] + payload[:1]):
        dx, dy = bx - ax, by - ay
        L = math.hypot(dx, dy)
        # CCW polygon: interior lies left of each edge, so outward is right
        nx, ny = dy / L, -dx / L
        edges.append((ax + c * nx, ay + c * ny, bx + c * nx, by + c * ny))
    d = [f"M {edges[0][0]:.3f} {edges[0][1]:.3f}"]
    for (_, _, bx, by), (ax, ay, _, _) in zip(edges, edges[1:] + edges[:1]):
        d.append(f"L {bx:.3f} {by:.3f}")
        d.append(f"A {c:.3f} {c:.3f} 0 0 1 {ax:.3f} {ay:.3f}")
    d.append("Z")
    return f'<path d="{" ".join(d)}" class="envelope"/>'


def _svg_segment(seg) -> str:
    if isinstance(seg, Line):
        return (
            f'<path d="M {seg.a.x:.3f} {seg.a.y:.3f} L {seg.b.x:.3f} {seg.b.y:.3f}" class="route"/>'
        )
    r = seg.circle.radius
    large = 1 if seg.sweep > math.pi else 0
    sweep = 1 if seg.circle.turn is Turn.CCW else 0
    a, b = seg.start, seg.end
    return (
        f'<path d="M {a.x:.3f} {a.y:.3f} A {r:.3f} {r:.3f} 0 {large} {sweep} '
        f'{b.x:.3f} {b.y:.3f}" class="route"/>'
    )


SVG_STYLE = (
    ".obstacle{fill:#c8c8c8;stroke:#555;stroke-width:1}"
    ".envelope{fill:none;stroke:#d08080;stroke-width:0.8;stroke-dasharray:4 3}"
    ".route{fill:none;stroke:#1050c0;stroke-width:2}"
    ".mark{fill:#1050c0}"
)


def render_svg(scene: Scene, path: Optional[SmoothPath] = None) -> str:
    """Scene + hazard envelope + route drawing (y axis flipped to screen)."""
    w, h = scene.bounds
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w:g} {h:g}" '
        f'width="{w:g}" height="{h:g}">',
        f"<style>{SVG_STYLE}</style>",
        f'<g transform="translate(0,{h:g}) scale(1,-1)">',
        f'<rect x="0" y="0" width="{w:g}" height="{h:g}" fill="#fdfdf8" stroke="#999"/>',
        '<g id="obstacles">',
    ]
    for spec in scene.obstacles:
        parts.append(_svg_obstacle(spec))
    parts.append("</g>")
    parts.append('<g id="envelope">')
    for kind, payload, _ in scene.compiled.obstacles:
        parts.append(_svg_envelope(kind, payload, scene.clearance))
    parts.append("</g>")
    if path is not None and path.segments:
        parts.append('<g id="route">')
        for seg in path.segments:
            parts.append(_svg_segment(seg))
        parts.append("</g>")
        s, e = path.start, path.end
        parts.append(f'<circle cx="{s.x:.3f}" cy="{s.y:.3f}" r="4" class="mark"/>')
        parts.append(f'<circle cx="{e.x:.3f}" cy="{e.y:.3f}" r="4" class="mark"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(scene: Scene, path: Optional[SmoothPath], out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(scene, path))
