"""Command-line behavior: reports, files, exit codes, determinism."""

import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcplan import builtin_scene, cli, sceneio
from arcplan.cli import main
from test_planner import pocket_scene


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_plan_default_report(capsys):
    rc, out, err = run_cli(capsys, "plan")
    assert rc == 0 and err == ""
    assert out.startswith("route O -> A  (engine exact)")
    assert "corners: (80, 210) cw" in out
    assert "total length 471.0372" in out
    assert "travel time  96.0176" in out


def test_plan_to_b_report(capsys):
    rc, out, _ = run_cli(capsys, "plan", "--to", "B")
    assert rc == 0
    assert "route O -> B" in out
    assert "total length 853.7001" in out
    assert "corners: (60, 300) cw, (150, 435) cw, (220, 470) ccw, (220, 530) ccw, (150, 600) cw" in out


def test_plan_accepts_numeric_points(capsys):
    rc, out, _ = run_cli(capsys, "plan", "--from", "10,10", "--to", "40,10")
    assert rc == 0
    assert "route (10,10) -> (40,10)" in out
    assert "corners: none (straight segment)" in out
    assert "total length 30.0000" in out


def test_plan_json_out(capsys, tmp_path):
    out_file = tmp_path / "plan.json"
    rc, _, _ = run_cli(capsys, "plan", "--out", str(out_file))
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert set(data) == {"route", "engine", "length", "travel_time", "segments"}
    assert data["route"] == "O -> A"
    assert data["engine"] == "exact"
    assert data["length"] == pytest.approx(471.037239984, abs=1e-6)
    types = [seg["type"] for seg in data["segments"]]
    assert types == ["line", "arc", "line"]
    assert data["segments"][1]["center"] == [80.0, 210.0]
    total = sum(seg["length"] for seg in data["segments"])
    assert total == pytest.approx(data["length"], abs=1e-9)


def test_plan_start_equals_goal_json_out(capsys, tmp_path):
    out_file = tmp_path / "plan.json"
    rc, out, _ = run_cli(capsys, "plan", "--from", "O", "--to", "O", "--out", str(out_file))
    assert rc == 0 and "(empty path)" in out
    assert '"length": 0.0,' in out_file.read_text()
    assert json.loads(out_file.read_text())["segments"] == []


def test_plan_svg_out(capsys, tmp_path):
    svg_file = tmp_path / "route.svg"
    rc, _, _ = run_cli(capsys, "plan", "--svg", str(svg_file))
    assert rc == 0
    text = svg_file.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")
    assert "route" in text and "arc" not in root.tag


def test_plan_colony_engine(capsys):
    rc, out, _ = run_cli(capsys, "plan", "--engine", "aco", "--seed", "1")
    assert rc == 0
    assert "(engine aco)" in out
    assert "colony cost" in out
    chromosome = out.rsplit("chromosome", 1)[1].split()[0]
    assert set(chromosome) <= {"0", "1"}


def test_plan_colony_miss_answered_by_exact_engine(capsys):
    # the zero-generation colony's proposal makes no valid path; the exact engine answers
    rc, out, err = run_cli(capsys, "plan", "--engine", "aco", "--gens", "0")
    assert rc == 0 and err == ""
    assert out.startswith("route O -> A  (engine exact)")
    assert "total length 471.0372" in out
    assert "colony cost" in out


def test_aco_command(capsys):
    rc, out, _ = run_cli(capsys, "aco", "--seed", "1")
    assert rc == 0
    assert "chromosome: 100100011010011" in out
    assert "route: 1 -> 4 -> 8 -> 9 -> 11 -> 14 -> 15" in out
    assert "cost: 637.0000" in out


def test_aco_curve_file(capsys, tmp_path):
    curve = tmp_path / "curve.txt"
    rc, out, _ = run_cli(capsys, "aco", "--out", str(curve))
    assert rc == 0 and f"curve written to {curve}" in out
    lines = curve.read_text().splitlines()
    assert len(lines) == 100
    prev_best = float("inf")
    for gen, line in enumerate(lines, start=1):
        g, best, mean = line.split()
        assert int(g) == gen
        assert float(best) <= prev_best
        assert float(best) <= float(mean) + 1e-9
        prev_best = float(best)


def test_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK: 0 failure(s)"
    checks = lines[:-1]
    assert len(checks) == 14
    assert all(line.startswith("PASS ") for line in checks)


def test_verify_zero_tolerance_reports_failures(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--tolerance", "0")
    assert rc == 1
    assert "FAIL" in out
    assert out.strip().splitlines()[-1].startswith("FAILED:")


def test_enumerate_command(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--to", "B", "--top", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "O -> B" in lines[0] and "shortest first" in lines[0]
    lengths = [float(line.split()[2]) for line in lines[1:]]
    assert lengths == sorted(lengths)
    assert lengths[0] == pytest.approx(853.7001, abs=1e-4)


def test_export_svg_command(capsys, tmp_path):
    svg_file = tmp_path / "scene.svg"
    rc, out, _ = run_cli(capsys, "export-svg", "--to", "B", "--out", str(svg_file))
    assert rc == 0
    assert f"wrote {svg_file}" in out and "length 853.7001" in out
    ET.fromstring(svg_file.read_text())


def test_bad_point_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--to", "garbage"])
    assert exc.value.code == 2
    assert "expected a named point" in capsys.readouterr().err


def test_blocked_goal_exit_code(capsys):
    rc, _, err = run_cli(capsys, "plan", "--to", "310,410")
    assert rc == 2
    assert err.startswith("error:") and "clearance" in err


def test_bad_scene_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "scene.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "plan", "--scene", str(bad))
    assert rc == 2
    assert "invalid JSON" in err and "line 1" in err


def _scene_with(obstacle: dict) -> str:
    """Scene-file text holding one obstacle (id 1); non-finite floats are
    written as JSON's NaN/Infinity extensions."""
    return json.dumps({"obstacles": [{"id": 1, **obstacle}]})


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "must be a JSON object"),
        ('{"bounds": [800]}', "bounds must be [width, height]"),
        ('{"bounds": [800, 800, 5]}', "bounds must be [width, height]"),
        ('{"clearance": -5}', "clearance must be a positive number, got -5"),
        ('{"clearance": NaN}', "clearance must be a positive number, got nan"),
        ('{"bounds": [800, 0]}', "bounds height must be a positive number, got 0"),
        (_scene_with({"kind": "rect", "anchor": [10, 10], "width": -5, "height": 20}),
         "obstacle 1 width must be a positive number, got -5"),
        (_scene_with({"kind": "circle", "center": [50, math.inf], "radius": 5}),
         "obstacle 1 center must be a finite number, got inf"),
        (_scene_with({"kind": "circle", "center": [50, 50], "radius": 0}),
         "obstacle 1 radius must be a positive number, got 0"),
        (_scene_with({"kind": "parallelogram", "anchor": [10, 10], "base": -30, "top_left": [20, 40]}),
         "obstacle 1 base must be a positive number, got -30"),
        ('{"clearance": true}', "clearance must be a positive number, got True"),
        (_scene_with({"id": 2.7, "kind": "circle", "center": [50, 50], "radius": 5}),
         "obstacle id must be an integer, got 2.7"),
        (_scene_with({"id": True, "kind": "circle", "center": [50, 50], "radius": 5}),
         "obstacle id must be a finite number, got True"),
        (json.dumps({"obstacles": [{"id": 4, "kind": "circle", "center": [50, 50], "radius": 5},
                                   {"id": 4, "kind": "circle", "center": [150, 50], "radius": 5}]}),
         "obstacle id 4 is used twice"),
        (_scene_with({"kind": "triangle", "left": [100, 100], "lower_right": [300, 300], "top": [200, 200]}),
         "obstacle 1: left, lower_right and top are collinear (zero area)"),
        (_scene_with({"kind": "parallelogram", "anchor": [100, 100], "base": 50, "top_left": [130, 100]}),
         "obstacle 1: top_left is level with anchor (zero area)"),
        (_scene_with({"kind": "rect", "anchor": [300, 400], "width": 1e-300, "height": 100}),
         "obstacle 1: two corners coincide (a side is below the float spacing)"),  # 300 + 1e-300 == 300
        (_scene_with({"kind": "parallelogram", "anchor": [300, 400], "base": 1e-300, "top_left": [320, 500]}),
         "obstacle 1: two corners coincide (a side is below the float spacing)"),
        ('{"clearence": 25}', "scene: unknown key 'clearence'"),
        (_scene_with({"kind": "rect", "anchor": [10, 10], "width": 5, "height": 20, "radius": 3}),
         "obstacle 1 (rect): unknown key 'radius'"),
        (_scene_with({"kind": "circle", "center": [50, 50], "radius": 5, "width": 4, "height": 4}),
         "obstacle 1 (circle): unknown key 'width', 'height'"),
        (_scene_with({"kind": "triangle", "left": [0, 0], "lower_right": [9, 0], "top": [4, 9], "anchor": [0, 0]}),
         "obstacle 1 (triangle): unknown key 'anchor'"),
        (_scene_with({"kind": "parallelogram", "anchor": [0, 0], "base": 9, "top_left": [2, 9], "top": [4, 9]}),
         "obstacle 1 (parallelogram): unknown key 'top'"),
        ('{"clearance": 1' + "0" * 400 + "}", "clearance must be a finite number, got an integer too large for a float"),
        (_scene_with({"kind": "rect", "anchor": [10**400, 10], "width": 5, "height": 20}),
         "obstacle 1 anchor must be a finite number, got an integer too large for a float"),
        (_scene_with({"id": -(10**400), "kind": "circle", "center": [50, 50], "radius": 5}),
         "obstacle id must be a finite number, got an integer too large for a float"),
        ('{"clearance": "1_0"}', "clearance must be a positive number, got '1_0'"),
        (_scene_with({"kind": "circle", "center": ["50", 50], "radius": 5}),
         "obstacle 1 center must be a finite number, got '50'"),
        (_scene_with({"id": "5", "kind": "circle", "center": [50, 50], "radius": 5}),
         "obstacle id must be a finite number, got '5'"),
        (_scene_with({"kind": "rect", "anchor": [10, 10], "width": "1_000", "height": 20}),
         "obstacle 1 width must be a positive number, got '1_000'"),
        ('{"clearance": 10, "clearance": 40}', "key 'clearance' appears more than once in one JSON object"),
        ('{"obstacles": [{"id": 1, "kind": "rect", "anchor": [10, 10], "width": 200, "width": 20, "height": 20}]}',
         "key 'width' appears more than once in one JSON object"),
        ('{"clearance": "1' + "0" * 5000 + '"}', "clearance must be a positive number, got '100000"),
        (json.dumps({"bounds": [800] * 20_000}), "bounds must be [width, height], got [800, 800, "),
        (_scene_with({"kind": "rect", "anchor": [10] * 20_000, "width": 5, "height": 20}),
         "obstacle 1 anchor: expected [x, y] pair, got [10, 10, "),
        (json.dumps({"k" * 20_000: 1}), "scene: unknown key 'kkkk"),
        (_scene_with({"kind": "k" * 20_000}), "obstacle 1: unknown kind 'kkkk"),
        (json.dumps({f"k{i}": 1 for i in range(20_000)}), "scene: unknown key 'k0', 'k1', 'k2', 'k3', 'k4', 'k5', ...\n"),
        ('{"a": 1, "b": 1, "b": 2, "a": 2}', "key 'a' appears more than once in one JSON object"),
        (_scene_with({"kind": ["rect"], "anchor": [10, 10], "width": 5, "height": 20}), "obstacle 1: unknown kind ['rect']"),
        (_scene_with({"kind": "triangle", "top": [0, 0], "left": "x", "lower_right": [0, 0], "zz": 1}),
         "obstacle 1 left: expected [x, y] pair, got 'x'"),
        (_scene_with({"kind": "triangle", "left": [0, 0], "lower_right": [5, 5], "top": [9, 9], "zz": 1}),
         "obstacle 1: left, lower_right and top are collinear (zero area)"),
        ('{"obstacles": "ab"}', "obstacles must be a list, got 'ab'"),
        ('{"obstacles": null}', "obstacles must be a list, got None"),
        ('{"obstacles": [5]}', "obstacle entry 0 must be an object, got 5"),
        (_scene_with({"kind": "rect", "anchor": [10, 10], "width": 5}), "obstacle 1: missing field 'height'"),
        ('{"obstacles": [{"kind": "rect"}]}', "obstacle entry 0: missing field 'id'"),
        (_scene_with({"kind": "rect", "anchor": [1.5e308, 0], "width": 1.5e308, "height": 10}),
         "obstacle 1: a corner or the area is beyond the float range"),  # a corner at x = inf
        (_scene_with({"kind": "triangle", "left": [-1e200, -1e200], "lower_right": [0, 0], "top": [1e200, 1e200]}),
         "obstacle 1: a corner or the area is beyond the float range"),  # collinear, but the area is inf - inf = nan
    ],
    ids=["top-level-array", "one-bound", "three-bounds", "negative-clearance", "nan-clearance", "zero-bound",
         "negative-rect-width", "infinite-coordinate", "zero-radius", "negative-base", "boolean-clearance",
         "fractional-id", "boolean-id", "duplicate-id", "zero-area-triangle", "zero-area-parallelogram",
         "rect-corners-coincide", "parallelogram-corners-coincide",
         "misspelt-top-level-key", "rect-radius", "circle-width-height", "triangle-anchor", "parallelogram-top",
         "float-overflow-clearance", "float-overflow-coordinate", "float-overflow-id", "string-clearance",
         "string-coordinate", "string-id", "string-width", "repeated-top-level-key", "repeated-obstacle-key",
         "long-string-clearance", "long-bounds", "long-anchor", "long-unknown-key", "long-kind", "many-unknown-keys",
         "first-repeated-key", "list-kind", "field-order", "zero-area-before-unknown-key", "string-obstacles",
         "null-obstacles", "number-obstacle", "missing-height", "missing-id", "float-overflow-corner",
         "float-overflow-area"],
)
def test_malformed_scene_file_exit_code(capsys, tmp_path, text, message):
    bad = tmp_path / "scene.json"
    bad.write_text(text)
    rc, _, err = run_cli(capsys, "plan", "--scene", str(bad))
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert "0" * 40 not in err  # a huge number is named, not echoed
    assert len(err.encode()) < 300  # a long value is quoted in part


def test_clearance_below_turning_radius_exit_code(capsys, tmp_path):
    # corner arcs have radius = clearance, so at clearance 5 no turn is legal:
    # a bad request (exit 2), not "no feasible route" (exit 3)
    box = {"id": 1, "kind": "rect", "anchor": [80, 80], "width": 40, "height": 40}
    for clearance, argv, rc_want, text in [
        (5, ("plan",), 2, "scene clearance 5, the radius of its corner arcs, is below the minimum turning radius 10"),
        (5, ("enumerate",), 2, "is below the minimum turning radius 10"),
        (5, ("plan", "--engine", "aco"), 2, "is below the minimum turning radius 10"),
        (10, ("plan",), 0, "total length 126.6628"),
    ]:
        path = tmp_path / f"scene{clearance}.json"
        path.write_text(json.dumps({"bounds": [200, 200], "clearance": clearance, "obstacles": [box]}))
        rc, out, err = run_cli(capsys, *argv, "--scene", str(path), "--from", "50,100", "--to", "150,100")
        assert rc == rc_want and text in (out if rc == 0 else err), (clearance, argv, out, err)
    # a straight route needs no turn, so it is still planned
    rc, out, _ = run_cli(capsys, "plan", "--scene", str(tmp_path / "scene5.json"), "--from", "50,10", "--to", "150,10")
    assert rc == 0 and "corners: none (straight segment)" in out


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read scene file"),
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b'{"clearance": 1' + b"0" * 5000 + b"}", "invalid JSON: a number has too many digits"),
        (b"[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
    ],
    ids=["missing", "not-utf8", "too-many-digits", "nested-too-deeply"],
)
def test_unreadable_scene_file_exit_code(capsys, tmp_path, content, message):
    path = tmp_path / "scene.json"
    if content is not None:
        path.write_bytes(content)
    rc, _, err = run_cli(capsys, "plan", "--scene", str(path))
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert "0" * 40 not in err


def test_large_scene_files_load_in_linear_time(tmp_path):
    # one object of 50,000 keys whose last key repeats, and a scene of 50,000
    # obstacles: a scan of every earlier key or id takes tens of seconds
    path = tmp_path / "scene.json"
    path.write_text("{" + "".join(f'"k{i}": 1, ' for i in range(50_000)) + '"k49999": 2}')
    start = time.perf_counter()
    with pytest.raises(sceneio.SceneFormatError, match="key 'k49999' appears more than once"):
        sceneio.load_scene(str(path))
    assert time.perf_counter() - start < 5
    circles = [{"id": i, "kind": "circle", "center": [i % 800, i // 800], "radius": 1} for i in range(50_000)]
    path.write_text(json.dumps({"obstacles": circles}))
    start = time.perf_counter()
    scene = sceneio.load_scene(str(path))
    assert time.perf_counter() - start < 5
    assert [spec.id for spec in scene.obstacles] == list(range(50_000))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--top", "0"), "expected an integer >= 1, got 0"),
        (("plan", "--ants", "0"), "expected an integer >= 1, got 0"),
        (("export-svg", "--ants", "0", "--out", "route.svg"), "expected an integer >= 1, got 0"),
        (("aco", "--ants", "0"), "expected an integer >= 1, got 0"),
        (("aco", "--gens", "-5"), "expected an integer >= 0, got -5"),
        (("aco", "--seed", "-5"), "expected an integer >= 0, got -5"),
        (("verify", "--tolerance", "-1"), "expected a finite number >= 0, got -1.0"),
        (("verify", "--tolerance", "nan"), "expected a finite number >= 0, got nan"),
    ],
    ids=["enumerate-top", "plan-ants", "export-svg-ants", "aco-ants", "aco-gens", "aco-negative-seed",
         "verify-negative-tolerance", "verify-nan-tolerance"],
)
def test_nonpositive_count_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "--out", "{missing}"),
        ("plan", "--svg", "{missing}"),
        ("aco", "--gens", "2", "--out", "{missing}"),
        ("export-svg", "--out", "{missing}"),
        ("plan", "--out", "{directory}"),
    ],
    ids=["plan-out", "plan-svg", "aco-out", "export-svg-out", "plan-out-directory"],
)
def test_unwritable_output_file_exit_code(capsys, tmp_path, argv):
    paths = {"missing": str(tmp_path / "no-such-dir" / "out.txt"), "directory": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith(f"error: cannot write {argv[-1]}: "), err
    assert "Traceback" not in err


def test_infeasible_exit_code(capsys, tmp_path):
    scene_file = tmp_path / "pocket.json"
    scene_file.write_text(json.dumps(sceneio.scene_to_dict(pocket_scene()), indent=2), encoding="utf-8")
    rc, _, err = run_cli(
        capsys, "plan", "--scene", str(scene_file), "--from", "20,20", "--to", "100,100"
    )
    assert rc == 3
    assert err.startswith("infeasible:")
    assert "blocking obstacles" in err
    rc, out, enum_err = run_cli(
        capsys, "enumerate", "--scene", str(scene_file), "--from", "20,20", "--to", "100,100"
    )
    assert rc == 3 and out == ""
    assert enum_err == err


# one valid run of each command, abbreviations included; "scene.json" is the builtin scene
VALID_RUNS = [
    ("plan", "--to", "B", "--engine", "aco", "--seed", "3", "--ants", "5", "--gens", "4", "--out", "p.json",
     "--svg", "p.svg"),
    ("aco", "--se", "2", "--ants", "5", "--gens", "3", "--out", "curve.txt"),
    ("verify", "--tol", "1"),
    ("export-svg", "--sce", "scene.json", "--from", "10,10", "--to", "B", "--ou", "route.svg"),
    ("enumerate", "--sce", "scene.json", "--to", "B", "--top", "2"),
]
PARSER_STOPS = [
    (), ("-h",), ("--help",), ("bogus",), ("--bogus", "plan"),
    *((name, "-h") for name in cli.COMMANDS),
    *((name, "--bogus") for name in cli.COMMANDS),
    ("plan", "extra"), ("plan", "--to", "B", "--bogus", "--seed", "x"),
    ("plan", "--seed", "x"), ("aco", "--seed", "x"), ("export-svg", "--seed", "x", "--out", "r.svg"),
    ("enumerate", "--top", "0"), ("verify", "--tolerance", "x"), ("export-svg", "--to", "B"),
    ("plan", "--sce", "no-such-file.json"), ("plan", "--s", "1"), ("aco", "--seed"),
]
# the edges of the exact form cli._parse_run reads: repeats, "=", values starting with "-", blank and
# spaced values, a bad choice, a trailing "--", and an option that is a prefix of another
EXACT_FORM_EDGES = [
    ("plan", "--to", "B", "--to", "C"), ("plan", "--to=B"), ("plan", "--seed", "-1"), ("plan", "--from", "-5,3"),
    ("plan", "--scene", ""), ("plan", "--to", " b "), ("plan", "--engine", "bogus"), ("plan", "--to", "B", "--"),
    ("enumerate", "--to", "B", "--top", "2"),
]


def _full_names(argv) -> list:
    """argv with each abbreviated option written in full, as argparse reads it."""
    options = [option for option, _ in cli.COMMANDS[argv[0]][1]]
    return [min((o for o in options if o.startswith(a)), key=len) if a.startswith("--") else a for a in argv]


def _outcome(capsys, argv) -> tuple:
    try:
        rc = main(list(argv))
    except SystemExit as e:  # help, or a usage error
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", VALID_RUNS + PARSER_STOPS + EXACT_FORM_EDGES,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_command_parser_answers_as_the_full_parser(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("scene.json").write_text(json.dumps(sceneio.scene_to_dict(builtin_scene()), indent=2), encoding="utf-8")
    table = cli._parse_run(list(argv))  # None leaves the run to argparse
    assert table is None or vars(table) == vars(cli.command_parser(argv[0]).parse_args(argv[1:]))
    if argv in VALID_RUNS:
        args, rest = cli.command_parser(argv[0]).parse_known_args(argv[1:])
        assert rest == [] and args == cli.build_parser().parse_args(argv)
        full = cli._parse_run(_full_names(argv))
        assert full is not None and vars(full) == vars(args), _full_names(argv)
    fast = _outcome(capsys, argv)
    cli.build_parser()  # built from the whole table before main loses sight of it
    monkeypatch.setattr(cli, "COMMANDS", {})  # no name is a command, so main takes the full parser
    assert _outcome(capsys, argv) == fast


def test_valid_runs_never_build_the_full_parser(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("scene.json").write_text(json.dumps(sceneio.scene_to_dict(builtin_scene()), indent=2), encoding="utf-8")
    cli.build_parser.cache_clear()
    for argv in VALID_RUNS:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert info.hits + info.misses == 0
    cli.command_parser.cache_clear()  # and written in full, no parser is built at all
    for argv in VALID_RUNS:
        assert main(_full_names(argv)) == 0, argv
    capsys.readouterr()
    assert [f.cache_info()[:2] for f in (cli.build_parser, cli.command_parser)] == [(0, 0), (0, 0)]


def test_exact_form_run_imports_no_argparse(tmp_path):
    """A fresh interpreter runs perfbench's cold request without argparse and the gettext and locale it
    imports; `plan --help` still gets argparse's help."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(sceneio.scene_to_dict(builtin_scene()), indent=2), encoding="utf-8")
    src, dst = (f"{p.x!r},{p.y!r}" for p in (cli.KNOWN_TARGETS["O"], cli.KNOWN_TARGETS["B"]))
    code = ("import sys; from arcplan import cli; rc = cli.main(sys.argv[1:]); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr); sys.exit(rc)")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, env=env)

    proc = run("plan", "--scene", str(scene), "--from", src, "--to", dst,
               "--out", str(tmp_path / "p.json"), "--svg", str(tmp_path / "p.svg"))
    assert (proc.returncode, proc.stderr) == (0, "[]\n"), proc.stderr
    assert "total length 853.7001" in proc.stdout
    proc = run("plan", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: arcplan plan [-h] [--scene FILE]"), proc.stdout


num3 = st.floats(-1000.0, 1000.0).map(lambda v: round(v, 3))  # as perfbench's scene generator draws them
size3 = st.floats(0.001, 1000.0).map(lambda v: round(v, 3))
point3 = st.lists(num3, min_size=2, max_size=2)
KIND_FIELDS = {
    "rect": {"anchor": point3, "width": size3, "height": size3},
    "circle": {"center": point3, "radius": size3},
    "triangle": {"left": point3, "lower_right": point3, "top": point3},
    "parallelogram": {"anchor": point3, "base": size3, "top_left": point3},
}


def _has_area(ob: dict) -> bool:
    if ob["kind"] == "triangle":
        (ax, ay), (bx, by), (cx, cy) = ob["left"], ob["lower_right"], ob["top"]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0.0
    return ob["kind"] != "parallelogram" or ob["top_left"][1] != ob["anchor"][1]


@st.composite
def scene_dicts(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KIND_FIELDS)), max_size=6))
    obstacles = [
        draw(st.fixed_dictionaries({"id": st.just(oid), "kind": st.just(kind), **KIND_FIELDS[kind]}).filter(_has_area))
        for oid, kind in enumerate(kinds, start=1)
    ]
    return {"bounds": [draw(size3), draw(size3)], "clearance": draw(size3), "obstacles": obstacles}


@given(scene_dicts())
def test_scene_file_round_trip(d):
    scene = sceneio.scene_from_dict(d)
    assert sceneio.scene_to_dict(scene) == d
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scene.json")
        Path(path).write_text(json.dumps(sceneio.scene_to_dict(scene), indent=2), encoding="utf-8")
        assert sceneio.load_scene(path) == scene


def test_parallelogram_base_written_back_as_read():
    # (0.1 + 0.2) - 0.1 is 0.20000000000000004: the base is stored, not derived from vertices
    d = {"bounds": [800.0, 800.0], "clearance": 10.0,
         "obstacles": [{"id": 1, "kind": "parallelogram", "anchor": [0.1, 5.0], "base": 0.2, "top_left": [1.0, 6.0]}]}
    assert sceneio.scene_to_dict(sceneio.scene_from_dict(d)) == d


def test_clockwise_triangle_start_inside_exit_code(capsys, tmp_path):
    # vertices given clockwise; (300, 200) lies inside the triangle
    scene_file = tmp_path / "cw.json"
    scene_file.write_text(
        _scene_with({"kind": "triangle", "left": [100, 100], "lower_right": [300, 500], "top": [500, 100]})
    )
    rc, out, err = run_cli(capsys, "plan", "--scene", str(scene_file), "--from", "300,200", "--to", "300,250")
    assert rc == 2 and out == ""
    assert err.startswith("error: start (300.0, 200.0) has clearance 0.0 <")


def test_fixture_dir_env_override(capsys, tmp_path, monkeypatch):
    src = sceneio.fixture_dir()
    work = tmp_path / "fixtures"
    shutil.copytree(src, work)
    expected = json.loads((work / "expected.json").read_text())
    expected["graph_optimum"]["cost"] = 9999
    (work / "expected.json").write_text(json.dumps(expected))
    monkeypatch.setenv(sceneio.FIXTURE_ENV, str(work))
    assert sceneio.fixture_dir() == str(work)
    rc, out, _ = run_cli(capsys, "verify")
    assert rc == 1
    assert "FAIL graph optimum" in out


@pytest.mark.parametrize(
    "content, key", [("{}", "corner_oa"), ('{"corner_oa": {"start": "x"}}', "start")], ids=["empty", "bad-point"]
)
def test_fixture_of_the_wrong_shape_exit_code(capsys, tmp_path, monkeypatch, content, key):
    path = tmp_path / "expected.json"
    path.write_text(content)
    monkeypatch.setenv(sceneio.FIXTURE_ENV, str(tmp_path))
    rc, out, err = run_cli(capsys, "verify")
    assert rc == 2 and out == ""
    assert err == f"error: {path}: {key!r} is missing or malformed\n", err


@pytest.mark.parametrize(
    "entry, key, value, name",
    [
        ("graph_optimum", "chromosome", "1" * 20, "chromosome"),  # 20 bits for the 15-node graph
        ("graph_optimum", "chromosome", "1101", "chromosome"),  # would decode to 1-2-4, never reaching node 15
        ("corner_oa", "start", [80, 205], "corner_oa"),  # inside the corner's own circle: no tangent
        ("corner_ob3", "start", [55, 300], "corner_ob3"),
        ("chain_ob", "start", [60, 295], "chain_ob"),  # overlaps the first turning circle
        # numbers and points are read as in a scene file: no boolean, no string
        ("corner_oa", "radius", True, "radius"),
        ("corner_oa", "total", "471.0372", "total"),
        ("corner_oa", "start", [False, "0"], "start"),
        # a corner's radius is read as a scene file's circle radius: a positive number
        ("corner_oa", "radius", 0, "radius"),
        ("corner_ob3", "radius", -10, "radius"),
    ],
    ids=["long-chromosome", "short-chromosome", "corner-oa-start-inside", "corner-ob3-start-inside", "chain-ob-start",
         "boolean-radius", "string-total", "boolean-and-string-start", "zero-radius", "negative-radius"],
)
def test_fixture_that_cannot_be_used_exit_code(capsys, tmp_path, monkeypatch, entry, key, value, name):
    expected = sceneio.load_expected()
    expected[entry][key] = value
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setenv(sceneio.FIXTURE_ENV, str(tmp_path))
    rc, out, err = run_cli(capsys, "verify")
    assert rc == 2 and out == ""  # no check is written before every entry has been read
    assert err == f"error: {path}: {name!r} is missing or malformed\n", err


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read fixture file: "), ('{"corner_oa": ', "invalid JSON at line 1, column 15: ")],
    ids=["missing", "invalid-json"],
)
def test_unreadable_fixture_exit_code(capsys, tmp_path, monkeypatch, content, message):
    path = tmp_path / "expected.json"
    if content is not None:
        path.write_text(content)
    monkeypatch.setenv(sceneio.FIXTURE_ENV, str(tmp_path))
    rc, out, err = run_cli(capsys, "verify")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err


ROOT = Path(__file__).resolve().parent.parent


def _entry_point_command():
    """The argv that starts the `arcplan` console script.

    Where the arcplan distribution is installed this is the installed script,
    looked up in the interpreter's scripts directory before PATH.  From a bare
    checkout it is the entry point declared in pyproject.toml, loaded and
    called the way a console-script launcher does.
    """
    try:
        importlib.metadata.distribution("arcplan")
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            value = tomllib.load(f)["project"]["scripts"]["arcplan"]
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "sys.argv[0] = 'arcplan'\n"
            f"sys.exit(EntryPoint('arcplan', {value!r}, 'console_scripts').load()())\n"
        )
        return [sys.executable, "-c", launcher]
    search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", "")])
    exe = shutil.which("arcplan", path=search)
    assert exe, "arcplan is installed, but no arcplan script is in the scripts directory or on PATH"
    return [exe]


def test_installed_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [*_entry_point_command(), "verify"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    report = f"stdout tail:\n{proc.stdout[-2000:]}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, report
    assert proc.stdout.strip().endswith("OK: 0 failure(s)"), report
