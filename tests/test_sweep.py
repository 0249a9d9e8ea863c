"""The same-answer sweeps' query runner (`sweep.plan`), relation check
(`relations.check`) and diff (`python tests/sweep.py BASE.json HEAD.json`),
and the independence of the oracles they and tier-1 judge with."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arcplan
import arcplan.aco
import arcplan.planner
import relations
import sweep
from arcplan.geometry import AxisRect, ObstacleSpec, Point, Scene, builtin_scene
from arcplan.planner import KNOWN_TARGETS, PlanResult, RequestError, RouteInfeasible

SWEEP = Path(__file__).with_name("sweep.py")


def test_plan_returns_the_plan_or_the_verdict_raised(monkeypatch):
    scene, origin = builtin_scene(), KNOWN_TARGETS["O"]
    for engine in ("exact", "aco"):
        plan = sweep.plan(arcplan, scene, origin, KNOWN_TARGETS["A"], engine, seed=2)
        assert type(plan) is PlanResult and plan.engine == engine and round(plan.length, 4) == 471.0372
    bar = Scene((200.0, 200.0), (ObstacleSpec(7, AxisRect(Point(95, 0), 10, 200)),), 10.0)  # from wall to wall
    no_route = sweep.plan(arcplan, bar, (20, 100), (180, 100))
    assert type(no_route) is RouteInfeasible and no_route.blockers == (7,)
    inside = sweep.plan(arcplan, scene, (550, 450), KNOWN_TARGETS["A"])  # the circle obstacle's center
    assert type(inside) is RequestError and str(inside).startswith("start (550, 450) has clearance 0.0")
    for error in (ValueError("not a request error"), RuntimeError("not a verdict"), ZeroDivisionError()):
        def fail(_req, _error=error):
            raise _error
        monkeypatch.setattr(arcplan.planner, "plan_route", fail)
        with pytest.raises(type(error)) as raised:
            sweep.plan(arcplan, scene, origin, KNOWN_TARGETS["A"])
        assert raised.value is error


def test_load_puts_the_bytecode_flag_back(monkeypatch):
    # the loader's imports write no bytecode, and the modules imported after
    # it write theirs as the interpreter was told to, from the path it had
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = list(sys.path)
    for flag in (False, True):
        monkeypatch.setattr(sys, "dont_write_bytecode", flag)
        sweep.load(sweep.REPO)
        assert sys.dont_write_bytecode is flag
        assert sys.path == path


def test_oracles_import_no_arcplan():
    # tests/oracles.py and perfbench's oracle judge arcplan's answers, so
    # neither imports it, at module level or inside a function
    for path in (Path(__file__).with_name("oracles.py"), Path(sweep.REPO, "perfbench", "oracle.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert [n for n in names if n.split(".")[0] == "arcplan"] == [], path


def test_check_reports_a_broken_reversal_alone(monkeypatch):
    # a planner whose route is 1e-3 longer when the start lies below the goal:
    # mirroring and scaling keep which end lies lower, reversing swaps it
    plan_route = arcplan.planner.plan_route

    def longer_upward(req):
        plan = plan_route(req)
        return plan._replace(length=plan.length + 1e-3) if req.start.y < req.goal.y else plan

    monkeypatch.setattr(arcplan.planner, "plan_route", longer_upward)
    holds = relations.check(arcplan, builtin_scene(), KNOWN_TARGETS["A"], KNOWN_TARGETS["O"])
    assert holds["verdict"] == "plan" and round(holds["length"], 4) == 471.0372
    assert {r: holds[r] for r in relations.RELATIONS} == {"mirror": True, "scale": True, "reverse": False}


def sweep_diff(tmp_path, base, head) -> list[str]:
    """The diff's stdout lines for two records written as the sweeps write them."""
    paths = []
    for name, record in (("base.json", base), ("head.json", head)):
        if record is not None:
            (tmp_path / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        paths.append(str(tmp_path / name))
    done = subprocess.run([sys.executable, str(SWEEP), *paths], capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_sweep_diff_names_every_differing_leaf(tmp_path):
    svg = "<svg>" + "x" * 300 + "</svg>"
    base = {"answers": [{"length": "471.0372", "corners": [[230, 60]]}, {"length": "853.7001"}],
            "scene": {"bounds": [800, 800], "kind": "rect"}, "svg": svg, "count": 1, "gone": 7}
    head = {"answers": [{"length": "471.0372", "corners": [[230, 61]]}, {"length": "853.7001"}, {"length": "9.5"}],
            "scene": {"bounds": [800, 800], "kind": "circle"}, "svg": svg.replace("x", "y"), "count": 1.0, "new": []}
    lines = sweep_diff(tmp_path, base, head)
    # 12 leaves in all: 4 under answers, 3 under scene, svg, count, gone, new, and the third answer's length
    assert lines[0] == "7 of 12 leaves differ"
    named = {line.split(": ", 1)[0].strip(): line.split(": ", 1)[1] for line in lines[1:]}
    assert named == {
        "/answers/0/corners/0/1": "60 -> 61",  # a list index inside a nested key
        "/answers/2/length": "absent -> '9.5'",  # a list index on one side only
        "/scene/kind": "'rect' -> 'circle'",
        "/svg": named["/svg"],
        "/count": "1 -> 1.0",  # equal in Python, not in the file
        "/gone": "7 -> absent",  # a key on one side only
        "/new": "absent -> []",  # an empty list is a leaf
    }
    assert "..." in named["/svg"] and len(named["/svg"]) < 100  # the long texts, shortened
    assert named["/svg"].startswith("'<svg>xxx") and "-> '<svg>yyy" in named["/svg"]


def test_sweep_diff_of_identical_files_prints_zero(tmp_path):
    record = [{"from": [0, 0], "to": [470, 120], "report": "length 471.0372\n" * 40}, {"aco": None, "blockers": []}]
    assert sweep_diff(tmp_path, record, record) == ["0 of 7 leaves differ"]


def test_sweep_diff_names_a_missing_record(tmp_path):
    # a base run that crashed wrote no file: the diff names it and still exits 0
    assert sweep_diff(tmp_path, None, {"a": 1}) == [f"{tmp_path / 'base.json'}: missing"]
