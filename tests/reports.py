"""Write every user-visible output for a fixed set of inputs, for diffing two checkouts.

    python tests/reports.py OUT.json [--repo DIR]

Imports arcplan from DIR/src and the seeded scene generator from
DIR/perfbench (DIR defaults to the checkout holding this script).  The
entries, each a name and a text:

- the exit code, stdout and stderr of `plan`, `plan --to B`, `plan --engine
  aco --seed 5`, `aco --seed 2`, `enumerate --to B --top 3` and `verify` (the
  deterministic-report commands of the acceptance tests), `plan --to C`,
  `plan --from O --to O`, and `enumerate` and `plan --engine aco --seed 1`
  between the ends of random pair 15 of seed 2: the second route of the one
  once repeated the first curve with an extra zero-length arc, and the
  colony route of the other once named a corner it did not turn on; each
  plan command runs with `--out` and `--svg`,
  and both files are entries too, as is the file of `export-svg --to B`;
- the exit code, stdout and stderr of `-h` and of `<command> -h` for each
  command, and of three usage errors: a bad value (`plan --seed x`), an
  unrecognized argument (`plan --bogus`) and an unknown command (`bogus`),
  with help wrapped at 80 columns whatever the terminal;
- for each of the 80 cold scenes of seeds 1-2 (perfbench's `cold_scenes`), a
  clockwise triangle and a parallelogram whose top_left lies below its
  anchor: `scene_to_dict` of the loaded scene, `render_svg` of it with the
  exact plan of its query, and `plan_to_dict` of that plan (or the verdict
  when there is none).

Prints the entry count and a SHA-256 digest of OUT; two checkouts give the
same outputs iff the files are equal.  Times nothing, and pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

COMMANDS = [
    ("plan",),
    ("plan", "--to", "B"),
    ("plan", "--engine", "aco", "--seed", "5"),
    ("aco", "--seed", "2"),
    ("enumerate", "--to", "B", "--top", "3"),
    ("verify",),
    ("plan", "--to", "C"),
    ("plan", "--from", "O", "--to", "O"),
    ("enumerate", "--from", "16.91589577852053,204.55204324595408", "--to", "650.6835099218207,125.69463094941993",
     "--top", "3"),
    ("plan", "--engine", "aco", "--seed", "1", "--from", "16.91589577852053,204.55204324595408",
     "--to", "650.6835099218207,125.69463094941993"),
]

# runs that stop in the parser: help, and a usage error of each kind
USAGE = [("-h",), *((name, "-h") for name in ("plan", "aco", "verify", "export-svg", "enumerate")),
         ("plan", "--seed", "x"), ("plan", "--bogus"), ("bogus",)]

# the files a command writes, by its name
FILES = {"plan": {"out": "plan.json", "svg": "plan.svg"}, "export-svg": {"out": "export.svg"}}

# clockwise vertex orders, each with a query that must pass the obstacle
EXTRA_SCENES = {
    "clockwise-triangle": (
        {"bounds": [600, 600], "clearance": 10,
         "obstacles": [{"id": 1, "kind": "triangle", "left": [100, 100], "lower_right": [300, 500], "top": [500, 100]}]},
        (300, 50), (300, 560),
    ),
    "parallelogram-top-below": (
        {"bounds": [800, 800], "clearance": 10,
         "obstacles": [{"id": 1, "kind": "parallelogram", "anchor": [400.1, 600], "base": 200.2, "top_left": [450.3, 450.7]}]},
        (500, 400), (520, 700),
    ),
}


def run(arc, argv, work: str, files: dict) -> dict:
    """Exit code, stdout and stderr of one command, and the files it wrote."""
    flags = [x for key, path in files.items() for x in (f"--{key}", path)]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)  # relative file names, so that stdout names no temporary directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = arc.cli.main([*argv, *flags])
            except SystemExit as e:  # help, or a usage error
                rc = e.code
        name = " ".join(argv)
        entries = {f"{name}: exit": str(rc), f"{name}: stdout": out.getvalue(), f"{name}: stderr": err.getvalue()}
        for key, path in files.items():
            with open(path, encoding="utf-8") as fh:
                entries[f"{name}: --{key} file"] = fh.read()
            os.remove(path)
    finally:
        os.chdir(here)
    return entries


def scene_entries(arc, name: str, scene_dict: dict, start, goal) -> dict:
    scene = arc.sceneio.scene_from_dict(scene_dict)
    req = arc.planner.RouteRequest(arc.geometry.Point(*start), arc.geometry.Point(*goal), scene)
    try:
        plan = arc.planner.plan_route(req)
    except (arc.planner.RouteInfeasible, arc.planner.RequestError) as e:
        plan, verdict = None, f"{type(e).__name__}: {e}"
    else:
        verdict = json.dumps(arc.sceneio.plan_to_dict(f"{start} -> {goal}", plan), indent=1)
    return {
        f"{name}: scene_to_dict": json.dumps(arc.sceneio.scene_to_dict(scene), indent=1),
        f"{name}: render_svg": arc.sceneio.render_svg(scene, None if plan is None else plan.path),
        f"{name}: plan_to_dict": verdict,
    }


def collect(repo: str) -> dict:
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width otherwise
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import arcplan.cli
    import arcplan.geometry
    import arcplan.planner
    import arcplan.sceneio
    import inputs

    arc = arcplan
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for argv in COMMANDS:
            out.update(run(arc, argv, work, FILES.get(argv[0], {})))
        out.update(run(arc, ("export-svg", "--to", "B"), work, FILES["export-svg"]))
        for argv in USAGE:
            out.update(run(arc, argv, work, {}))
    for seed in (1, 2):
        for i, req in enumerate(inputs.cold_scenes(seed, 80)):
            out.update(scene_entries(arc, f"cold {seed}/{i}", req["scene_dict"], req["from"], req["to"]))
    for name, (scene_dict, start, goal) in EXTRA_SCENES.items():
        out.update(scene_entries(arc, name, scene_dict, start, goal))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    reports = collect(os.path.abspath(args.repo))
    text = json.dumps(reports, indent=1) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{len(reports)} entries, sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
