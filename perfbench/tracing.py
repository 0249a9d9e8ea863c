"""Traced run: spans around arcplan's public functions, from outside arcplan.

Each function is wrapped at the name its caller looks up (for example
``arcplan.planner.segment_clear``, which the roadmap build calls), so arcplan's
code is untouched.  A span is (id, parent id, request id, name, start, end) in
``perf_counter_ns`` ticks, kept in memory and written out when the run ends.
Self time is a span's duration minus the durations of its direct children;
children of one span run one after another, so their sum is the part of the
interval they cover.

Two very frequent leaf functions, ``segment_obstacle_distance`` and
``decode_and_cost``, are only counted: a span each would cost more than the
work.  A wrap point whose name no longer exists is skipped, and the metrics
that need it are reported as absent.

Metrics are per traced request.  Which end-to-end metric each layer should move:

  geometry  segment_clear / min_clearance calls and ms: queries_per_s and
            latency_p50_ms on warm_queries; no worse on cold_scenes
  planner   build_roadmap, roadmap size, candidates tried, k_shortest_routes,
            plan_route self time: latency_tail_ms and failed_ratio on warm_queries
  paths     chain_path, validate_path, accept_ratio: latency_tail_ms on warm_queries
  aco       aco_run, decode_and_cost, retries_per_plan: queries_per_s on colony only
  sceneio   load_scene, format_plan_report, plan_to_dict, write_svg:
            latency_p50_ms on cold_scenes, and setup_s
  cli       main self time: latency_p50_ms on cold_scenes
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

SPAN, COUNT, GENERATOR = "span", "count", "generator"

# (module, attribute the caller looks up, span name, how)
WRAPS = (
    ("planner", "segment_clear", "geometry.segment_clear", SPAN),
    ("planner", "min_clearance", "geometry.min_clearance", SPAN),
    ("paths", "min_clearance", "geometry.min_clearance", SPAN),
    ("planner", "blocking_obstacles", "geometry.blocking_obstacles", SPAN),
    ("geometry", "segment_obstacle_distance", "geometry.segment_obstacle_distance", COUNT),
    ("paths", "segment_obstacle_distance", "geometry.segment_obstacle_distance", COUNT),
    ("planner", "build_roadmap", "planner.build_roadmap", SPAN),
    ("planner", "k_shortest_routes", "planner.k_shortest_routes", GENERATOR),
    ("planner", "plan_route", "planner.plan_route", SPAN),
    ("cli", "plan_route", "planner.plan_route", SPAN),
    ("planner", "chain_path", "paths.chain_path", SPAN),
    ("planner", "validate_path", "paths.validate_path", SPAN),
    ("planner", "aco_run", "aco.aco_run", SPAN),
    ("aco", "aco_run", "aco.aco_run", SPAN),
    ("aco", "decode_and_cost", "aco.decode_and_cost", COUNT),
    ("sceneio", "load_scene", "sceneio.load_scene", SPAN),
    ("sceneio", "format_plan_report", "sceneio.format_plan_report", SPAN),
    ("sceneio", "plan_to_dict", "sceneio.plan_to_dict", SPAN),
    ("sceneio", "write_svg", "sceneio.write_svg", SPAN),
    ("cli", "main", "cli.main", SPAN),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        self.name_of = array("q")
        self.parent_name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[tuple[int, int]] = [(-1, -1)]   # open (span id, name id); the bottom is a sentinel
        self.next_id = 0
        self.request = -1
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.yields = 0          # routes the k-shortest search handed out
        self.rejected = 0        # validate_path verdicts that were not ok
        self.accepted = 0
        self.roadmaps: list = []
        self.absent: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = self.next_id
        self.next_id += 1
        self.stack.append((sid, name_id))
        return sid

    def _close(self, sid, name_id, t0, t1):
        self.stack.pop()
        parent, parent_name = self.stack[-1]
        self.sid.append(sid)
        self.parent.append(parent)
        self.parent_name_of.append(parent_name)
        self.request_of.append(self.request)
        self.name_of.append(name_id)
        self.start.append(t0)
        self.end.append(t1)

    def _on_result(self, name: str, result) -> None:
        if name == "paths.validate_path":
            if result.ok:
                self.accepted += 1
            else:
                self.rejected += 1
        elif name == "planner.build_roadmap":
            self.roadmaps.append(result)

    def _span(self, fn, name):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, name_id, t0, perf_counter_ns())
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            self._close(sid, name_id, t0, perf_counter_ns())
            self._on_result(name, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, fn, name):
        """Each resumption of the generator is one span."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer._open(name_id)
                t0 = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(sid, name_id, t0, perf_counter_ns())
                    return
                except BaseException:
                    tracer._close(sid, name_id, t0, perf_counter_ns())
                    raise
                tracer._close(sid, name_id, t0, perf_counter_ns())
                tracer.yields += 1
                yield item

        return wrapper

    def install(self, arc) -> None:
        make = {SPAN: self._span, COUNT: self._counter, GENERATOR: self._generator}
        present = set()
        for module_name, attr, name, how in WRAPS:
            module = getattr(arc, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            present.add(name)
            setattr(module, attr, make[how](fn, name))
        self.absent -= present   # a name counts as absent only if every wrap point is gone

    # -----------------------------------------------------------------------
    # results

    def span_totals(self):
        """name -> (spans, total ns, self ns)."""
        n = len(self.sid)
        child = array("q", bytes(8 * self.next_id))
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out: dict[str, list[int]] = {}
        for k in range(n):
            dur = self.end[k] - self.start[k]
            row = out.setdefault(self.names[self.name_of[k]], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[self.sid[k]]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for k in range(len(self.sid)):
                fh.write(f"{self.sid[k]},{self.parent[k]},{self.request_of[k]},{self.names[self.name_of[k]]},"
                         f"{self.start[k]},{self.end[k]}\n")

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced request, without those whose wrap points are gone."""
        totals = self.span_totals()
        per = 1.0 / requests
        absent = self.absent

        def calls(name):
            return totals.get(name, (0, 0, 0))[0] * per

        def ms(name, column=1):
            return totals.get(name, (0, 0, 0))[column] * 1e-6 * per

        def count(name):
            return self.counts.get(name, 0) * per

        def ratio(num, den):
            return num / den if den else 0.0

        edges = nodes = 0
        for rm in self.roadmaps:
            g = rm.graph
            nodes += g.node_count
            edges += sum(g.has_edge(i, j) for i in range(1, g.node_count + 1) for j in range(i + 1, g.node_count + 1))
        plans_with_colony = self._runs_under("aco.aco_run", "planner.plan_route")

        table = [
            ("geometry.segment_clear.calls", ("geometry.segment_clear",), lambda: calls("geometry.segment_clear"), "calls/req"),
            ("geometry.segment_clear.ms", ("geometry.segment_clear",), lambda: ms("geometry.segment_clear"), "ms/req"),
            ("geometry.min_clearance.calls", ("geometry.min_clearance",), lambda: calls("geometry.min_clearance"), "calls/req"),
            ("geometry.min_clearance.ms", ("geometry.min_clearance",), lambda: ms("geometry.min_clearance"), "ms/req"),
            ("geometry.segment_obstacle_distance.calls", ("geometry.segment_obstacle_distance",),
             lambda: count("geometry.segment_obstacle_distance"), "calls/req"),
            ("planner.build_roadmap.ms", ("planner.build_roadmap",), lambda: ms("planner.build_roadmap"), "ms/req"),
            ("planner.roadmap.nodes", ("planner.build_roadmap",), lambda: ratio(nodes, len(self.roadmaps)), "count"),
            ("planner.roadmap.edges", ("planner.build_roadmap",), lambda: ratio(edges, len(self.roadmaps)), "count"),
            ("planner.candidates.tried", ("planner.k_shortest_routes",), lambda: self.yields * per, "count/req"),
            ("planner.k_shortest_routes.ms", ("planner.k_shortest_routes",), lambda: ms("planner.k_shortest_routes"), "ms/req"),
            ("planner.plan_route.self_ms", ("planner.plan_route",), lambda: ms("planner.plan_route", 2), "ms/req"),
            ("paths.chain_path.calls", ("paths.chain_path",), lambda: calls("paths.chain_path"), "calls/req"),
            ("paths.chain_path.ms", ("paths.chain_path",), lambda: ms("paths.chain_path"), "ms/req"),
            ("paths.chain_path.errors", ("paths.chain_path",), lambda: self.errors.get("paths.chain_path", 0) * per, "count/req"),
            ("paths.validate_path.calls", ("paths.validate_path",), lambda: calls("paths.validate_path"), "calls/req"),
            ("paths.validate_path.ms", ("paths.validate_path",), lambda: ms("paths.validate_path"), "ms/req"),
            ("paths.validate_path.rejected", ("paths.validate_path",), lambda: self.rejected * per, "count/req"),
            ("paths.accept_ratio", ("paths.chain_path", "paths.validate_path"),
             lambda: ratio(self.accepted, totals.get("paths.chain_path", (0,))[0]), "ratio"),
            ("aco.aco_run.calls", ("aco.aco_run",), lambda: calls("aco.aco_run"), "calls/req"),
            ("aco.aco_run.ms", ("aco.aco_run",), lambda: ms("aco.aco_run"), "ms/req"),
            ("aco.decode_and_cost.calls", ("aco.decode_and_cost",), lambda: count("aco.decode_and_cost"), "calls/req"),
            ("aco.retries_per_plan", ("aco.aco_run", "planner.plan_route"),
             lambda: ratio(plans_with_colony[1], plans_with_colony[0]), "runs/plan"),
            ("sceneio.load_scene.ms", ("sceneio.load_scene",), lambda: ms("sceneio.load_scene"), "ms/req"),
            ("sceneio.format_plan_report.ms", ("sceneio.format_plan_report",), lambda: ms("sceneio.format_plan_report"), "ms/req"),
            ("sceneio.plan_to_dict.ms", ("sceneio.plan_to_dict",), lambda: ms("sceneio.plan_to_dict"), "ms/req"),
            ("sceneio.write_svg.ms", ("sceneio.write_svg",), lambda: ms("sceneio.write_svg"), "ms/req"),
            ("cli.main.self_ms", ("cli.main",), lambda: ms("cli.main", 2), "ms/req"),
        ]
        return {metric: (value(), unit) for metric, needs, value, unit in table if not absent.intersection(needs)}

    def _runs_under(self, child_name: str, parent_name: str) -> tuple[int, int]:
        """(distinct `parent_name` spans that directly ran `child_name`, such child spans)."""
        child_id, parent_id = self.name_ids.get(child_name), self.name_ids.get(parent_name)
        parents = set()
        runs = 0
        for k in range(len(self.sid)):
            if self.name_of[k] == child_id and self.parent_name_of[k] == parent_id:
                parents.add(self.parent[k])
                runs += 1
        return len(parents), runs
