"""arcplan benchmark: one seeded workload, one client in a closed loop.

    python3 perfbench/run.py --workload warm_queries --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports arcplan from ``src/`` and needs
only the standard library.  Workloads:

  warm_queries  the builtin scene loaded once; O->A, O->B, O->C, then random
                pairs (uniform points with clearance >= 10.5, pairs with no
                straight route), all on the exact engine.
  cold_scenes   every request is its own random scene file with 6, 12, 18 or
                24 obstacles in turn and one random query, run as
                ``arcplan plan --scene F --from .. --to .. --out .. --svg ..``
                through ``cli.main`` in-process.
  colony        per colony seed drawn from --seed: ``aco_run`` on the 15-node
                graph, then colony-engine plans O->A, O->B, O->C.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the first half of the requests untraced and then traced (tracing.py) and
prints the per-layer metrics, with the tracing overhead.  Each pass imports
arcplan afresh.  Every answer is checked by oracle.py.  The last line of
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 unless an answer was wrong (a route failing the check, or
a named-target length off its stored optimum), or the run could not start.  A
request that gets no answer (an infeasible verdict, exit 3, an exception) is a
failure, counted in ``failed`` and ``failed_ratio``.

Steadiness.  Run-to-run spread has two sources: which inputs a seed draws,
and the machine.  Against the first, a run times many distinct requests in a
fixed rotation of request kinds.  The second is the larger: on a shared host
the speed of the same code drifts by 10-40% over seconds to minutes, in wall
and CPU time alike, and no run is long enough to average it out.  So the run
also times a fixed slice of pure-Python geometry from the benchmark's own
code (Reference) before every timed request and around every cold start.  The
slice slows with the host much as arcplan does, and each end-to-end time is
scaled by REFERENCE_MS over the median of the slices nearest to it: the
figures are milliseconds and seconds on a host where the slice takes
REFERENCE_MS, its time on a quiet 2-vCPU Xeon host.  Unscaled figures and the
slice's median are printed too.  Timings are medians or whole-run rates.  The
cold starts behind setup_s and first_query_ms all run one fixed request and
are spread evenly over the run; both are medians.  Time spent checking
answers, on slices and on cold starts is outside the measured time.  A run's
request list is fixed by its seed and --seconds, never by the clock, so runs
with one seed attempt and fail exactly the same requests.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import inputs
import oracle
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
REFERENCE_MS = 19.0      # end-to-end times are scaled to a host where one reference slice takes this
COLD_STARTS = 15         # fresh-interpreter cold starts per run, for setup_s and first_query_ms
TAIL_BEYOND = 10         # the tail percentile is the highest with this many samples beyond it
OUT_DIR = os.path.join(ROOT, ".perfbench")


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}, load average {load}"


def run_pass(arc, state, checker, requests, order, *, tracer=None, before=None):
    """Closed loop, one request at a time, in `order` (indices into
    `requests`).  `before(k)` runs untimed before the k-th request of the
    pass.  Returns (latency in s of each request, the moment it ran half
    way, outcomes in run order)."""
    latencies = [0.0] * len(requests)
    moments = [0.0] * len(requests)
    outcomes = []
    for k, i in enumerate(order):
        if before is not None:
            before(k)
        req = requests[i]
        if tracer is not None:
            tracer.request = i
        error = result = None
        t0 = perf_counter()
        try:
            result = workloads.execute(arc, state, req)
        except Exception as e:  # a failed request is counted, not fatal
            error = e
        t1 = perf_counter()
        latencies[i], moments[i] = t1 - t0, (t0 + t1) / 2
        outcomes.append(workloads.check(checker, req, result, error))
    return latencies, moments, outcomes


def start_pass(inp, workload, checker, directory):
    """A fresh import of arcplan, set up and warmed up, with the pass's requests."""
    arc = workloads.load_arcplan(ROOT, fresh=True)   # module caches start empty
    warmup, requests = inp.for_pass(directory)
    state = workloads.setup(arc, workload)
    outcome = workloads.check(checker, warmup, workloads.execute(arc, state, warmup), None)
    if outcome.status == "wrong":
        raise RuntimeError(f"warm-up request answered wrongly: {outcome.detail}")
    return arc, state, requests


class Reference:
    """A fixed slice of work that tracks the host's speed: segment clearances
    against a fixed 12-obstacle scene, by the benchmark's own geometry, which
    no change to arcplan touches.  A slice runs before every timed request
    and on both sides of every cold start; a time measured at moment t is
    scaled by REFERENCE_MS over the median of the NEAREST slices around t."""

    SEGMENTS = 100
    NEAREST = 5

    def __init__(self):
        rng = random.Random(0)
        self.shapes = oracle.scene_shapes(inputs.random_scene(rng, 12))
        field = inputs.FIELD
        self.segments = [((rng.uniform(0, field), rng.uniform(0, field)),
                          (rng.uniform(0, field), rng.uniform(0, field))) for _ in range(self.SEGMENTS)]
        self.moments: list[float] = []
        self.times: list[float] = []

    def run(self) -> None:
        t0 = perf_counter()
        for a, b in self.segments:
            oracle.segment_clearance(a, b, self.shapes)
        t1 = perf_counter()
        self.moments.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    def scale(self, moment: float) -> float:
        """Factor from the host's speed at `moment` to the reference host's."""
        i = bisect.bisect(self.moments, moment)
        lo = max(0, min(i - self.NEAREST // 2, len(self.times) - self.NEAREST))
        return REFERENCE_MS / (statistics.median(self.times[lo:lo + self.NEAREST]) * 1e3)


class ColdStarts:
    """Set-up seconds and first-request milliseconds of fresh interpreters,
    COLD_STARTS of them, all running the same request.  They run at evenly
    spaced points of the run's `slots` requests, so they see the same machine
    as the timed requests."""

    def __init__(self, workload: str, first: dict, slots: int):
        self.workload = workload
        self.request = {key: v for key, v in first.items() if key != "scene_dict"}
        self.due_at = {int((j + 0.5) * slots / COLD_STARTS) for j in range(COLD_STARTS)}
        self.setups: list[float] = []
        self.firsts: list[float] = []
        self.moments: list[float] = []

    def due(self, slot: int) -> bool:
        return slot in self.due_at

    def remaining(self) -> int:
        return COLD_STARTS - len(self.setups)

    def run_one(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, PROBE, ROOT, self.workload, json.dumps(self.request)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        self.moments.append((t0 + perf_counter()) / 2)
        self.setups.append(got["setup_s"])
        self.firsts.append(got["first_ms"])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def report_quality(outcomes) -> tuple[int, int, dict]:
    """Print failures and answer quality; returns (failed, wrong, metrics)."""
    kinds: dict[str, int] = {}
    for o in outcomes:
        if o.status != "ok":
            key = f"{o.status}: {o.detail}"
            kinds[key] = kinds.get(key, 0) + 1
    for key, k in sorted(kinds.items()):
        print(f"  {k} x {key}")
    n = len(outcomes)
    failed = sum(kinds.values())
    wrong = sum(o.status == "wrong" for o in outcomes)
    excess = [x for o in outcomes for x in o.excess]
    print(f"failed_ratio {failed / n:.6f} ratio ({failed} of {n})")
    if excess:
        print(f"route_excess_ratio {statistics.fmean(excess):.6f} ratio (over {len(excess)} answers with a stored optimum)")
    else:
        print("route_excess_ratio n/a (no answer with a stored optimum)")
    quality = {
        "failed_ratio": (failed / n, "ratio"),
        "route_excess_ratio": (statistics.fmean(excess) if excess else 0.0, "ratio"),
    }
    return failed, wrong, quality


def end_to_end(args, checker, inp, tmpdir):
    n = len(inp.requests)
    cold = ColdStarts(args.workload, inp.first, n)
    reference = Reference()

    def cold_start():
        reference.run()
        cold.run_one()

    def before(k):
        if cold.due(k):
            cold_start()
        reference.run()

    arc, state, requests = start_pass(inp, args.workload, checker, os.path.join(tmpdir, "pass"))
    latencies, moments, outcomes = run_pass(arc, state, checker, requests, range(n), before=before)
    reference.run()
    for _ in range(cold.remaining()):
        cold_start()
        reference.run()

    scaled_ms = [x * 1e3 * reference.scale(t) for x, t in zip(latencies, moments)]
    cold_scales = [reference.scale(t) for t in cold.moments]
    pct, tail_ms = tail(scaled_ms)
    metrics = {
        "queries_per_s": (1e3 * n / sum(scaled_ms), "1/s"),
        "latency_p50_ms": (statistics.median(scaled_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "first_query_ms": (statistics.median(x * f for x, f in zip(cold.firsts, cold_scales)), "ms"),
        "setup_s": (statistics.median(x * f for x, f in zip(cold.setups, cold_scales)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "queries_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail([x * 1e3 for x in latencies])[1],
        "first_query_ms": statistics.median(cold.firsts),
        "setup_s": statistics.median(cold.setups),
    }
    print(f"requests {n} in {sum(latencies):.3f} s of request time; reference slice median "
          f"{statistics.median(reference.times) * 1e3:.3f} ms over {len(reference.times)} slices "
          f"(times are scaled to {REFERENCE_MS} ms)")
    for name, (value, unit) in metrics.items():
        note = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        if name == "latency_tail_ms":
            note += f"  (p{pct:.2f}, {n} samples, {TAIL_BEYOND} beyond)"
        elif name in ("first_query_ms", "setup_s"):
            note += f"  (median of {len(cold.setups)} cold starts)"
        print(f"{name} {value:.6g} {unit}{note}")
    failed, wrong, _ = report_quality(outcomes)
    return n, failed, wrong, metrics


def traced(args, checker, inp, tmpdir):
    n = -(-len(inp.requests) // 2)   # two passes over the first half: about the work of an end-to-end run
    arc, state, requests = start_pass(inp, args.workload, checker, os.path.join(tmpdir, "plain"))
    plain, _, _ = run_pass(arc, state, checker, requests, range(n))

    arc, state, requests = start_pass(inp, args.workload, checker, os.path.join(tmpdir, "traced"))
    tracer = tracing.Tracer()
    tracer.install(arc)
    latencies, _, outcomes = run_pass(arc, state, checker, requests, range(n), tracer=tracer)

    metrics = tracer.layer_metrics(n)
    overhead = (statistics.fmean(latencies) - statistics.fmean(plain)) * 1e3
    metrics["trace.overhead_ms"] = (overhead, "ms/req")
    failed, wrong, quality = report_quality(outcomes)
    metrics.update(quality)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
    tracer.write_spans(spans)
    print(f"traced requests {n}; untraced mean {statistics.fmean(plain) * 1e3:.3f} ms, "
          f"traced mean {statistics.fmean(latencies) * 1e3:.3f} ms; {len(tracer.sid)} spans in {spans}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name in sorted(tracer.absent):
        print(f"absent: {name} (no such function to wrap)")
    return n, failed, wrong, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them one after another in fresh processes")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "arcplan", "__init__.py")):
        print(f"error: no arcplan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"machine: {machine()}")
    arc = workloads.load_arcplan(ROOT)
    checker = workloads.make_checker(arc)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        count = math.ceil(workloads.TIMED_PER_SECOND[args.workload] * args.seconds)
        inp = workloads.make_inputs(arc, args.workload, args.seed, count, tmpdir)
        run = traced if args.trace else end_to_end
        attempted, failed, wrong, metrics = run(args, checker, inp, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if wrong:
        print(f"error: {wrong} wrong answer(s)", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
