"""One cold start, run in a fresh interpreter by run.py.

Times importing arcplan plus the workload's set-up, then the first request,
and prints both as one JSON line:

    python3 perfbench/probe.py ROOT WORKLOAD REQUEST_JSON
"""

import json
import sys
from time import perf_counter

import workloads


def main(argv) -> int:
    root, workload, request = argv[1], argv[2], json.loads(argv[3])
    t0 = perf_counter()
    arc = workloads.load_arcplan(root)
    state = workloads.setup(arc, workload)
    t1 = perf_counter()
    try:
        workloads.execute(arc, state, request)
    except Exception:  # a failed request still took this long; the main loop counts failures
        pass
    t2 = perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "first_ms": (t2 - t1) * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
