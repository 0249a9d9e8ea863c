"""The committed benchmark records (BENCH_*.json at the repository root)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("warm_queries", "cold_scenes", "colony")
SEEDS = (1, 2, 3)


def test_bench_records_hold_every_workload_and_seed():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["machine"], path.name
        runs = {(run["workload"], run["seed"]): run for run in record["runs"]}
        assert len(runs) == len(record["runs"]), path.name
        assert set(runs) == {(w, s) for w in WORKLOADS for s in SEEDS}, path.name
        for (workload, seed), run in runs.items():
            assert run["command"] == (
                f"python3 perfbench/run.py --workload {workload} --seed {seed} --seconds 30 --trace 0"
            ), (path.name, workload, seed)
            assert run["result"]["correct"] is True, (path.name, workload, seed)
            assert run["result"]["metrics"], (path.name, workload, seed)
