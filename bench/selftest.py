"""Tiny-size self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` untraced and traced at tiny sizes
and fails unless each run is correct and emits exactly the metrics
``BENCHMARK.json`` names, each with its unit. Takes about a minute::

    python3 bench/selftest.py
"""

import json
import math
import sys

import run

TINY = {
    "select-hd": {"n": 30, "p": 40, "kfold_grid": 5},
    "graph": {"n": 120, "p": 40, "blocks": 4},
    "risk-mc": {"p": 25, "sizes": (5, 10), "reps": 2, "mc_reps": 400},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {list(run.WORKLOADS)}")
    for workload in workloads:
        for trace in (0, 1):
            _, result = run.run(workload, seed=7, seconds=0.1, trace=bool(trace), sizes=TINY)
            metrics = result["metrics"]
            tag = f"{workload} trace={trace}"
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want[trace]:
                missing = sorted(set(want[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want[trace].items()))
                problems.append(f"{tag}: metrics missing {missing}, unexpected {extra}")
            values = [m["value"] for m in metrics.values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"{tag}: non-finite metric value")
            if not trace and not all(v > 0 for v in values):
                problems.append(f"{tag}: an end-to-end metric is not positive")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            print(f"{tag}: {len(metrics)} metrics, correct={result['correct']}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
