#!/usr/bin/env python3
"""Run each workload on several seeds and record the spread of its metrics.

    python3 perfbench/baseline.py

Runs run.py once per (workload, seed) for every workload in BENCHMARK.json
and seeds 1 to 10, one run at a time, each in a fresh process, for
BENCHMARK.json's run_seconds; then one traced run per workload. For each
end-to-end metric it records the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, (Q3 - Q1) / median, next
to the metric's bound, in perfbench/baseline.json. Run it from the root of a
checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
OUT = ROOT / "perfbench" / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    result = {"run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            report, line = run_once(workload, seed, seconds, 0)
            if not line["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed: {report['failures']}")
            runs.append(line)
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in line["metrics"].items()}),
                  file=sys.stderr)
        metrics = {}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            metrics[metric["name"]] = stats
        report, traced = run_once(workload, SEEDS[0], seconds, 1)
        result["host"] = report["host"]
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "traced_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    for workload, data in result["workloads"].items():
        for name, stats in data["end_to_end"].items():
            print(f"{workload:16s} {name:12s} median {stats['median']:.4g}  "
                  f"spread {stats['spread']:.3f}  bound {stats['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
