"""Run the benchmark over workloads and seeds and print every metric.

From the repository root::

    python3 bench/report.py                      # every workload, seed 1, traced too
    python3 bench/report.py --seeds 1-10 --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, with the workloads and the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric the table gives the median over the seeds, the quartile spread
(q3 - q1) / median as ``statistics.quantiles(values, n=4)`` computes it, and
the metric's bound from ``BENCHMARK.json``.  The traced run adds every
per-layer metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, traced):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(traced)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--out", type=Path, help="write medians and spreads as JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, s, False) for s in seed_list(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        rows = {}
        print(f"\n== {workload}: {len(runs)} run(s); failed {failed}/{attempted} jobs"
              + ("" if correct else "; NOT CORRECT"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, spr = statistics.median(values), spread(values)
            flag = "" if spr < bound / 3 else "  (spread above bound/3)"
            print(f"  {name:48s} {med:12.6g} {unit:6s} spread {spr:6.1%} bound {bound:.0%}{flag}")
            rows[name] = {"median": med, "spread": spr, "unit": unit, "values": values}
        summary[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                             "end_to_end": rows}
        traced = run_once(spec, workload, seed_list(args.seeds)[0], True)
        print(f"  -- per layer (traced run, failed {traced['failed']}/{traced['attempted']})")
        for name, m in traced["metrics"].items():
            print(f"  {name:48s} {m['value']:12.6g} {m['unit']}")
        summary[workload]["per_layer"] = {
            name: m["value"] for name, m in traced["metrics"].items()
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
