"""Benchmark entry point: one workload, one seed, one closed-loop client.

Run from the repository root::

    python3 bench/run.py --workload profile --seed 1 --seconds 35 --trace 0

The CLI jobs run in this process through ``algdeform.cli.main(argv)`` with
``--format json``, one at a time, each issued as soon as the previous one
returns.  Jobs come in blocks that hold every shape of the workload once
(see ``workloads.py``); the run stops at the block boundary nearest
``--seconds`` of job time, after the workload's minimum block count.
Every job's output goes through the correctness gate in ``gate.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
block untraced and under the span tracer, alternating per job, then under
the call counter (``tracing.py``), and prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  A human-readable
report goes to stderr; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SPEC_PATH = BENCH.parent / "BENCHMARK.json"  # metric names and units
SETUP_REPEATS = 11
OVERHEAD_ROUNDS = 3  # untraced/traced pairs per job for the tracing overhead
HARD_CAP_S = 140.0  # add no block past this much wall time: a run must end within 180 s

# Import of the CLI plus one warm-up job, timed inside a fresh interpreter.
SETUP_SNIPPET = """\
import io, sys, time
from contextlib import redirect_stdout
start = time.perf_counter()
from algdeform import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", "--input", sys.argv[1], "--format", "json"])
print(time.perf_counter() - start, code)
"""

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def say(text=""):
    sys.stderr.write(text + "\n")


def warm_input(workdir: Path) -> Path:
    path = workdir / "warm.json"
    path.write_text(gen.dumps(gen.dual_numbers().to_json_dict()), encoding="utf-8")
    return path


def measure_setup(root: Path, warm: Path) -> float:
    """Median, over fresh interpreters, of CLI import plus one warm-up job."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(warm)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(fields[0]))
    return statistics.median(times)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def input_properties(jobs):
    keys = [j.sampling_key for j in jobs if j.sampling_key is not None]
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return {
        "nonreal_job_share": sum(j.nonreal for j in jobs) / len(jobs),
        "dim_histogram": dict(sorted(Counter(j.dim for j in jobs).items())),
        "sampling_key_repeat_share": repeats / len(keys) if keys else 0.0,
    }


def run_jobs(cli, jobs, failures):
    """Closed loop over ``jobs``; returns the outcomes, logs failures."""
    outcomes = []
    for job in jobs:
        outcome = gate.run_job(cli, job)
        outcomes.append(outcome)
        if outcome.problem:
            failures.append(f"{' '.join(job.argv)}: {outcome.problem}")
    return outcomes


def timed_run(cli, workload, seed, seconds, workdir):
    """Blocks up to the block boundary nearest ``seconds`` of job time, and
    at least ``workload.min_blocks``; ``complete`` is false when the
    wall-time cap stopped it before that."""
    started = perf_counter()
    jobs, outcomes, failures = [], [], []
    measured, blocks = 0.0, 0
    while True:
        block = workload.block(seed, blocks, workdir)
        done = run_jobs(cli, block, failures)
        jobs += block
        outcomes += done
        measured += sum(o.seconds for o in done)
        blocks += 1
        if measured + measured / blocks / 2 >= seconds and blocks >= workload.min_blocks:
            return jobs, outcomes, failures, blocks, True
        if perf_counter() - started > HARD_CAP_S:
            say(f"stopping early: {blocks} blocks took longer than {HARD_CAP_S:.0f} s")
            return jobs, outcomes, failures, blocks, blocks >= workload.min_blocks


def traced_run(cli, workload, seed, workdir, trace_dir):
    """The first block: untraced and span-traced passes, then a counting pass.

    Each job runs ``OVERHEAD_ROUNDS`` times untraced and as often traced,
    alternating which of the two goes first, so drift in CPU speed falls on
    both.  The spans of the first traced round give the self times.
    """
    jobs = workload.block(seed, 0, workdir)
    failures, plain, traced, ratios = [], [], [], []
    tracers = [tracing.SpanTracer() for _ in range(OVERHEAD_ROUNDS)]
    for index, job in enumerate(jobs):
        plain_s, traced_s = [], []
        for rnd, tracer in enumerate(tracers):
            for with_trace in ((False, True) if (index + rnd) % 2 == 0 else (True, False)):
                if not with_trace:
                    plain += run_jobs(cli, [job], failures)
                    plain_s.append(plain[-1].seconds)
                    continue
                tracer.job = index
                tracer.install()
                try:
                    traced += run_jobs(cli, [job], failures)
                finally:
                    tracer.uninstall()
                traced_s.append(traced[-1].seconds)
        ratios.append(statistics.median(traced_s) / statistics.median(plain_s))

    counter = tracing.CallCounter().install()
    try:
        counted = run_jobs(cli, jobs, failures)
    finally:
        counter.uninstall()

    tracer = tracers[0]
    summary = tracer.summary()
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"summary": summary, "spans": tracer.dump()}), encoding="utf-8")
    values = layer_metrics(tracer, summary, counter, counted)
    values.update({
        "trace.jobs": len(jobs),
        "trace.span_count": len(tracer.spans),
        "trace.jobs_per_s_untraced": len(plain) / sum(o.seconds for o in plain),
        "trace.jobs_per_s_traced": len(traced) / sum(o.seconds for o in traced),
    })
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    values.update({
        "trace.overhead_ratio": q2 - 1,
        "trace.overhead_ratio_q1": q1 - 1,
        "trace.overhead_ratio_q3": q3 - 1,
    })
    say(f"tracing overhead: median per-job traced/untraced time ratio - 1 = {q2 - 1:+.1%}, "
        f"quartiles {q1 - 1:+.1%} .. {q3 - 1:+.1%}"
        + ("; unresolved, the quartiles cover no overhead" if q1 <= 1 <= q3 else ""))
    return jobs, plain + traced + counted, failures, values, summary, spans_path


def layer_metrics(tracer, summary, counter, counted):
    """Per-layer values: self times from the spans, counts from the counter."""
    values = {}
    for name, calls in counter.calls.items():
        values[f"{name}.calls"] = calls
        if tracer.keep(name):
            values[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
    values.update(counter.counts)
    scalar = counter.scalar
    trials = counter.edges.get(
        ("obstruction.sampled_lower_bound", "obstruction.family_span_dim"), 0)
    hits = sum(
        1
        for o in counted
        if o.document
        for row in o.document.get("targets", ())
        if row.get("sampled") is not None and row.get("sampled") == row.get("bound")
    )
    values.update({
        "linalg.scalar_mul": scalar["mul"],
        "linalg.scalar_add": scalar["add"],
        "linalg.scalar_inv": scalar["inv"],
        "linalg.complex_share": scalar["complex_mul"] / scalar["mul"] if scalar["mul"] else 0.0,
        "linalg.elim.calls": counter.elim["calls"],
        "linalg.elim.cells": counter.elim["cells"],
        "linalg.elim.self_s": sum(summary.get(n, {}).get("self_s", 0.0) for n in tracing.ELIM),
        "algebra.ideal_closure.rounds": counter.edges.get(
            ("algebra.ideal_closure", "linalg.Subspace.from_vectors"), 0),
        "ncpoly.tpoly_ops": counter.tpoly_ops,
        "obstruction.sample_trials": trials,
        "obstruction.sample_hit_ratio": hits / trials if trials else 0.0,
    })
    return values


def report_inputs(workload, jobs):
    props = input_properties(jobs)
    say(f"inputs: {len(jobs)} jobs, non-real coefficients in "
        f"{props['nonreal_job_share']:.1%} of them")
    say("  dims: " + ", ".join(f"{d}:{c}" for d, c in props["dim_histogram"].items()))
    if workload.name == "obstruct":
        say(f"  obstruct jobs repeating a (dim, seed, trials) sampling key: "
            f"{props['sampling_key_repeat_share']:.1%}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "algdeform" / "cli.py").is_file():
        say("error: run from the repository root; src/algdeform/cli.py not found")
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warm = warm_input(workdir)
        setup_s = measure_setup(root, warm)
        from algdeform import cli

        warm_outcome = gate.run_job(
            cli, Job(["analyze", "--input", str(warm)], lambda doc: [], 2, False))
        if warm_outcome.problem:
            raise RuntimeError(f"warm-up job failed: {warm_outcome.problem}")
        complete = True
        if args.trace:
            jobs, outcomes, failures, values, summary, spans_path = traced_run(
                cli, workload, args.seed, workdir, root / ".bench_work" / "trace")
            say(f"traced run of workload {workload.name}, seed {args.seed}: "
                f"{len(jobs)} jobs x {2 * OVERHEAD_ROUNDS + 1} passes; spans in {spans_path.relative_to(root)}")
            total_self = sum(row["self_s"] for row in summary.values())
            top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:8]
            for name, row in top:
                say(f"  {row['self_s'] / total_self:6.1%} self  {row['self_s']:8.3f} s  "
                    f"{row['calls']:7d} calls  {name}")
        else:
            jobs, outcomes, failures, blocks, complete = timed_run(
                cli, workload, args.seed, args.seconds, workdir)
            times = [o.seconds for o in outcomes]
            values = {
                "job_s_p50": statistics.median(times),
                "job_s_tail": percentile(times, workload.tail_pct),
                "jobs_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            say(f"workload {workload.name}, seed {args.seed}: {len(times)} jobs in {blocks} "
                f"blocks, closed loop, 1 client; job_s_tail is p{workload.tail_pct}")
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        }
        for name, m in metrics.items():
            say(f"  {name:50s} {m['value']:.6g} {m['unit']}")
        report_inputs(workload, jobs)
        say(f"failed_ratio: {len(failures)}/{len(outcomes)}")
        for line in failures[:5]:
            say(f"  FAILED {line}")
        if not complete:
            say(f"not correct: the run ended before {workload.min_blocks} blocks, "
                f"so job_s_tail (p{workload.tail_pct}) cannot be compared")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures and complete,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
