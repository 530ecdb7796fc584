"""Regenerate the CLI timings on ``demos/data`` that ROADMAP.md quotes.

From the repository root::

    python3 bench/demo_timings.py

Each CLI line is the median wall time of ``python3 -m algdeform ...`` as a
fresh process (interpreter start included, as a user sees it).  The last
lines time ``block_profile`` of M3+M2+M1 (dim 14) in-process and one
multiplication of each scalar type.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
DATA = ROOT / "demos" / "data"
REPEATS = 3


def cli_seconds(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "algdeform", *args], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=600)
        times.append(perf_counter() - start)
    return statistics.median(times)


def main():
    work = ROOT / ".bench_work" / "demo"
    work.mkdir(parents=True, exist_ok=True)
    acon = str(work / "acon.json")
    pres = str(DATA / "contraction_dim12.json")
    lines = [
        ("build", ["build", "--input", pres, "--out", acon]),
        ("analyze", ["analyze", "--input", acon]),
        ("obstruct", ["obstruct", "--input", pres, "--generators", "x,y"]),
        ("obstruct --trials 0", ["obstruct", "--input", pres, "--generators", "x,y",
                                 "--trials", "0"]),
        ("scan", ["scan", "--input", str(DATA / "dual_number_family.json")]),
    ]
    print(f"CLI on demos/data, median of {REPEATS} fresh processes:")
    for label, cli_args in lines:
        print(f"  {label:22s} {cli_seconds(cli_args):.2f} s")

    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import gen
    from algdeform.algebra import StructureAlgebra
    from algdeform.analysis import block_profile
    from algdeform.linalg import GaussianRational

    alg = StructureAlgebra.from_json_dict(gen.block_sum([3, 2, 1]).to_json_dict())
    start = perf_counter()
    block_profile(alg)
    print(f"  block_profile M3+M2+M1 (dim 14): {perf_counter() - start:.2f} s")
    number = 200_000
    for label, a, b in (
        ("GaussianRational", GaussianRational(Fraction(3, 7), 0), GaussianRational(Fraction(5, 11), 0)),
        ("Fraction", Fraction(3, 7), Fraction(5, 11)),
        ("int", 3, 5),
    ):
        per_op = timeit.timeit("a * b", globals={"a": a, "b": b}, number=number) / number
        print(f"  {label} *: {per_op * 1e6:.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
