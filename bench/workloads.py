"""The benchmark's workloads: job mixes, their seeded inputs, expected answers.

A workload is a fixed multiset of job *shapes* (subcommand, algebra or
presentation, size).  A run issues the shapes in blocks: every block holds
each shape once, in a seeded order, on freshly generated inputs, so the mix
of sizes is the same for every seed and only the bases, labels, scrambles
and sampling seeds change.  Input files are written before a block starts;
each job's answer is checked against values known from the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Job:
    """One CLI invocation and what its JSON document must contain."""

    argv: list
    check: Callable[[dict], list]  # document -> list of problems (empty when right)
    dim: int
    nonreal: bool
    sampling_key: tuple | None = None  # (dim, seed, trials) for obstruct jobs


@dataclass(frozen=True)
class Workload:
    """A job mix; why each workload exists is stated in BENCHMARK.json."""

    name: str
    shapes: tuple
    # (shape, rng, path prefix, position) -> Job, where position is the block
    # index mod min_blocks plus the shape index
    make: Callable
    min_blocks: int  # enough blocks for >= 10 samples beyond the tail percentile

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with at least ten samples beyond it in the
        shortest run; fixed per workload so two commits compare one rank."""
        n = self.min_blocks * len(self.shapes)
        return (100 * (n - 10)) // n

    def block(self, seed: int, index: int, workdir: Path) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        order = list(range(len(self.shapes)))
        rng.shuffle(order)
        return [
            self.make(
                self.shapes[s],
                random.Random(f"{self.name}:{seed}:{index}:{s}"),
                workdir / f"b{index}s{s}",
                index % self.min_blocks + s,
            )
            for s in order
        ]


# -- answer checks ------------------------------------------------------------------


def _diff(expected, actual, path="$"):
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            yield f"{path}: expected an object, got {actual!r}"
            return
        for key, value in expected.items():
            if key not in actual:
                yield f"{path}.{key}: missing"
            else:
                yield from _diff(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            yield f"{path}: expected {expected!r}, got {actual!r}"
            return
        for k, (e, a) in enumerate(zip(expected, actual)):
            yield from _diff(e, a, f"{path}[{k}]")
    elif expected != actual or type(expected) is not type(actual):
        yield f"{path}: expected {expected!r}, got {actual!r}"


def expect(fields):
    """Check that the document contains ``fields`` (recursively, exactly)."""
    return lambda doc: list(_diff(fields, doc))


def _profile_json(blocks):
    return {str(j): c for j, c in sorted(blocks.items())}


def _write(prefix: Path, doc) -> str:
    path = prefix.with_suffix(".json")
    path.write_text(gen.dumps(doc), encoding="utf-8")
    return str(path)


def _shuffle_relations(doc, rng):
    doc = dict(doc)
    doc["relations"] = list(doc["relations"])
    rng.shuffle(doc["relations"])
    return doc


# -- analyze / identity-span on structure tables ----------------------------------------


def analyze_job(t: gen.Table, prefix: Path) -> Job:
    path = _write(prefix, t.to_json_dict())
    fields = {
        "dim": t.dim,
        "radical_dim": t.radical_dim,
        "semisimple": t.radical_dim == 0,
        "profile": _profile_json(t.blocks),
        "filtration_dims": gen.filtration_dims(t.blocks),
    }
    return Job(["analyze", "--input", path], expect(fields), t.dim, not t.is_real())


def identity_span_job(t: gen.Table, m: int, prefix: Path) -> Job:
    path = _write(prefix, t.to_json_dict())
    span, ideal = gen.identity_span_dims(t.blocks, m)
    fields = {"dim": t.dim, "m": m, "span_dim": span, "ideal_dim": ideal}
    return Job(
        ["identity-span", "--input", path, "--m", str(m)],
        expect(fields), t.dim, not t.is_real(),
    )


def _scramble(t: gen.Table, kind: str, gaussian=False) -> gen.Table:
    """The table on a basis of the same cost for every seed.

    Matrix-unit bases are kept.  Scrambles apply dim (or dim/2 when ``kind``
    is "half") elementary operations b_a += s*b_b that are fixed by the
    table's size, since fill-in and so the job's cost depend on them (a
    seeded choice of the signs alone moved the scalar operation count of one
    job by up to 1.47x between seeds).  The seed only permutes the result.
    """
    if kind == "units":
        return t
    count = t.dim if kind == "scrambled" else max(2, t.dim // 2)
    ops = gen.scramble_ops(random.Random(f"layout:{t.dim}:{count}"), t.dim, count, gaussian)
    return gen.change_basis(t, ops)


# Scrambled tables depend only on the shape, so each is built once per run.
@lru_cache(maxsize=None)
def _profile_table(kind, sizes):
    return _scramble(gen.block_sum(sizes), kind)


@lru_cache(maxsize=None)
def _radical_table(summands):
    parts = [_summand(spec) for spec in summands]
    t = parts[0] if len(parts) == 1 else gen.direct_sum(*parts)
    return _scramble(t, "half", gaussian=True)


def make_profile(shape, rng, prefix, position):
    cmd, kind, sizes, m = shape
    t = gen.permute(_profile_table(kind, sizes), rng)
    if cmd == "analyze":
        return analyze_job(t, prefix)
    return identity_span_job(t, m, prefix)


# Cost groups (seconds on a 2-core x86-64 box): seven light jobs below 0.1 s;
# four alike identity spans of dim 12 (0.19 s) in the middle; two jobs of
# 0.25-0.3 s; three alike scrambled tables of dim 9 (0.47 s); identity spans
# of degree 3 and the dim-14 analyze (0.7 and 1.7 s) on top.  The median
# falls in the middle of the first alike group and p81 in the middle of the
# second, for any number of blocks, so each rank reads many runs of one shape.
PROFILE_SHAPES = (
    ("analyze", "units", (2,), 0),
    ("analyze", "units", (2, 1), 0),
    ("analyze", "units", (2, 1, 1), 0),
    ("analyze", "units", (2, 2), 0),
    ("analyze", "units", (2, 2, 1), 0),
    ("analyze", "scrambled", (2, 1), 0),
    ("analyze", "scrambled", (2, 1, 1), 0),
    ("identity-span", "units", (2, 2, 2), 2),
    ("identity-span", "units", (2, 2, 2), 2),
    ("identity-span", "units", (2, 2, 2), 2),
    ("identity-span", "units", (2, 2, 2), 2),
    ("identity-span", "units", (3, 1, 1, 1), 2),
    ("analyze", "units", (3, 1), 0),
    ("analyze", "scrambled", (2, 2, 1), 0),
    ("analyze", "scrambled", (2, 2, 1), 0),
    ("analyze", "scrambled", (2, 2, 1), 0),
    ("identity-span", "scrambled", (2, 2, 1), 3),
    ("analyze", "units", (3, 2, 1), 0),
)


# -- radical: non-semisimple tables on Gaussian scrambles, table-family scans -----------


def _summand(spec):
    kind, *args = spec
    if kind == "UT":
        return gen.upper_triangular(*args)
    if kind == "D":
        return gen.dual_numbers()
    if kind == "M":
        return gen.matrix_block(*args)
    return gen.contraction(DATA / "contraction_dim12.json")


def scan_fields(answers, base: Fraction, count: int):
    rows, verdict = gen.scan_expected(answers, count)
    for row in rows:
        row["s"] = gen.rat_str(base / 2 ** row["k"])
        row["error"] = None
    return {"samples": rows, "verdict": verdict}


SCAN_BASES = ("1/2", "1/3", "3/4")


def scan_job(doc, answers, count, rng, prefix) -> Job:
    base = rng.choice(SCAN_BASES)
    return Job(
        ["scan", "--input", _write(prefix, doc), "--base", base, "--count", str(count)],
        expect(scan_fields(answers, Fraction(base), count)),
        answers["dim"], False,
    )


def make_radical(shape, rng, prefix, position):
    if shape[0] == "analyze":
        return analyze_job(gen.permute(_radical_table(shape[1]), rng), prefix)
    if shape[0] == "relations":
        _, exps, split = shape
        doc, answers = gen.relation_family(list(exps), split)
        return scan_job(_shuffle_relations(doc, rng), answers, 3, rng, prefix)
    _, k, const, count = shape
    doc, answers = gen.root_family(k, [_summand(spec) for spec in const])
    return scan_job(doc, answers, count, rng, prefix)


# Cost groups (seconds on a 2-core x86-64 box): three table-family scans, one
# relation-family scan (the benchmark's only one, so that SampledFamily is
# measured) and two light tables (dims 10-12) below; three alike tables of
# dim 14 (0.2 s) in the middle; one of dim 15; three alike tables of dim 19
# (0.5 s); the contraction algebra and dim 28 (1.3 and 1.9 s) on top.  The median falls
# in the middle of the dim-14 group and p77 in the middle of the dim-19
# group, for any number of blocks, so those two ranks are each the median of
# many runs of one shape rather than a pick among shapes of different cost.
RADICAL_SHAPES = (
    ("scan", 3, (("D",),), 4),
    ("relations", (3, 2), False),
    ("scan", 4, (("M", 2),), 4),
    ("scan", 5, (("UT", 2),), 4),
    ("analyze", (("UT", 4),)),
    ("analyze", (("UT", 4), ("D",))),
    ("analyze", (("UT", 4), ("D",), ("D",))),
    ("analyze", (("UT", 4), ("D",), ("D",))),
    ("analyze", (("UT", 4), ("D",), ("D",))),
    ("analyze", (("UT", 5),)),
    ("analyze", (("UT", 5), ("D",), ("D",))),
    ("analyze", (("UT", 5), ("D",), ("D",))),
    ("analyze", (("UT", 5), ("D",), ("D",))),
    ("analyze", (("C",),)),
    ("analyze", (("UT", 7),)),
)


# -- obstruct: the tower filter with seeded sampling --------------------------------------

# Sampling cost depends on the sampling seed (trials stop early once a
# profile's model algebra is spanned), so the seed is a function of the job's
# place, (block mod 4) + shape index, and not of the workload seed: every run
# samples the same seeds and only the files differ.  Blocks past the minimum
# of four repeat the seeds of the first four, so a run that gets a fifth
# block adds jobs of the same costs rather than new ones.  With 8 seeds,
# shapes of equal dimension repeat (dim, seed, trials) keys now and then.
OBSTRUCT_SEEDS = 8
TRIALS = 50


def obstruct_check(n, span):
    """dim_in_N and every row's bound and status from the tower ceiling, and
    the sampled lower bound an integer no larger than the certified bound."""
    rows = gen.tower_statuses(n, span)

    def check(doc):
        problems = list(_diff({"dim_in_N": span}, doc))
        got = {}
        for row in doc.get("targets", []):
            got[row.get("profile")] = (row.get("bound"), row.get("status"))
            sampled = row.get("sampled")
            if not isinstance(sampled, int) or not 0 < sampled <= row.get("bound", -1):
                problems.append(f"row {row.get('profile')}: sampled {sampled!r} exceeds bound")
        if got != rows:
            problems.append(f"$.targets: expected {rows!r}, got {got!r}")
        return problems

    return check


def make_obstruct(shape, rng, prefix, position):
    seed = position % OBSTRUCT_SEEDS
    tail = ["--seed", str(seed)]
    kind = shape[0]
    if kind == "presentation":
        _, a, b, q_i = shape
        doc = _shuffle_relations(gen.commutative_presentation([a, b], q_i=q_i), rng)
        argv = ["obstruct", "--input", _write(prefix, doc), "--generators", "x,y"]
        n, span, nonreal = a * b, 2 * a, q_i
    else:
        # x^i (i < a) and y*x^i (i < a) are distinct nonzero normal-ordered
        # monomials up to a power of q, so the tower spans 2a (b >= 2).
        _, a, b, q_i, basis = shape
        t = gen.quantum_plane(a, b, gen.I if q_i else gen.ONE)
        n, span = a * b, 2 * a
        gx, gy = t.labels.index("x"), t.labels.index("y")
        if basis == "labels":
            t = gen.permute(t, rng)
            selector = "x,y"
        else:
            ops = gen.scramble_ops(random.Random(f"layout:{n}:{n // 2}"), n, n // 2,
                                   basis == "gaussian")
            coords = [gen.new_coords(ops, n, {g: gen.ONE}) for g in (gx, gy)]
            t = gen.change_basis(t, ops)
            selector = ";".join(
                ",".join(str(c.get(k, gen.G())) for k in range(n)) for c in coords
            )
        nonreal = q_i or basis == "gaussian"
        # "=" keeps argparse from reading a leading "-" coordinate as an option
        argv = ["obstruct", "--input", _write(prefix, t.to_json_dict()), f"--generators={selector}"]
    return Job(argv + tail, obstruct_check(n, span), n, nonreal, (n, seed, TRIALS))


# Cost groups: the six jobs of dims 4-6 stop sampling within a few trials;
# the median falls in the middle of nine real jobs of dim 8 (three copies of
# three shapes, about 0.05 s), so it is an order statistic of many short
# jobs; two Gaussian dim-8 jobs follow (0.1 s); p88 falls in the middle of
# three jobs of dims 9-10 (about 1-1.3 s), below the dim-12 presentation
# (2.2-2.8 s); those four run all 50 trials.  The two dim-9 shapes sit at
# indices 5 and 9, so in the first four blocks their sampling seeds (5, 6,
# 7, 0 and 1, 2, 3, 4) never give one key twice; a fifth block repeats the
# keys of the first.
OBSTRUCT_SHAPES = (
    ("presentation", 2, 2, False),
    ("presentation", 2, 3, False),
    ("presentation", 3, 2, True),
    ("presentation", 2, 4, False),
    ("presentation", 4, 2, False),
    ("presentation", 3, 3, False),
    ("presentation", 3, 4, True),
    ("algebra", 2, 2, False, "labels"),
    ("algebra", 2, 3, True, "labels"),
    ("algebra", 3, 3, False, "labels"),
    ("algebra", 3, 2, False, "rational"),
    ("algebra", 2, 4, True, "gaussian"),
    ("algebra", 4, 2, False, "labels"),
    ("algebra", 4, 2, True, "gaussian"),
    ("algebra", 5, 2, False, "rational"),
    ("presentation", 2, 4, False),
    ("presentation", 4, 2, False),
    ("algebra", 4, 2, False, "labels"),
    ("presentation", 2, 4, False),
    ("presentation", 4, 2, False),
    ("algebra", 4, 2, False, "labels"),
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("profile", PROFILE_SHAPES, make_profile, min_blocks=3),
        Workload("radical", RADICAL_SHAPES, make_radical, min_blocks=3),
        Workload("obstruct", OBSTRUCT_SHAPES, make_obstruct, min_blocks=4),
    )
}
