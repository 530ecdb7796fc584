"""Tests of the benchmark's own code: generator, correctness gate, tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job, expect  # noqa: E402

from algdeform import cli, linalg  # noqa: E402


def _tables():
    rng = random.Random(7)
    yield gen.block_sum([2, 1])
    yield gen.permute(gen.block_sum([3, 1]), rng)
    yield gen.change_basis(gen.block_sum([2, 2, 1]), gen.scramble_ops(rng, 9, 9, False))
    t = gen.direct_sum(gen.upper_triangular(3), gen.dual_numbers(), gen.matrix_block(2))
    yield gen.change_basis(t, gen.scramble_ops(rng, t.dim, t.dim, True))
    yield gen.quantum_plane(3, 2, gen.I)
    yield gen.change_basis(gen.quantum_plane(2, 3), gen.scramble_ops(rng, 6, 3, True))
    yield gen.contraction(BENCH / "data" / "contraction_dim12.json")


@pytest.mark.parametrize("table", list(_tables()), ids=lambda t: f"dim{t.dim}")
def test_generated_tables_are_unital_associative(table):
    assert gen.check_table(table) == []


def test_checker_catches_a_broken_table():
    t = gen.block_sum([2])
    t.tab[1][2] = {0: gen.ONE + gen.ONE}
    assert gen.check_table(t)


def test_radical_answers_of_the_constructions():
    # the radical claimed for each summand is a nilpotent ideal of that dimension
    contraction = gen.contraction(BENCH / "data" / "contraction_dim12.json")
    assert gen.nilpotency_index(contraction, [{k: gen.ONE} for k in range(1, 12)]) is not None
    ut = gen.upper_triangular(4)
    strict = [{k: gen.ONE} for k, lbl in enumerate(ut.labels) if lbl[1] != lbl[2]]
    assert len(strict) == ut.radical_dim
    assert gen.nilpotency_index(ut, strict) == 4
    semisimple = gen.block_sum([2, 1])
    assert gen.nilpotency_index(semisimple, [{0: gen.ONE}]) is None


def test_gaussian_scramble_is_non_real():
    rng = random.Random(1)
    t = gen.change_basis(gen.upper_triangular(3), gen.scramble_ops(rng, 6, 3, True))
    assert not t.is_real()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_the_same_bytes(name, tmp_path):
    blocks = []
    for sub in ("a", "b", "c"):
        d = tmp_path / sub
        d.mkdir()
        seed = 5 if sub != "c" else 6
        jobs = WORKLOADS[name].block(seed, 0, d)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        argv = [[a.replace(str(d), "") for a in j.argv] for j in jobs]
        blocks.append((files, argv))
    assert blocks[0] == blocks[1]
    assert blocks[0] != blocks[2]


def test_blocks_past_the_minimum_repeat_the_sampling_keys(tmp_path):
    w = WORKLOADS["obstruct"]
    keys = [sorted(j.sampling_key for j in w.block(1, b, tmp_path))
            for b in range(w.min_blocks + 1)]
    assert keys[w.min_blocks] == keys[0]
    assert keys[1] != keys[0]


def test_wrong_expected_answer_makes_failed_ratio_positive(tmp_path):
    jobs = [j for j in WORKLOADS["profile"].block(1, 0, tmp_path) if j.dim <= 6][:3]
    failures = []
    outcomes = run.run_jobs(cli, jobs, failures)
    assert failures == [] and len(outcomes) == 3
    wrong = Job(jobs[2].argv, expect({"dim": jobs[2].dim + 1}), jobs[2].dim, False)
    outcomes = run.run_jobs(cli, jobs[:2] + [wrong], failures)
    assert len(failures) / len(outcomes) > 0
    assert "expected" in failures[0]


class _FakeCli:
    def __init__(self, text, code=0, exc=None):
        self.text, self.code, self.exc = text, code, exc

    def main(self, argv):
        if self.exc:
            raise self.exc
        sys.stdout.write(self.text)
        return self.code


@pytest.mark.parametrize("fake, reason", [
    (_FakeCli('{"dim": 2}\n{"dim": 2}\n'), "more than one"),
    (_FakeCli("dim: 2\n"), "not JSON"),
    (_FakeCli('{"dim": 2}\n', code=2), "exit code 2"),
    (_FakeCli("", exc=ValueError("boom")), "raised ValueError"),
    (_FakeCli('{"dim": 3}\n'), "expected 2"),
])
def test_gate_rejects(fake, reason):
    outcome = gate.run_job(fake, Job(["analyze"], expect({"dim": 2}), 2, False))
    assert reason in outcome.problem


def test_gate_accepts_one_document():
    outcome = gate.run_job(_FakeCli('{"dim": 2}\n'), Job(["analyze"], expect({"dim": 2}), 2, False))
    assert outcome.problem is None and outcome.document == {"dim": 2}


def test_obstruct_check_requires_sampled_within_bound():
    check = __import__("workloads").obstruct_check(4, 4)
    rows = [{"profile": "1^4", "bound": 4, "sampled": 4, "status": "NotExcluded"},
            {"profile": "2^1", "bound": 4, "sampled": 4, "status": "NotExcluded"}]
    assert check({"dim_in_N": 4, "targets": rows}) == []
    rows[1] = dict(rows[1], sampled=5)
    assert check({"dim_in_N": 4, "targets": rows})


def test_tracers_restore_the_package(tmp_path):
    before = {name: getattr(owner, attr) if not isinstance(val, (classmethod, staticmethod))
              else vars(owner)[attr] for name, owner, attr, val in tracing._targets()}
    mul = vars(linalg.GaussianRational)["__mul__"]
    job = WORKLOADS["profile"].block(1, 0, tmp_path)[0]
    for tracer in (tracing.SpanTracer(), tracing.CallCounter()):
        tracer.install()
        try:
            assert isinstance(vars(linalg.Subspace)["from_vectors"], classmethod)
            assert linalg.Subspace.from_vectors(2, [[1, 0]]).dim == 1
            assert gate.run_job(cli, job).problem is None
        finally:
            tracer.uninstall()
    after = {name: getattr(owner, attr) if not isinstance(val, (classmethod, staticmethod))
             else vars(owner)[attr] for name, owner, attr, val in tracing._targets()}
    assert before == after
    assert vars(linalg.GaussianRational)["__mul__"] is mul
    assert cli.radical is __import__("algdeform.analysis").analysis.radical


def test_span_tracer_sees_names_imported_elsewhere(tmp_path):
    job = next(j for j in WORKLOADS["profile"].block(1, 0, tmp_path) if j.argv[0] == "analyze")
    tracer = tracing.SpanTracer().install()
    try:
        assert gate.run_job(cli, job).problem is None
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # cli calls ``radical`` and ``block_profile`` through its own namespace
    assert summary["cli.main"]["calls"] == 1
    assert summary["analysis.radical"]["calls"] >= 1
    assert summary["linalg.Subspace.from_vectors"]["calls"] >= 1
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_elimination_is_counted_once_where_it_is_done():
    counter = tracing.CallCounter().install()
    try:
        m = linalg.Matrix([[1, 2, 0], [2, 4, 1]])
        assert m.rank == 2 and m.rank == 2  # the second rank reuses the cached rref
        assert m.kernel().dim == 1  # kernel's own Subspace.from_vectors is one more
        linalg.Subspace.from_vectors(3, (v for v in [[1, 0, 0], [0, 1, 0]]))
    finally:
        counter.uninstall()
    assert counter.elim == {"calls": 3, "cells": 2 * 3 + 1 * 3 + 2 * 3}


def test_a_count_that_cannot_be_computed_fails_the_job(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.ARG_COUNTS, "analysis.standard_identity_values",
                        {"tuples": lambda a: a["no_such_argument"]})
    job = next(j for j in WORKLOADS["profile"].block(1, 0, tmp_path) if j.argv[0] == "analyze")
    counter = tracing.CallCounter().install()
    try:
        assert "KeyError" in gate.run_job(cli, job).problem
    finally:
        counter.uninstall()


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS.values():
        assert w.min_blocks * len(w.shapes) * (100 - w.tail_pct) >= 1000
