"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either trivial, verified against an independent
oracle computed here, or a frozen regression value recorded when it was
first derived.  Timing limits are asserted where the criterion carries one.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

from algdeform.analysis import (
    BlockProfile,
    block_profile,
    enumerate_semisimple_types,
    gram_matrix,
    identity_span,
    radical,
    standard_identity_values,
)
from algdeform.algebra import quotient
from algdeform.constructions import (
    direct_sum,
    dual_numbers,
    from_block_sizes,
    matrix_unit_algebra,
    scalar_field,
    upper_triangular_algebra,
)
from algdeform.deformation import STABLE, dual_number_family, scan
from algdeform.linalg import Subspace
from algdeform.ncpoly import parse_ncpoly
from algdeform.obstruction import admissible_targets, family_span_dim
from algdeform.presentation import Presentation, build

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "demos" / "data"

ACON_RELATIONS = (
    "y^6 - x^3 - y^2*x",
    "y^4*x + x^2 + y^2",
    "x^4 - y^4",
    "y*x^2 + y^3",
    "x*y + y*x",
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: the worked 12-dimensional example, end to end --------------


def test_criterion_1_contraction_algebra_end_to_end():
    start = time.monotonic()
    gens = ("x", "y")
    rels = [parse_ncpoly(s, gens) for s in ACON_RELATIONS]
    result = build(Presentation(gens, rels, expected_dim=12))
    dim_ok = result.algebra.dim == 12

    gx = result.generator_element("x")
    gy = result.generator_element("y")
    tower = family_span_dim(result.algebra, gx, gy, 12)
    tower_ok = tower == 12

    obstruction = admissible_targets(result.algebra, gx, gy, trials=50, seed=0)
    excluded_ok = obstruction.excluded == (BlockProfile({3: 1, 1: 3}),)
    kept_ok = obstruction.not_excluded == (
        BlockProfile({1: 12}),
        BlockProfile({2: 1, 1: 8}),
        BlockProfile({2: 2, 1: 4}),
        BlockProfile({2: 3}),
    )
    elapsed = time.monotonic() - start
    report(
        1,
        dim_ok and tower_ok and excluded_ok and kept_ok and elapsed < 60,
        f"dim 12, tower span {tower}, 4 admissible + 1 excluded target, "
        f"{elapsed:.1f}s (< 60s)",
    )


# -- criterion 2: standard-identity behavior on matrix algebras --------------


def test_criterion_2_standard_identity_suite():
    start = time.monotonic()
    ok = True
    details = []
    for k in (1, 2, 3):
        alg = matrix_unit_algebra(k)
        below = identity_span(alg, k - 1).dim
        ok = ok and below > 0
        details.append(f"M{k}: span(m={k - 1})={below}")
        for m in range(k, k + 3):
            vanishing = identity_span(alg, m).dim
            ok = ok and vanishing == 0
    elapsed = time.monotonic() - start
    report(
        2,
        ok and elapsed < 120,
        f"{'; '.join(details)}; all spans at m >= k vanish exactly, "
        f"{elapsed:.1f}s (< 120s)",
    )


# -- criterion 3: block-profile oracle over every multiset up to dim 14 ------


def test_criterion_3_profile_oracle():
    checked = 0
    ok = True
    for n in range(1, 15):
        for target in enumerate_semisimple_types(n):
            alg = from_block_sizes(target.blocks())
            profile = block_profile(alg)
            ok = ok and profile == target
            dims = profile.filtration_dims
            for j in range(1, len(dims)):
                ok = ok and (dims[j - 1] - dims[j]) % (j * j) == 0
            checked += 1
    report(3, ok, f"{checked} block multisets with sum of squares <= 14 recovered exactly")


# -- criterion 4: pruned evaluation equals the naive all-tuples oracle -------


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _naive_identity_span(alg, m):
    k = 2 * m
    vectors = []
    for tup in itertools.product(range(alg.dim), repeat=k):
        total = alg.zero_element()
        for perm in itertools.permutations(range(k)):
            prod = alg.basis_element(tup[perm[0]])
            for p in perm[1:]:
                prod = prod * alg.basis_element(tup[p])
            total = total + prod if _perm_sign(perm) > 0 else total - prod
        vectors.append(total.coords)
    return Subspace.from_vectors(alg.dim, vectors)


def test_criterion_4_pruning_oracle():
    corpus = [
        scalar_field(),
        direct_sum(scalar_field(), scalar_field()),
        dual_numbers(),
        upper_triangular_algebra(2),
        matrix_unit_algebra(2),
        direct_sum(matrix_unit_algebra(2), scalar_field()),
    ]
    compared = 0
    ok = True
    for alg in corpus:
        for m in (1, 2):
            if 2 * m > alg.dim:
                continue
            ok = ok and identity_span(alg, m) == _naive_identity_span(alg, m)
            compared += 1
    report(4, ok, f"{compared} (algebra, m) pairs agree exactly with the naive span")


# -- criterion 5: radical suite -----------------------------------------------


def test_criterion_5_radical_suite():
    ok = True
    for k in (2, 3):
        ut = upper_triangular_algebra(k)
        strict = [
            [1 if lbl == f"e{r}{c}" else 0 for lbl in ut.labels]
            for r in range(1, k + 1)
            for c in range(r + 1, k + 1)
        ]
        expected = Subspace.from_vectors(ut.dim, strict)
        ok = ok and radical(ut) == expected
        ok = ok and expected.dim == k * (k - 1) // 2

    pieces = [
        scalar_field,
        dual_numbers,
        lambda: upper_triangular_algebra(2),
        lambda: matrix_unit_algebra(2),
    ]
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        chosen = []
        total = 0
        while True:
            piece = pieces[rng.randrange(len(pieces))]()
            if total + piece.dim > 6:
                break
            chosen.append(piece)
            total += piece.dim
        if not chosen:
            continue
        alg = direct_sum(*chosen) if len(chosen) > 1 else chosen[0]
        rad = radical(alg)
        ss, _ = quotient(alg, rad)
        ok = ok and radical(ss).dim == 0
        checked += 1
    report(5, ok, "strictly-upper radicals for k=2,3 and 25 semisimplifications radical-free")


# -- criterion 6: the basic deformation scan ----------------------------------


def test_criterion_6_deformation_scan():
    start = time.monotonic()
    fam = dual_number_family()
    valid = fam.validate().ok
    result = scan(fam, Fraction(1, 4), 10)
    verdict_ok = (
        result.verdict.kind == STABLE
        and result.verdict.profile == BlockProfile({1: 2})
        and result.verdict.start_index == 0
    )
    at_zero = fam.specialize(0)
    zero_rad = radical(at_zero)
    degenerate_ok = zero_rad.dim == 1
    elapsed = time.monotonic() - start
    report(
        6,
        valid and verdict_ok and degenerate_ok and elapsed < 5,
        f"family valid, stable split profile 1^2 from k=0, degenerate point has "
        f"radical dim 1, {elapsed:.2f}s (< 5s)",
    )


# -- criterion 7: field-extension invariance of the filtration ----------------


class _FractionSpan:
    """Incremental rank of rational vectors using Fraction arithmetic only."""

    def __init__(self):
        self.rows = {}

    def add(self, vec):
        vec = list(vec)
        for p, row in self.rows.items():
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        for p, c in enumerate(vec):
            if c:
                self.rows[p] = [x / c for x in vec]
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def _to_fractions(coords):
    for c in coords:
        assert not c.im, "corpus algebra produced a non-rational coordinate"
    return [c.re for c in coords]


def _rational_ideal_dims(alg):
    """Filtration dims recomputed with rational-only elimination.

    Products reuse the algebra's structure constants (rational in, rational
    out); only the linear eliminations are redone over the plain rationals,
    which is exactly where a field-extension discrepancy could hide.
    """
    from algdeform.linalg import GaussianRational

    def gr_vec(fractions):
        return tuple(GaussianRational.coerce(f) for f in fractions)

    dims = [alg.dim]
    top = isqrt(alg.dim)
    for m in range(1, top + 1):
        span = _FractionSpan()
        for el in standard_identity_values(alg, m):
            span.add(_to_fractions(el.coords))
        current = [list(row) for row in span.rows.values()]
        while True:
            grown = _FractionSpan()
            for v in current:
                grown.add(v)
            for v in current:
                coords = gr_vec(v)
                for i in range(alg.dim):
                    basis = gr_vec(1 if j == i else 0 for j in range(alg.dim))
                    grown.add(_to_fractions(alg.multiply_coords(basis, coords)))
                    grown.add(_to_fractions(alg.multiply_coords(coords, basis)))
            if grown.rank == len(current):
                dims.append(grown.rank)
                break
            current = [list(row) for row in grown.rows.values()]
    return dims


def test_criterion_7_field_extension_invariance():
    corpus = [
        scalar_field(),
        dual_numbers(),
        upper_triangular_algebra(2),
        upper_triangular_algebra(3),
        matrix_unit_algebra(2),
        direct_sum(matrix_unit_algebra(2), scalar_field()),
        direct_sum(dual_numbers(), matrix_unit_algebra(2)),
    ]
    ok = True
    checked = 0
    for alg in corpus:
        rad = radical(alg)
        # radical over the rationals: kernel rank of the rational Gram matrix
        gram = gram_matrix(alg)
        span = _FractionSpan()
        for row in gram.rows:
            span.add(_to_fractions(row))
        ok = ok and (alg.dim - span.rank) == rad.dim

        ss = alg if rad.dim == 0 else quotient(alg, rad)[0]
        ok = ok and tuple(_rational_ideal_dims(ss)) == block_profile(alg).filtration_dims
        checked += 1
    report(7, ok, f"{checked} rational-table algebras: identical filtration dims over both fields")


# -- criterion 8: deterministic command-line output ----------------------------


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "algdeform", *argv],
        capture_output=True,
        env=env,
        cwd=REPO,
    )


def test_criterion_8_cli_determinism(tmp_path):
    from algdeform.constructions import matrix_unit_algebra

    built = tmp_path / "contraction.algebra.json"
    m2 = tmp_path / "m2.json"
    matrix_unit_algebra(2).save(m2)
    first = _run_cli(
        "build", "--input", str(DATA / "contraction_dim12.json"), "--out", str(built)
    )
    assert first.returncode == 0, first.stderr.decode()

    commands = [
        ("build", "--input", str(DATA / "contraction_dim12.json"),
         "--out", str(built), "--format", "json"),
        ("analyze", "--input", str(built), "--format", "json"),
        ("scan", "--input", str(DATA / "dual_number_family.json"),
         "--base", "1/4", "--count", "10", "--format", "json"),
        ("scan", "--input", str(DATA / "split_relation_family.json"),
         "--base", "1/4", "--count", "6", "--format", "json"),
        ("obstruct", "--input", str(DATA / "contraction_dim12.json"),
         "--generators", "x,y", "--trials", "10", "--format", "json"),
        ("enumerate", "12", "--format", "json"),
        ("identity-span", "--input", str(m2), "--m", "1", "--format", "json"),
    ]
    ok = True
    for argv in commands:
        a = _run_cli(*argv)
        b = _run_cli(*argv)
        ok = ok and a.returncode == 0 and b.returncode == 0
        ok = ok and a.stdout == b.stdout
        # byte-identical includes the algebra file written by build
        if argv[0] == "build":
            ok = ok and built.read_bytes() == built.read_bytes()
    report(8, ok, f"{len(commands)} commands produced byte-identical output across two runs")
