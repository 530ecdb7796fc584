"""The sparse echelon kernel against the dense eliminations it replaced.

The reference implementations below are the row reductions that ``src/``
used before every elimination went through ``linalg._Echelon``, kept in
substance as oracles: the dense ``_rref_rows``, the round-based
``ideal_closure`` and ``generated_subalgebra_dim``, the dense span
accumulator of ``family_span_dim`` over words evaluated letter by letter,
and the semi-reduced word-keyed rows of ``presentation.build``.  They run on
dense rows and the dense rref only, so they share no elimination code with
the kernel.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from algdeform import presentation
from algdeform.algebra import ideal_closure
from algdeform.analysis import centre
from algdeform.constructions import (
    change_basis,
    direct_sum,
    dual_numbers,
    matrix_unit_algebra,
    upper_triangular_algebra,
)
from algdeform.deformation import load_family
from algdeform.linalg import ONE, ZERO, GaussianRational, Matrix, Subspace, _Echelon, _rref_rows
from algdeform.ncpoly import parse_ncpoly, word_key
from algdeform.obstruction import family_span_dim, generated_subalgebra_dim

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


# -- reference implementations ------------------------------------------------


def dense_rref_rows(rows, ncols):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work), tuple(pivots)


def dense_span(n, vectors):
    """The subspace whose echelon rows are the dense rref's, stored as they are."""
    rows, pivots = dense_rref_rows([[GaussianRational.coerce(c) for c in v] for v in vectors], n)
    span = _Echelon()
    span.rows = {p: {k: c for k, c in enumerate(row) if c and k != p} for row, p in zip(rows, pivots)}
    return Subspace(n, span)


def _basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def round_ideal_closure(alg, seed):
    n = alg.dim
    current = seed
    while True:
        vectors = list(current.basis)
        for v in current.basis:
            for i in range(n):
                vectors.append(alg.multiply_coords(_basis_vector(n, i), v))
                vectors.append(alg.multiply_coords(v, _basis_vector(n, i)))
        grown = dense_span(n, vectors)
        if grown.dim == current.dim:
            return grown
        current = grown


def round_generated_subalgebra_dim(alg, elements):
    current = dense_span(alg.dim, [alg.unit] + [el.coords for el in elements])
    while True:
        vectors = list(current.basis)
        for a in current.basis:
            for b in current.basis:
                vectors.append(alg.multiply_coords(a, b))
        grown = dense_span(alg.dim, vectors)
        if grown.dim == current.dim:
            return grown.dim
        current = grown


class SpanAccumulator:
    """Incremental exact rank of a growing set of dense coordinate vectors."""

    def __init__(self):
        self.rows = {}  # pivot index -> reduced row

    def add(self, coords):
        vec = list(coords)
        for p, row in self.rows.items():
            if vec[p]:
                factor = vec[p]
                vec = [a - factor * b for a, b in zip(vec, row)]
        for p, c in enumerate(vec):
            if c:
                inv = c.inverse()
                self.rows[p] = [x * inv for x in vec]
                return True
        return False


def dense_family_span_dim(alg, x, y, depth):
    """The span of the tower {x^i} + {y*x^i}, i <= depth, with each word
    evaluated letter by letter from the unit by ``Element`` products."""
    span = SpanAccumulator()
    for head in ((), (y,)):
        for i in range(depth + 1):
            el = alg.unit_element()
            for letter in head + (x,) * i:
                el = el * letter
            span.add(el.coords)
    return len(span.rows)


class WordRows:
    """The word-keyed reduction ``build`` used: each row is reduced against
    the older rows only, and a vector by repeatedly eliminating its
    deglex-largest pivot word.  Same interface as the kernel there."""

    def __init__(self, lead=None):
        self.rows = {}  # lead word -> the rest of its row, lead coefficient 1

    def reduce(self, vec):
        vec = {w: c for w, c in vec.items() if c}
        while True:
            leads = [w for w in vec if w in self.rows]
            if not leads:
                return vec
            lead = max(leads, key=word_key)
            coeff = vec.pop(lead)
            for w2, c2 in self.rows[lead].items():
                nv = vec.get(w2, ZERO) - coeff * c2
                if nv:
                    vec[w2] = nv
                elif w2 in vec:
                    del vec[w2]

    def add(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = max(vec, key=word_key)
        inv = vec.pop(lead).inverse()
        self.rows[lead] = {w: c * inv for w, c in vec.items()}
        return vec


# -- strategies ---------------------------------------------------------------


@st.composite
def gaussian(draw):
    d = draw(st.integers(1, 3))
    return GaussianRational(
        Fraction(draw(st.integers(-4, 4)), d), Fraction(draw(st.integers(-2, 2)), d)
    )


@st.composite
def matrices(draw):
    """Dense or sparse rows, with zero rows, repeated rows and combinations of
    rows mixed in so that the input is often rank-deficient."""
    ncols = draw(st.integers(1, 7))
    sparse = draw(st.booleans())

    def entry():
        if sparse and draw(st.integers(0, 3)):
            return ZERO
        return draw(gaussian())

    rows = [[entry() for _ in range(ncols)] for _ in range(draw(st.integers(0, 6)))]
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]), max_size=4)):
        at = draw(st.integers(0, len(rows)))
        if kind == "zero" or not rows:
            rows.insert(at, [ZERO] * ncols)
        elif kind == "repeat":
            rows.insert(at, list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(gaussian()), draw(gaussian())
            rows.insert(at, [x * p + y * q for p, q in zip(a, b)])
    return rows, ncols


# -- the kernel against the dense rref ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rows_match_the_dense_oracle(case):
    rows, ncols = case
    echelon = _rref_rows([dict(enumerate(r)) for r in rows], ncols)
    padded = echelon.dense(ncols) + ((ZERO,) * ncols,) * (len(rows) - len(echelon.rows))
    assert (padded, tuple(sorted(echelon.rows))) == dense_rref_rows(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_echelon_stays_fully_reduced_and_reduces_to_zero_exactly_on_the_span(case, data):
    rows, ncols = case
    span = _Echelon()
    for k, r in enumerate(rows):
        row = span.add({j: c for j, c in enumerate(r) if c})
        rank = dense_span(ncols, rows[: k + 1]).dim
        assert (row is not None) == (rank > dense_span(ncols, rows[:k]).dim)
        assert len(span.rows) == rank
    for p, tail in span.rows.items():
        assert all(tail.values()) and not set(tail) & set(span.rows)
    ref = dense_span(ncols, rows)
    if rows and data.draw(st.booleans()):  # a combination of the rows: inside
        probe = [ZERO] * ncols
        for r in rows:
            x = data.draw(gaussian())
            probe = [a + x * b for a, b in zip(probe, r)]
    else:
        probe = [data.draw(gaussian()) for _ in range(ncols)]
    inside = dense_span(ncols, rows + [probe]).dim == ref.dim
    assert (not span.reduce(dict(enumerate(probe)))) == inside
    assert ref.contains(probe) == inside


def test_rows_past_full_rank_still_count_as_zero_rows():
    reduced, pivots = Matrix([[1, 2], [3, 4], [5, 6], [0, 0]]).rref()
    assert pivots == (0, 1)
    assert reduced.rows == ((ONE, ZERO), (ZERO, ONE), (ZERO, ZERO), (ZERO, ZERO))


# -- word keys: the presentation build -----------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_word_keyed_rows_reduce_like_the_semi_reduced_oracle(data):
    words = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (0, 0, 1)]
    vectors = data.draw(
        st.lists(st.dictionaries(st.sampled_from(words), gaussian(), max_size=4), max_size=8)
    )
    lead = lambda vec: max(vec, key=word_key)  # noqa: E731
    kernel, oracle = _Echelon(lead=lead), WordRows()
    for vec in vectors:
        assert (kernel.add(vec) is None) == (oracle.add(vec) is None)
    assert set(kernel.rows) == set(oracle.rows)
    for w in words:
        assert kernel.reduce({w: ONE}) == oracle.reduce({w: ONE})


def _presentations():
    contraction = json.loads((DATA / "contraction_dim12.json").read_text())
    split = load_family(DATA / "split_relation_family.json")
    return [
        presentation.Presentation.from_json_dict(contraction),
        split.presentation_at(Fraction(1, 2)),
        split.presentation_at(0),
        presentation.Presentation(
            ("x", "y"), [parse_ncpoly(s, ("x", "y")) for s in ("x^2", "y^2", "x*y + y*x")], 4
        ),
    ]


@pytest.mark.parametrize("index", range(4))
def test_build_matches_the_semi_reduced_word_rows(index, monkeypatch):
    pres = _presentations()[index]
    result = presentation.build(pres)
    monkeypatch.setattr(presentation, "_Echelon", WordRows)
    reference = presentation.build(pres)
    assert result.word_basis == reference.word_basis
    assert result.degree == reference.degree
    assert result.algebra.table == reference.algebra.table
    assert result.algebra.unit == reference.algebra.unit


# -- closures on scrambled bases ------------------------------------------------

SUMS = (
    direct_sum(upper_triangular_algebra(2), dual_numbers()),
    direct_sum(upper_triangular_algebra(3), dual_numbers()),
    direct_sum(dual_numbers(), dual_numbers(), upper_triangular_algebra(2)),
    direct_sum(matrix_unit_algebra(2), dual_numbers()),
)


@pytest.mark.parametrize(
    "alg, label, dim",
    [(upper_triangular_algebra(3), "e22", 4), (matrix_unit_algebra(2), "e11", 4)],
)
def test_closure_needs_products_of_products(alg, label, dim):
    # A*e22 + e22*A misses e13 = e12*e22*e23 in UT3, and e11 spans all of M2
    # only through e21*e11*e12
    seed = Subspace.from_vectors(alg.dim, [[int(lbl == label) for lbl in alg.labels]])
    assert ideal_closure(alg, seed).dim == dim
    assert ideal_closure(alg, seed) == round_ideal_closure(alg, seed)


@st.composite
def scrambled(draw):
    alg = draw(st.sampled_from(SUMS))
    n = alg.dim
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
    assume(p.rank == n)
    return change_basis(alg, p)


def _vector(draw, n):
    return [draw(st.integers(-2, 2)) if draw(st.booleans()) else 0 for _ in range(n)]


@settings(max_examples=25, deadline=None)
@given(scrambled(), st.data())
def test_closures_match_the_round_based_oracles(alg, data):
    n = alg.dim
    seed = Subspace.from_vectors(n, [_vector(data.draw, n) for _ in range(data.draw(st.integers(0, 2)))])
    assert ideal_closure(alg, seed) == round_ideal_closure(alg, seed)
    gens = [alg.element(_vector(data.draw, n)) for _ in range(2)]
    assert generated_subalgebra_dim(alg, gens) == round_generated_subalgebra_dim(alg, gens)


@settings(max_examples=40, deadline=None)
@given(scrambled(), st.data())
def test_tower_chains_match_the_letter_by_letter_words(alg, data):
    # depths past n reach the whole algebra on a generating pair, so the
    # chains' early return is drawn as well as their full walk
    n = alg.dim
    x, y = (alg.element(_vector(data.draw, n)) for _ in range(2))
    depth = data.draw(st.integers(0, n + 2))
    assert family_span_dim(alg, x, y, depth) == dense_family_span_dim(alg, x, y, depth)


# -- subspace storage: the sparse echelon against the dense rref -----------------


def dense_rank(n, vectors):
    return len(dense_rref_rows(vectors, n)[1])


@st.composite
def respanned(draw):
    """Dense rows and a second spanning set of their span: the rows scaled by
    nonzero Gaussian scalars, with zero vectors, repeated rows and
    combinations of rows mixed in, then shuffled."""
    rows, ncols = draw(matrices())
    other = [[x * c for c in r] for r, x in zip(rows, draw(
        st.lists(gaussian().filter(bool), min_size=len(rows), max_size=len(rows))))]
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]), max_size=4)):
        if kind == "zero" or not rows:
            other.append([ZERO] * ncols)
        elif kind == "repeat":
            other.append(list(draw(st.sampled_from(rows))))
        else:
            x, y = draw(gaussian()), draw(gaussian())
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            other.append([x * p + y * q for p, q in zip(a, b)])
    return rows, draw(st.permutations(other)), ncols


@settings(max_examples=150, deadline=None)
@given(respanned())
def test_spanning_sets_of_one_span_store_one_subspace(case):
    rows, other, ncols = case
    a, b = Subspace.from_vectors(ncols, rows), Subspace.from_vectors(ncols, other)
    assert a == b and hash(a) == hash(b)
    reduced, pivots = dense_rref_rows(rows, ncols)
    for s in (a, b):
        assert s.basis == reduced[: len(pivots)]
        assert s.pivots == pivots and s.dim == len(pivots)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_membership_and_join_match_the_dense_rref(case, data):
    rows, ncols = case
    others = data.draw(st.lists(st.lists(gaussian(), min_size=ncols, max_size=ncols), max_size=3))
    if rows and data.draw(st.booleans()):  # a combination of the rows: inside
        others.append([sum((data.draw(gaussian()) * r[k] for r in rows), ZERO) for k in range(ncols)])
    s, t = Subspace.from_vectors(ncols, rows), Subspace.from_vectors(ncols, others)
    rank = dense_rank(ncols, rows)
    for v in others:
        assert s.contains(v) == (dense_rank(ncols, rows + [v]) == rank)
    assert s.contains_subspace(t) == (dense_rank(ncols, rows + others) == rank)
    reduced, pivots = dense_rref_rows(rows + others, ncols)
    joined = s.join(t)
    assert (joined.basis, joined.pivots) == (reduced[: len(pivots)], pivots)
    assert joined == t.join(s)


@settings(max_examples=25, deadline=None)
@given(scrambled(), st.data())
def test_closures_and_centres_store_their_canonical_echelon(alg, data):
    n = alg.dim
    seed = Subspace.from_vectors(n, [_vector(data.draw, n) for _ in range(data.draw(st.integers(0, 2)))])
    for s in (ideal_closure(alg, seed), centre(alg)):
        again = Subspace.from_vectors(n, s.basis)
        assert s == again and hash(s) == hash(again)
