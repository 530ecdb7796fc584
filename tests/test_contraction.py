"""The table contraction on sparse tables: products and standard-identity
values against dense references.

The tables here leave most entries e_i·e_j empty, as the block-diagonal
matrix-unit models of ``obstruct`` and ``profile`` do, so that a pair of
nonzero coordinates whose entry is empty is the common case.  The references
read every entry of the dense table; the contraction skips the empty ones
before forming a coefficient, which must change neither the values nor the
key order of a sparse product.
"""

import itertools

from hypothesis import given, settings, strategies as st

from algdeform.algebra import StructureAlgebra, _combine
from algdeform.analysis import standard_identity_values
from algdeform.linalg import ONE, ZERO, GaussianRational

scalars = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))
# mostly zero, as the coordinates of a sparse vector are
coordinates = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE), scalars)


@st.composite
def sparse_tables(draw, max_dim=6):
    """A table on which a drawn share of the entries e_i·e_j, at least half,
    is empty; a nonempty entry has Gaussian constants, some of them zero.
    Almost never associative."""
    n = draw(st.integers(1, max_dim))
    filled = draw(st.sampled_from((1, 2, 3, 5)))  # in 10 entries
    table = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(0, 9)) < filled:
                vec = draw(st.lists(st.one_of(st.just(ZERO), scalars), min_size=n, max_size=n))
            else:
                vec = [ZERO] * n
            row.append(vec)
        table.append(row)
    return StructureAlgebra([f"d{i}" for i in range(n)], table, [ONE] + [ZERO] * (n - 1)), table


def dense_product(table, a, b):
    """Σ_ij a_i·b_j·c_ij^l for every l, over every entry of the dense table."""
    n = len(table)
    return tuple(
        sum((a[i] * b[j] * table[i][j][l] for i in range(n) for j in range(n)), ZERO)
        for l in range(n)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_match_the_dense_sum(data):
    alg, table = data.draw(sparse_tables())
    n = alg.dim
    a, b = (data.draw(st.lists(coordinates, min_size=n, max_size=n)) for _ in range(2))
    expected = dense_product(table, a, b)
    assert alg.multiply_coords(a, b) == expected
    sa = {i: c for i, c in enumerate(a) if c}
    sb = {j: c for j, c in enumerate(b) if c}
    product = alg.sparse_multiply(sa, sb)
    assert product == {l: v for l, v in enumerate(expected) if v}
    # the same keys in the same order as a contraction over every pair
    every_pair = _combine((ai * bj, alg.sparse[i][j])
                          for i, ai in sa.items() for j, bj in sb.items())
    assert list(product.items()) == list(every_pair.items())


def _sign(perm):
    inversions = sum(1 for p, q in itertools.combinations(perm, 2) if p > q)
    return -1 if inversions % 2 else 1


def permutation_identity_values(table, m):
    """s_2m at each increasing basis tuple as the explicit (2m)!-term sum
    Σ_σ sgn(σ)·d_σ1(d_σ2(⋯d_σ2m)), nested from the right as the first-factor
    recursion of ``standard_identity_values`` nests it (the tables need not
    be associative)."""
    n = len(table)
    values = []
    for combo in itertools.combinations(range(n), 2 * m):
        total = [ZERO] * n
        for perm in itertools.permutations(combo):
            vec = [ONE if l == perm[-1] else ZERO for l in range(n)]
            for i in reversed(perm[:-1]):
                vec = [sum((vec[j] * table[i][j][l] for j in range(n) if vec[j]), ZERO)
                       for l in range(n)]
            sign = _sign(perm)
            total = [t + v if sign > 0 else t - v for t, v in zip(total, vec)]
        values.append(tuple(total))
    return values


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identity_values_match_the_permutation_sum(data):
    alg, table = data.draw(sparse_tables())
    m = data.draw(st.integers(1, max(1, alg.dim // 2)))
    values = [v.coords for v in standard_identity_values(alg, m)]
    if 2 * m > alg.dim:
        assert values == []
    else:
        assert values == permutation_identity_values(table, m)
