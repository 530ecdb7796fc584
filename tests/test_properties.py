"""Property tests: invariants that must hold on every input of a family."""

from hypothesis import assume, given, settings, strategies as st

from algdeform.algebra import StructureAlgebra
from algdeform.analysis import block_profile, radical
from algdeform.constructions import (
    change_basis,
    direct_sum,
    dual_numbers,
    from_block_sizes,
    upper_triangular_algebra,
)
from algdeform.deformation import DeformationFamily, constant_family, dual_number_family
from algdeform.linalg import ONE, ZERO, GaussianRational, Matrix
from algdeform.ncpoly import TPoly

CORPUS = (
    from_block_sizes((2,)),
    from_block_sizes((2, 1)),
    from_block_sizes((1, 1, 1)),
    upper_triangular_algebra(2),
    direct_sum(dual_numbers(), from_block_sizes((1,))),
)
# dim 6, for the validation strategies only (basis invariance takes longer)
LARGER = (
    direct_sum(from_block_sizes((2,)), dual_numbers()),
    upper_triangular_algebra(3),
)


@st.composite
def rebased(draw):
    """A corpus algebra and the same algebra on a random integer basis."""
    alg = draw(st.sampled_from(CORPUS))
    n = alg.dim
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
    assume(p.rank == n)
    return alg, change_basis(alg, p)


@settings(max_examples=30, deadline=None)
@given(rebased())
def test_radical_and_profile_do_not_depend_on_the_basis(pair):
    alg, moved = pair
    profile, report = block_profile(alg)
    rad = radical(moved)
    assert rad.dim == radical(alg).dim
    profile2, report2 = block_profile(moved, rad)
    assert profile2 == profile
    assert report2.dims == report.dims


# -- validation against the dense reference ---------------------------------
#
# The two functions below are the dense n^3 validation loops that the sparse
# contraction in ``algebra`` replaced, kept verbatim in substance as the
# oracle: ``dense_validate`` multiplies by dense unit vectors, and
# ``dense_family_validate`` is the t-polynomial version.


def _dense_multiply(alg, a, b):
    n = alg.dim
    out = [ZERO] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            ab = ai * bj
            for l, c in enumerate(alg.table[i][j]):
                if c:
                    out[l] = out[l] + ab * c
    return tuple(out)


def dense_validate(alg):
    n = alg.dim
    e = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    assoc = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _dense_multiply(alg, alg.table[i][j], e[k])
                right = _dense_multiply(alg, e[i], alg.table[j][k])
                if left != right:
                    assoc.append((i, j, k))
    unit = []
    for j in range(n):
        if _dense_multiply(alg, alg.unit, e[j]) != e[j]:
            unit.append((j, "left"))
        if _dense_multiply(alg, e[j], alg.unit) != e[j]:
            unit.append((j, "right"))
    return tuple(assoc), tuple(unit)


def _family_vec_times(fam, vec, k, left):
    """(Σ_l vec_l d_l)·d_k when ``left``, else d_k·(Σ_l vec_l d_l)."""
    out = [TPoly() for _ in range(fam.dim)]
    for l, c in enumerate(vec):
        if not c:
            continue
        for m, entry in enumerate(fam.table[l][k] if left else fam.table[k][l]):
            if entry:
                out[m] = out[m] + c * entry
    return out


def dense_family_validate(fam):
    n = fam.dim
    assoc = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _family_vec_times(fam, fam.table[i][j], k, True)
                right = _family_vec_times(fam, fam.table[j][k], i, False)
                if left != right:
                    assoc.append((i, j, k))
    unit = []
    for j in range(n):
        target = [TPoly.const(1) if l == j else TPoly() for l in range(n)]
        if _family_vec_times(fam, fam.unit, j, True) != target:
            unit.append((j, "left"))
        if _family_vec_times(fam, fam.unit, j, False) != target:
            unit.append((j, "right"))
    return tuple(assoc), tuple(unit)


def assert_same_report(report, reference):
    assoc, unit = reference
    assert report.associativity == assoc
    assert report.unit == unit
    assert report.ok == (not assoc and not unit)


scalars = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))
sparse_scalars = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE), scalars)
tpolys = st.lists(st.integers(-2, 2), max_size=3).map(TPoly)
cancelling_tpolys = st.sampled_from(
    [TPoly(), TPoly([1]), TPoly([-1]), TPoly([0, 1]), TPoly([0, -1]), TPoly([1, 1])]
)


@st.composite
def random_tables(draw):
    """An arbitrary table and unit: almost never an algebra."""
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(sparse_scalars, min_size=n ** 3, max_size=n ** 3))
    table = [[entries[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    unit = draw(st.lists(sparse_scalars, min_size=n, max_size=n))
    return StructureAlgebra([f"d{i}" for i in range(n)], table, unit)


@st.composite
def gaussian_scrambles(draw):
    """A corpus algebra, up to dim 6, on a random basis with Gaussian-integer
    coordinates."""
    alg = draw(st.sampled_from(CORPUS + LARGER))
    n = alg.dim
    entries = draw(st.lists(scalars, min_size=n * n, max_size=n * n))
    p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
    assume(p.rank == n)
    return change_basis(alg, p)


@st.composite
def broken_scrambles(draw):
    """An algebra, scrambled or on its own basis, with one structure constant
    or the unit moved, or with two constants of one entry moved by ±delta,
    so that their effects cancel in the coordinates where rows l and l'
    agree."""
    alg = draw(st.one_of(gaussian_scrambles(), st.sampled_from(CORPUS + LARGER)))
    n = alg.dim
    delta = draw(scalars.filter(bool))
    table = [[list(vec) for vec in row] for row in alg.table]
    unit = list(alg.unit)
    move = draw(st.sampled_from(("one", "two", "unit")))
    if move == "unit":
        unit[draw(st.integers(0, n - 1))] += delta
    else:
        i, j, l = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[i][j][l] += delta
        if move == "two":
            table[i][j][draw(st.integers(0, n - 1))] -= delta
    return StructureAlgebra(alg.labels, table, unit)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_tables(), gaussian_scrambles(), broken_scrambles()))
def test_validate_matches_the_dense_reference(alg):
    assert_same_report(alg.validate(), dense_validate(alg))


@st.composite
def families(draw):
    """Constant families of corpus algebras with one entry moved by a
    t-polynomial (sometimes zero, sometimes minus the entry), or arbitrary
    t-polynomial tables, some drawn from a few polynomials and their
    negatives so that their products often sum to zero."""
    if draw(st.booleans()):
        fam = constant_family(draw(st.sampled_from(CORPUS + LARGER + (dual_numbers(),))))
        n = fam.dim
        table = [[list(vec) for vec in row] for row in fam.table]
        i, j, l = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[i][j][l] = table[i][j][l] + draw(st.one_of(tpolys, st.just(-table[i][j][l])))
        unit = fam.unit
    else:
        n = draw(st.integers(1, 3))
        entry = draw(st.sampled_from((tpolys, cancelling_tpolys)))
        entries = draw(st.lists(entry, min_size=n ** 3, max_size=n ** 3))
        table = [[entries[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
                 for i in range(n)]
        unit = draw(st.lists(sparse_scalars, min_size=n, max_size=n))
    return DeformationFamily([f"d{i}" for i in range(n)], table, unit)


@settings(max_examples=60, deadline=None)
@given(families())
def test_family_validate_matches_the_dense_reference(fam):
    assert_same_report(fam.validate(), dense_family_validate(fam))


def test_family_reference_accepts_the_dual_number_family():
    fam = dual_number_family()
    assert dense_family_validate(fam) == ((), ())
    assert_same_report(fam.validate(), dense_family_validate(fam))
