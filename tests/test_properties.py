"""Property tests: invariants that must hold on every input of a family."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from algdeform.algebra import (StructureAlgebra, UnitInIdealError, _project, _trace_form,
                               _trace_vector, ideal_closure, quotient)
from algdeform.analysis import (
    _centre_constants,
    block_profile,
    centre,
    gram_matrix,
    radical,
    standard_identity_values,
)
from algdeform.constructions import (
    change_basis,
    direct_sum,
    dual_numbers,
    from_block_sizes,
    matrix_unit_algebra,
    upper_triangular_algebra,
)
from algdeform.deformation import (
    DeformationFamily,
    FamilyValidationError,
    constant_family,
    dual_number_family,
    trace_form_determinant,
)
from algdeform.linalg import ONE, ZERO, GaussianRational, Matrix, Subspace
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
    rad = radical(moved)
    assert rad.dim == radical(alg).dim
    assert block_profile(moved, rad) == block_profile(alg)


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


# -- the analysis contractions against the dense loops they replaced --------
#
# The functions below are the loops that the trace form, the centre
# constants of ``block_profile`` and the standard identity values ran before
# each became sums over the sparse table: dense walks of ``table[i][j][l]``
# for the first two, one ``sparse_multiply`` per subset bit for the last.
# Each is kept as the oracle of its replacement.


def dense_trace_vector(alg):
    n = alg.dim
    return tuple(sum((alg.table[i][j][j] for j in range(n)), ZERO) for i in range(n))


def dense_gram_matrix(alg):
    n = alg.dim
    tau = dense_trace_vector(alg)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for l, c in enumerate(alg.table[i][j]):
                if c and tau[l]:
                    acc = acc + c * tau[l]
            row.append(acc)
        rows.append(row)
    return Matrix(rows)


def dense_family_gram(family):
    """The t-polynomial Gram matrix that ``trace_form_determinant`` expanded."""
    n = family.dim
    tau = []
    for l in range(n):
        acc = TPoly()
        for j in range(n):
            acc = acc + family.table[l][j][j]
        tau.append(acc)
    return [
        [
            sum(
                (family.table[i][j][l] * tau[l] for l in range(n) if family.table[i][j][l]),
                TPoly(),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def leibniz_determinant(rows):
    """Σ over permutations of sign·Π rows[i][perm[i]], in t-polynomials."""
    n = len(rows)
    total = TPoly()
    for perm in itertools.permutations(range(n)):
        term = TPoly.const(1)
        for i, col in enumerate(perm):
            term = term * rows[i][col]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def dense_centre_constants(ss, z):
    """gamma[a][b][e] from the pivot entries of z_a·d_j, then of z_a·z_b."""
    n = ss.dim
    blocks = z.dim
    table = ss.table
    left = [
        [
            [sum((za[i] * table[i][j][p] for i in range(n) if za[i]), ZERO) for p in z.pivots]
            for j in range(n)
        ]
        for za in z.basis
    ]
    return [
        [
            [sum((zb[j] * row[j][e] for j in range(n) if zb[j]), ZERO) for e in range(blocks)]
            for zb in z.basis
        ]
        for row in left
    ]


def accumulated_identity_values(alg, m):
    """Each subset value as one ``sparse_multiply`` per bit of the subset,
    added into an accumulator with the alternating sign."""
    k = 2 * m
    n = alg.dim
    values = []
    for combo in itertools.combinations(range(n), k):
        elems = [{i: ONE} for i in combo]
        table = {1 << p: elems[p] for p in range(k)}
        for mask in range(1, 1 << k):
            if mask & (mask - 1) == 0:
                continue
            acc = {}
            position = 0
            rest_bits = mask
            while rest_bits:
                bit = rest_bits & -rest_bits
                rest_bits ^= bit
                sub = table[mask ^ bit]
                if sub:
                    p = bit.bit_length() - 1
                    term = alg.sparse_multiply(elems[p], sub)
                    negate = position % 2
                    for l, v in term.items():
                        prev = acc.get(l)
                        v = -v if negate else v
                        acc[l] = v if prev is None else prev + v
                position += 1
            table[mask] = {l: v for l, v in acc.items() if v}
        top = table[(1 << k) - 1]
        values.append(tuple(top.get(i, ZERO) for i in range(n)))
    return values


# valid algebras on rational and Gaussian scrambles, and on their own bases;
# the corpus holds the non-semisimple sums UT2, UT3, dual numbers + field and
# M2 + dual numbers
algebras = st.one_of(
    rebased().map(lambda pair: pair[1]),
    gaussian_scrambles(),
    st.sampled_from(CORPUS + LARGER),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras, random_tables()))
def test_trace_form_matches_the_dense_loops(alg):
    assert alg.trace_vector() == dense_trace_vector(alg)
    assert gram_matrix(alg) == dense_gram_matrix(alg)


@settings(max_examples=60, deadline=None)
@given(families())
def test_family_trace_form_matches_the_dense_loops(fam):
    sparse = fam.sparse
    gram = dense_family_gram(fam)
    assert _trace_form(sparse, _trace_vector(sparse, TPoly()), TPoly()) == gram
    assert trace_form_determinant(fam) == leibniz_determinant(gram)


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_centre_constants_match_the_dense_loops(alg):
    rad = radical(alg)
    ss = quotient(alg, rad)[0] if rad.dim else alg
    for a in (alg, ss):  # the centre of a non-semisimple algebra is a subalgebra too
        z = centre(a)
        assert _centre_constants(a, z) == dense_centre_constants(a, z)


@settings(max_examples=40, deadline=None)
@given(st.one_of(algebras, random_tables()), st.integers(1, 3))
def test_identity_values_match_the_per_bit_accumulate(alg, m):
    assume(2 * m <= alg.dim)
    values = [v.coords for v in standard_identity_values(alg, m)]
    assert values == accumulated_identity_values(alg, m)


# -- the sparse producers against the dense code they replaced --------------
#
# Each function below is the dense version of a structure-tensor producer or
# consumer as it was before the tensor was stored sparse: it walks or
# zero-fills all n^3 entries of ``table``.  Each is kept as the oracle of its
# replacement; a produced algebra is compared by labels, dense table, unit
# and validation report.


def dense_centre(alg):
    n = alg.dim
    table = alg.table
    rows = dict.fromkeys(
        tuple(table[k][i][l] - table[i][k][l] for k in range(n))
        for i in range(n)
        for l in range(n)
    )
    return Matrix(list(rows)).kernel()


def dense_specialize(fam, s):
    report = fam.validate()
    if not report.ok:
        raise FamilyValidationError(f"family is not valid: {report.summary()}")
    table = [[[entry.eval(s) for entry in vec] for vec in row] for row in fam.table]
    return StructureAlgebra(fam.labels, table, fam.unit)


def dense_quotient(alg, ideal):
    """``_project`` as it was: the quotient by a known ideal, and the
    projection matrix, from dense residues."""
    span = ideal.echelon
    if ideal.dim and not span.reduce(dict(enumerate(alg.unit))):
        raise UnitInIdealError("ideal contains the unit; quotient would be the zero ring")
    n = alg.dim
    comp = [c for c in range(n) if c not in span.rows]

    def project(vec):
        residue = span.reduce(vec)
        return tuple(residue.get(c, ZERO) for c in comp)

    labels = [alg.labels[c] for c in comp]
    table = [[project(dict(enumerate(alg.table[a][b]))) for b in comp] for a in comp]
    unit = project(dict(enumerate(alg.unit)))
    proj = Matrix(zip(*(project({j: ONE}) for j in range(n))))
    return StructureAlgebra(labels, table, unit), proj


def dense_direct_sum(*algebras):
    n = sum(a.dim for a in algebras)
    labels = []
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    unit = [ZERO] * n
    offset = 0
    for idx, alg in enumerate(algebras):
        for lbl in alg.labels:
            labels.append(f"{lbl}_{idx}")
        for i in range(alg.dim):
            unit[offset + i] = alg.unit[i]
            for j in range(alg.dim):
                vec = [ZERO] * n
                for l in range(alg.dim):
                    vec[offset + l] = alg.table[i][j][l]
                table[offset + i][offset + j] = vec
        offset += alg.dim
    return StructureAlgebra(labels, table, unit)


def dense_matrix_units(k, pairs):
    index = {rc: i for i, rc in enumerate(pairs)}
    n = len(pairs)
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                table[i][j][index[(a, d)]] = ONE
    unit = [ZERO] * n
    for r in range(1, k + 1):
        unit[index[(r, r)]] = ONE
    return StructureAlgebra([f"e{r}{c}" for r, c in pairs], table, unit)


def assert_same_algebra(alg, reference):
    assert alg.labels == reference.labels
    assert alg.table == reference.table
    assert alg.unit == reference.unit
    assert_same_report(alg.validate(), dense_validate(reference))


def rebase_family(fam, p):
    """The family on the constant basis given by the columns of ``p``."""
    n = fam.dim
    inv = p.inverse()
    cols = [[p.rows[r][i] for r in range(n)] for i in range(n)]

    def times(a, b):
        out = [TPoly() for _ in range(n)]
        for r, ar in enumerate(a):
            for s, bs in enumerate(b):
                if ar and bs:
                    for l, entry in enumerate(fam.table[r][s]):
                        if entry:
                            out[l] = out[l] + entry * (ar * bs)
        return out

    def apply(vec):
        return [sum((vec[c] * row[c] for c in range(n) if row[c]), TPoly()) for row in inv.rows]

    table = [[apply(times(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return DeformationFamily([f"b{i}" for i in range(n)], table, inv.mul_vec(fam.unit))


@st.composite
def root_families(draw):
    """Valid t-polynomial families: k[x]/(x^k - q(t)) plus a constant corpus
    algebra, some on a random Gaussian-integer constant basis."""
    k = draw(st.integers(1, 3))
    q = TPoly(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)))
    base = draw(st.sampled_from([alg for alg in CORPUS if alg.dim <= 3]))
    n = k + base.dim
    table = [[[TPoly()] * n for _ in range(n)] for _ in range(n)]
    for a in range(k):
        for b in range(k):
            e = a + b
            table[a][b][e % k] = TPoly.const(1) if e < k else q
    for i in range(base.dim):
        for j in range(base.dim):
            for l, c in enumerate(base.table[i][j]):
                table[k + i][k + j][k + l] = TPoly.const(c)
    fam = DeformationFamily([f"d{i}" for i in range(n)], table, [1] + [0] * (k - 1) + list(base.unit))
    if draw(st.booleans()):
        entries = draw(st.lists(scalars, min_size=n * n, max_size=n * n))
        p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
        assume(p.rank == n)
        fam = rebase_family(fam, p)
    return fam


valid_families = st.one_of(
    root_families(),
    algebras.map(constant_family),
    st.just(dual_number_family()),
)
parameters = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=20, deadline=None)
@given(root_families())
def test_root_families_are_valid(fam):
    assert dense_family_validate(fam) == ((), ())


@settings(max_examples=40, deadline=None)
@given(st.one_of(valid_families, families()), parameters)
def test_specialize_matches_the_dense_table(fam, s):
    try:
        expected = dense_specialize(fam, s)
    except FamilyValidationError as err:
        with pytest.raises(FamilyValidationError, match=re.escape(str(err))):
            fam.specialize(s)
        return
    assert_same_algebra(fam.specialize(s), expected)


@settings(max_examples=30, deadline=None)
@given(algebras)
def test_constant_family_matches_the_dense_table(alg):
    fam = constant_family(alg)
    assert fam.table == tuple(tuple(tuple(TPoly.const(c) for c in vec) for vec in row)
                              for row in alg.table)
    assert_same_report(fam.validate(), dense_family_validate(fam))


@settings(max_examples=40, deadline=None)
@given(st.one_of(algebras, random_tables(), st.tuples(root_families(), parameters).map(
    lambda pair: pair[0].specialize(pair[1]))))
def test_centre_matches_the_dense_rows(alg):
    assert centre(alg) == dense_centre(alg)


@st.composite
def ideals(draw):
    """A valid algebra and a two-sided ideal of it: its radical, or the
    closure of a random vector (which may hold the unit)."""
    alg = draw(st.one_of(algebras, st.tuples(root_families(), parameters).map(
        lambda pair: pair[0].specialize(pair[1]))))
    if draw(st.booleans()):
        return alg, radical(alg)
    vec = draw(st.lists(sparse_scalars, min_size=alg.dim, max_size=alg.dim))
    return alg, ideal_closure(alg, Subspace.from_vectors(alg.dim, [vec]))


@settings(max_examples=40, deadline=None)
@given(ideals())
def test_quotient_matches_the_dense_residues(pair):
    alg, ideal = pair
    try:
        expected, expected_proj = dense_quotient(alg, ideal)
    except UnitInIdealError:
        with pytest.raises(UnitInIdealError):
            quotient(alg, ideal)
        return
    assert_same_algebra(_project(alg, ideal)[0], expected)
    q, proj = quotient(alg, ideal)
    assert_same_algebra(q, expected)
    assert proj == expected_proj


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(algebras, random_tables()), min_size=2, max_size=3))
def test_direct_sum_matches_the_dense_table(parts):
    assert_same_algebra(direct_sum(*parts), dense_direct_sum(*parts))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4), st.booleans())
def test_matrix_units_match_the_dense_table(k, triangular):
    pairs = [(r, c) for r in range(1, k + 1) for c in range(r if triangular else 1, k + 1)]
    built = (upper_triangular_algebra if triangular else matrix_unit_algebra)(k)
    assert_same_algebra(built, dense_matrix_units(k, pairs))
