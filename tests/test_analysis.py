import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from algdeform.algebra import StructureAlgebra, quotient
from algdeform.analysis import (
    BlockProfile,
    block_profile,
    enumerate_semisimple_types,
    gram_matrix,
    identity_ideal,
    identity_span,
    is_semisimple,
    radical,
)
from algdeform.constructions import (
    direct_sum,
    dual_numbers,
    from_block_sizes,
    matrix_unit_algebra,
    scalar_field,
    upper_triangular_algebra,
)
from algdeform.linalg import Subspace
from algdeform.presentation import Presentation, build
from algdeform.ncpoly import parse_ncpoly


def exterior_algebra():
    gens = ("x", "y")
    rels = [parse_ncpoly(src, gens) for src in ("x^2", "y^2", "x*y + y*x")]
    return build(Presentation(gens, rels, expected_dim=4)).algebra


def naive_identity_span(alg, m):
    """Oracle: all n^(2m) basis tuples, each via the full signed-permutation sum."""
    if m == 0:
        return Subspace.from_vectors(alg.dim, [alg.unit])
    k = 2 * m
    n = alg.dim
    vectors = []
    for tup in itertools.product(range(n), repeat=k):
        total = alg.zero_element()
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            prod = alg.basis_element(tup[perm[0]])
            for p in perm[1:]:
                prod = prod * alg.basis_element(tup[p])
            total = total + prod if sign > 0 else total - prod
        vectors.append(total.coords)
    return Subspace.from_vectors(n, vectors)


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


class TestRadical:
    def test_simple_algebra(self):
        assert radical(matrix_unit_algebra(2)).dim == 0

    def test_dual_numbers(self):
        rad = radical(dual_numbers())
        assert rad == Subspace.from_vectors(2, [[0, 1]])

    def test_upper_triangular_by_hand(self):
        # Gram matrix from the L-operators is diag(2, 0, 1) on (e11, e12, e22)
        ut = upper_triangular_algebra(2)
        g = gram_matrix(ut)
        assert [[str(x) for x in row] for row in g.rows] == [
            ["2", "0", "0"],
            ["0", "0", "0"],
            ["0", "0", "1"],
        ]
        rad = radical(ut)
        assert rad == Subspace.from_vectors(3, [[0, 1, 0]])

    def test_is_semisimple(self):
        assert is_semisimple(direct_sum(matrix_unit_algebra(2), scalar_field()))
        assert not is_semisimple(dual_numbers())

    def test_exterior_algebra_radical(self):
        assert radical(exterior_algebra()).dim == 3

    def test_semisimplification_is_semisimple(self):
        for alg in (dual_numbers(), upper_triangular_algebra(3), exterior_algebra()):
            rad = radical(alg)
            ss, _ = quotient(alg, rad)
            assert radical(ss).dim == 0

    def test_invalid_table_detected_by_internal_checks(self):
        # non-associative table: (e1 e1) e1 = 0 but e1 (e1 e1) = 1; its
        # trace-form kernel is span{e1}, which is not closed under products
        from algdeform.analysis import InvalidAlgebraError

        bad = StructureAlgebra(
            ["1", "a", "b"],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            [1, 0, 0],
        )
        assert not bad.validate().ok
        with pytest.raises(InvalidAlgebraError):
            radical(bad)


class TestIdentitySpan:
    def test_m2_satisfies_degree_four_identity(self):
        assert identity_span(matrix_unit_algebra(2), 2).dim == 0

    def test_m2_commutator_span_is_trace_zero(self):
        span = identity_span(matrix_unit_algebra(2), 1)
        assert span.dim == 3
        # trace-zero plane: e12, e21, e11 - e22
        assert span.contains([0, 1, 0, 0])
        assert span.contains([0, 0, 1, 0])
        assert span.contains([1, 0, 0, -1])
        assert not span.contains([1, 0, 0, 0])

    def test_m3_violates_degree_four_identity(self):
        assert identity_span(matrix_unit_algebra(3), 2).dim > 0

    def test_too_many_arguments_give_zero(self):
        assert identity_span(dual_numbers(), 5).dim == 0

    def test_degree_zero_is_unit_span(self):
        assert identity_span(matrix_unit_algebra(2), 0).dim == 1

    def test_commutative_algebra_has_zero_commutator_ideal(self):
        comm = direct_sum(scalar_field(), scalar_field(), scalar_field())
        assert identity_ideal(comm, 1).dim == 0

    def test_identity_ideal_m2(self):
        assert identity_ideal(matrix_unit_algebra(2), 1).dim == 4

    def test_identity_ideal_m2_plus_field(self):
        alg = direct_sum(matrix_unit_algebra(2), scalar_field())
        ideal = identity_ideal(alg, 1)
        assert ideal.dim == 4
        assert not ideal.contains([0, 0, 0, 0, 1])

    def test_pruned_equals_naive_oracle(self):
        corpus = [
            scalar_field(),
            dual_numbers(),
            direct_sum(scalar_field(), scalar_field()),
            upper_triangular_algebra(2),
            matrix_unit_algebra(2),
            direct_sum(matrix_unit_algebra(2), scalar_field()),
        ]
        for alg in corpus:
            for m in (1, 2):
                if 2 * m > alg.dim:
                    continue
                assert identity_span(alg, m) == naive_identity_span(alg, m)

    def test_amitsur_levitzki_family(self):
        for k in (1, 2, 3):
            alg = matrix_unit_algebra(k)
            m = k - 1
            if m > 0:
                assert identity_span(alg, m).dim > 0
            else:
                assert identity_span(alg, 0).dim == 1
            for m in range(k, k + 3):
                assert identity_span(alg, m).dim == 0


class TestBlockProfile:
    def test_m2(self):
        profile = block_profile(matrix_unit_algebra(2))
        assert profile == BlockProfile({2: 1})
        assert profile.filtration_dims == (4, 4, 0)

    def test_m2_plus_field(self):
        profile = block_profile(direct_sum(matrix_unit_algebra(2), scalar_field()))
        assert profile == BlockProfile({1: 1, 2: 1})
        assert profile.filtration_dims == (5, 4, 0)

    def test_non_semisimple_uses_semisimplification(self):
        profile = block_profile(upper_triangular_algebra(2))
        assert profile == BlockProfile({1: 2})

    def test_profile_oracle_all_multisets_up_to_14(self):
        for n in range(1, 15):
            for target in enumerate_semisimple_types(n):
                alg = from_block_sizes(target.blocks())
                profile = block_profile(alg)
                assert profile == target, f"dim {n}, expected {target}, got {profile}"
                # consecutive filtration dims differ by the j-blocks: c_j * j^2
                dims = profile.filtration_dims
                assert dims[0] == n and dims[-1] == 0
                for j in range(1, len(dims)):
                    assert dims[j - 1] - dims[j] == profile.counts.get(j, 0) * j * j

    def test_profile_survives_random_change_of_basis(self):
        # after conjugating the table by a random invertible matrix nothing
        # is block-shaped anymore, yet every invariant must come out equal
        from algdeform.constructions import change_basis
        from algdeform.linalg import Matrix

        rng = random.Random(97)
        corpus = [
            matrix_unit_algebra(2),
            direct_sum(matrix_unit_algebra(2), scalar_field()),
            direct_sum(scalar_field(), scalar_field(), scalar_field()),
            upper_triangular_algebra(2),
        ]
        for alg in corpus:
            profile = block_profile(alg)
            rad_dim = radical(alg).dim
            n = alg.dim
            while True:
                p = Matrix(
                    [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                )
                if p.rank == n:
                    break
            moved = change_basis(alg, p)
            assert moved.validate().ok
            assert radical(moved).dim == rad_dim
            assert block_profile(moved) == profile

    def test_layer_scale_invariance(self):
        rng = random.Random(61)
        alg = direct_sum(matrix_unit_algebra(2), dual_numbers())
        profile = block_profile(alg)
        scales = [Fraction(rng.randint(1, 7)) for _ in range(alg.dim)]
        table = [
            [
                [
                    alg.table[i][j][l] * scales[i] * scales[j] / scales[l]
                    for l in range(alg.dim)
                ]
                for j in range(alg.dim)
            ]
            for i in range(alg.dim)
        ]
        unit = [alg.unit[i] / scales[i] for i in range(alg.dim)]
        rescaled = StructureAlgebra(alg.labels, table, unit)
        assert rescaled.validate().ok
        assert block_profile(rescaled) == profile


def identity_ideal_dims(alg):
    """Oracle: the filtration dims computed from the identity ideals themselves."""
    rad = radical(alg)
    ss = alg if rad.dim == 0 else quotient(alg, rad)[0]
    return (ss.dim,) + tuple(
        identity_ideal(ss, m).dim for m in range(1, math.isqrt(ss.dim) + 1)
    )


def scrambled(alg, rng, gaussian=False):
    from algdeform.constructions import change_basis
    from algdeform.linalg import GaussianRational, Matrix

    n = alg.dim
    while True:
        p = Matrix(
            [
                [
                    GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1) if gaussian else 0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        if p.rank == n:
            return change_basis(alg, p)


class TestProfileFromCentre:
    # small enough that the exponential oracle stays fast on dense bases
    SEMISIMPLE = ((1,), (2,), (1, 1, 1), (2, 1), (2, 1, 1))
    NON_SEMISIMPLE = (
        lambda: upper_triangular_algebra(3),
        lambda: direct_sum(upper_triangular_algebra(2), dual_numbers()),
        lambda: direct_sum(dual_numbers(), matrix_unit_algebra(2)),
    )

    def test_dims_match_identity_ideals_on_matrix_units(self):
        for sizes in self.SEMISIMPLE + ((3,), (2, 2), (3, 1)):
            alg = from_block_sizes(sizes)
            assert block_profile(alg).filtration_dims == identity_ideal_dims(alg), sizes

    def test_dims_match_identity_ideals_on_scrambled_bases(self):
        rng = random.Random(23)
        for sizes in self.SEMISIMPLE:
            for gaussian in (False, True):
                alg = scrambled(from_block_sizes(sizes), rng, gaussian)
                assert block_profile(alg).filtration_dims == identity_ideal_dims(alg), (
                    sizes, gaussian)

    def test_dims_match_identity_ideals_on_non_semisimple_sums(self):
        rng = random.Random(29)
        for make in self.NON_SEMISIMPLE:
            for alg in (make(), scrambled(make(), rng, gaussian=True)):
                assert block_profile(alg).filtration_dims == identity_ideal_dims(alg)

    def test_given_radical_gives_the_same_answer(self):
        alg = direct_sum(upper_triangular_algebra(2), matrix_unit_algebra(2))
        expected = block_profile(alg)
        assert block_profile(alg, radical(alg)) == expected == BlockProfile({1: 2, 2: 1})

    def test_centre_counts_the_blocks(self):
        from algdeform.analysis import centre

        assert centre(from_block_sizes((2, 2, 1))).dim == 3
        assert centre(upper_triangular_algebra(3)).dim == 1
        assert centre(dual_numbers()).dim == 2

    def test_counts_that_do_not_fill_the_algebra_raise(self):
        # non-associative, with a nondegenerate trace form, so the radical
        # check passes; the centre is the scalars, one block of dimension 3
        from algdeform.analysis import NonIntegralLayerError

        bad = StructureAlgebra(
            ["1", "a", "b"],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[0, 0, 1], [0, 0, -1], [1, 0, 0]],
            ],
            [1, 0, 0],
        )
        assert not bad.validate().ok
        assert radical(bad).dim == 0
        with pytest.raises(NonIntegralLayerError):
            block_profile(bad)


class TestOneClosure:
    def test_analyze_closes_the_radical_once(self, tmp_path, monkeypatch, capsys):
        # radical() certifies the trace-form kernel as an ideal; block_profile
        # projects it out without closing it again
        from algdeform import algebra, analysis, cli

        closed = []
        original = algebra.ideal_closure

        def counting(alg, seed):
            closed.append(seed.dim)
            return original(alg, seed)

        monkeypatch.setattr(algebra, "ideal_closure", counting)
        monkeypatch.setattr(analysis, "ideal_closure", counting)
        path = tmp_path / "ut3_dual.json"
        direct_sum(upper_triangular_algebra(3), dual_numbers()).save(path)
        assert cli.main(["analyze", "--input", str(path), "--format", "json"]) == 0
        assert '"radical_dim": 4' in capsys.readouterr().out
        assert closed == [4]


class TestEnumeration:
    def test_dimension_one(self):
        assert enumerate_semisimple_types(1) == [BlockProfile({1: 1})]

    def test_dimension_four(self):
        assert enumerate_semisimple_types(4) == [
            BlockProfile({1: 4}),
            BlockProfile({2: 1}),
        ]

    def test_dimension_twelve(self):
        profiles = enumerate_semisimple_types(12)
        assert profiles == [
            BlockProfile({1: 12}),
            BlockProfile({2: 1, 1: 8}),
            BlockProfile({2: 2, 1: 4}),
            BlockProfile({2: 3}),
            BlockProfile({3: 1, 1: 3}),
        ]

    def test_enumeration_leaves_no_cyclic_garbage(self):
        # the search runs on an explicit stack, not a self-referencing closure
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_semisimple_types(40)) == 55
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dimension_consistency(self):
        for n in (1, 5, 9, 13):
            for p in enumerate_semisimple_types(n):
                assert p.dimension == n

    def test_profile_text_form(self):
        assert str(BlockProfile({2: 3})) == "2^3"
        assert str(BlockProfile({1: 1, 2: 1})) == "1^1 2^1"
        assert BlockProfile.from_json_dict({"1": 2, "3": 1}).to_json_dict() == {
            "1": 2,
            "3": 1,
        }
