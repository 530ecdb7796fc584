import gc

import pytest

from algdeform.analysis import BlockProfile, enumerate_semisimple_types
from algdeform.constructions import (
    dual_numbers,
    from_profile,
    matrix_unit_algebra,
    scalar_field,
)
from algdeform.ncpoly import NcPoly, parse_ncpoly
from algdeform.obstruction import (
    NOT_EXCLUDED,
    NotGeneratingError,
    WordFamily,
    admissible_targets,
    family_span_dim,
    generated_subalgebra_dim,
    sampled_lower_bound,
    tower_bound,
    tower_family,
)
from algdeform.presentation import Presentation, build
from algdeform.ncpoly import parse_ncpoly as _parse

ACON_RELATIONS = (
    "y^6 - x^3 - y^2*x",
    "y^4*x + x^2 + y^2",
    "x^4 - y^4",
    "y*x^2 + y^3",
    "x*y + y*x",
)


def acon():
    gens = ("x", "y")
    rels = [_parse(s, gens) for s in ACON_RELATIONS]
    return build(Presentation(gens, rels, 12))


class TestTowerFamily:
    def test_depth_zero(self):
        fam = tower_family(0)
        assert fam.printed_words() == ["1", "y"]

    def test_depth_two(self):
        fam = tower_family(2)
        assert fam.printed_words() == ["1", "x", "x^2", "y", "y*x", "y*x^2"]

    def test_depth_matches_dimension_convention(self):
        fam = tower_family(12)
        assert len(fam.words) == 26


class TestTowerBound:
    def test_single_two_block(self):
        assert tower_bound(BlockProfile({2: 1})) == 4

    def test_single_three_block_capped_by_characteristic_polynomial(self):
        assert tower_bound(BlockProfile({3: 1})) == 6

    def test_formula_per_block(self):
        assert tower_bound(BlockProfile({1: 12})) == 12
        assert tower_bound(BlockProfile({2: 3})) == 12
        assert tower_bound(BlockProfile({3: 1, 1: 3})) == 9


class TestFamilySpanDim:
    def test_tower_spans_the_contraction_algebra(self):
        res = acon()
        fam = tower_family(12)
        d = family_span_dim(
            res.algebra, fam, [res.generator_element("x"), res.generator_element("y")]
        )
        assert d == 12

    def test_trivial_family(self):
        fam = WordFamily(("x",), [NcPoly.one(("x",))])
        m2 = matrix_unit_algebra(2)
        assert family_span_dim(m2, fam, [m2.basis_element(1)]) == 1

    def test_cayley_hamilton_ceiling_in_m3(self):
        # brute-force check on seeded random samples: a depth-9 tower in the
        # 3x3 matrix algebra never beats 2*3 = 6
        fam = tower_family(9)
        assert sampled_lower_bound(BlockProfile({3: 1}), fam, trials=10, seed=3) <= 6

    def test_evaluation_leaves_no_cyclic_garbage(self):
        # products freed by reference counting do not wait for the collector
        m2 = matrix_unit_algebra(2)
        args = [m2.basis_element(0), m2.element([0, 1, 1, 0])]
        gc.collect()
        gc.disable()
        try:
            assert family_span_dim(m2, tower_family(4), args) == 4
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_arity_mismatch(self):
        m2 = matrix_unit_algebra(2)
        with pytest.raises(ValueError):
            family_span_dim(m2, tower_family(2), [m2.basis_element(0)])

    def test_span_never_exceeds_dimension(self):
        res = acon()
        fam = tower_family(20)
        d = family_span_dim(
            res.algebra, fam, [res.generator_element("x"), res.generator_element("y")]
        )
        assert d <= 12


class TestAdmissibleTargets:
    def test_contraction_algebra_excludes_large_blocks(self):
        res = acon()
        report = admissible_targets(
            res.algebra,
            res.generator_element("x"),
            res.generator_element("y"),
            trials=5,
        )
        assert report.dim_in_algebra == 12
        assert report.excluded == (BlockProfile({3: 1, 1: 3}),)
        assert report.not_excluded == (
            BlockProfile({1: 12}),
            BlockProfile({2: 1, 1: 8}),
            BlockProfile({2: 2, 1: 4}),
            BlockProfile({2: 3}),
        )

    def test_dual_numbers_not_excluded(self):
        dn = dual_numbers()
        x = dn.basis_element(1)
        report = admissible_targets(dn, x, x, trials=3)
        assert report.dim_in_algebra == 2
        assert [r.status for r in report.rows] == [NOT_EXCLUDED]
        assert report.rows[0].profile == BlockProfile({1: 2})

    def test_not_generating(self):
        m2 = matrix_unit_algebra(2)
        e11 = m2.basis_element(0)
        with pytest.raises(NotGeneratingError) as err:
            admissible_targets(m2, e11, e11)
        assert err.value.reached_dim == 2

    def test_semisimple_algebra_never_excludes_itself(self):
        # rationals + rationals, generated by the pair of idempotents
        qq = matrix_unit_algebra(1)
        from algdeform.constructions import direct_sum

        alg = direct_sum(qq, qq)
        x = alg.element([1, 0])
        report = admissible_targets(alg, x, x, trials=3)
        own = BlockProfile({1: 2})
        row = next(r for r in report.rows if r.profile == own)
        assert row.status == NOT_EXCLUDED

        m2 = matrix_unit_algebra(2)
        gx = m2.element([0, 1, 1, 0])  # the symmetric swap
        gy = m2.element([1, 0, 0, 0])  # a rank-one idempotent
        report = admissible_targets(m2, gx, gy, trials=3)
        row = next(r for r in report.rows if r.profile == BlockProfile({2: 1}))
        assert row.status == NOT_EXCLUDED


class TestExteriorAlgebra:
    def test_dim_four_targets_all_admissible(self):
        gens = ("x", "y")
        rels = [_parse(s, gens) for s in ("x^2", "y^2", "x*y + y*x")]
        res = build(Presentation(gens, rels, 4))
        report = admissible_targets(
            res.algebra,
            res.generator_element("x"),
            res.generator_element("y"),
            trials=3,
        )
        # the tower span is {1, x, y, yx}: full, but no dim-4 profile has a
        # block of size 3, so nothing can be excluded
        assert report.dim_in_algebra == 4
        assert {str(r.profile): (r.bound, r.status) for r in report.rows} == {
            "1^4": (4, NOT_EXCLUDED),
            "2^1": (4, NOT_EXCLUDED),
        }

    def test_one_dimensional_algebra(self):
        f = scalar_field()
        u = f.unit_element()
        report = admissible_targets(f, u, u, trials=1)
        assert [str(r.profile) for r in report.rows] == ["1^1"]
        assert report.rows[0].status == NOT_EXCLUDED


class TestMonotonicity:
    def test_adding_words_never_shrinks_the_span(self):
        res = acon()
        alg = res.algebra
        args = [res.generator_element("x"), res.generator_element("y")]
        base_fam = tower_family(3)
        d_base = family_span_dim(alg, base_fam, args)
        extended = WordFamily(
            base_fam.slots,
            list(base_fam.words)
            + [parse_ncpoly("x*y^2", base_fam.slots), parse_ncpoly("y^2", base_fam.slots)],
        )
        d_ext = family_span_dim(alg, extended, args)
        assert d_ext >= d_base
        # a larger achieved span can only shrink the certified-admissible set
        from algdeform.analysis import enumerate_semisimple_types

        kept_base = {
            str(p) for p in enumerate_semisimple_types(alg.dim) if tower_bound(p) >= d_base
        }
        kept_ext = {
            str(p) for p in enumerate_semisimple_types(alg.dim) if tower_bound(p) >= d_ext
        }
        assert kept_ext <= kept_base


class TestSampledLowerBound:
    def test_two_block_reaches_bound(self):
        assert sampled_lower_bound(BlockProfile({2: 1}), tower_family(4), 50, 0) == 4

    def test_identity_family(self):
        fam = WordFamily(("x", "y"), [NcPoly.one(("x", "y"))])
        assert sampled_lower_bound(BlockProfile({1: 1}), fam, 5, 0) == 1

    def test_three_block_reaches_cayley_hamilton_ceiling(self):
        assert sampled_lower_bound(BlockProfile({3: 1}), tower_family(9), 50, 0) == 6

    def test_monotone_in_trials(self):
        fam = tower_family(6)
        profile = BlockProfile({2: 1, 1: 1})
        values = [sampled_lower_bound(profile, fam, t, seed=1) for t in (1, 3, 10)]
        assert values == sorted(values)

    def test_deterministic(self):
        fam = tower_family(5)
        profile = BlockProfile({2: 2})
        a = sampled_lower_bound(profile, fam, 7, seed=9)
        b = sampled_lower_bound(profile, fam, 7, seed=9)
        assert a == b

    def test_sampled_never_beats_certified(self):
        fam = tower_family(8)
        for profile in (
            BlockProfile({1: 4}),
            BlockProfile({2: 1}),
            BlockProfile({2: 2}),
            BlockProfile({3: 1}),
            BlockProfile({2: 1, 1: 4}),
        ):
            assert sampled_lower_bound(profile, fam, 10, 0) <= tower_bound(profile)


def tower_witness(profile):
    """The model algebra of ``profile`` with x block-diagonal with distinct
    diagonal entries 1, 2, ... and y the sum over blocks of the all-ones
    matrix J_b.  The model is the direct sum of the blocks in ascending size,
    each on its matrix units e_rc in row-major order."""
    model = from_profile(profile)
    x = [0] * model.dim
    y = [0] * model.dim
    offset = diagonal = 0
    for j in sorted(profile.counts):
        for _ in range(profile.counts[j]):
            for r in range(j):
                diagonal += 1
                x[offset + r * j + r] = diagonal
            y[offset:offset + j * j] = [1] * (j * j)
            offset += j * j
    return model, model.element(x), model.element(y)


class TestTowerWitness:
    """The integer witness attains the certified ceiling on every profile, so
    the sampled bound can only fall short of it."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_witness_spans_the_tower_bound(self, n):
        fam = tower_family(n)
        for profile in enumerate_semisimple_types(n):
            model, x, y = tower_witness(profile)
            bound = tower_bound(profile)
            assert family_span_dim(model, fam, [x, y]) == bound, str(profile)
            assert sampled_lower_bound(profile, fam, trials=3) <= bound, str(profile)


class TestGeneration:
    def test_full_matrix_algebra_generated_by_two_elements(self):
        m2 = matrix_unit_algebra(2)
        gx = m2.element([0, 1, 1, 0])  # the symmetric swap
        gy = m2.element([1, 0, 0, 0])  # a rank-one idempotent
        assert generated_subalgebra_dim(m2, [gx, gy]) == 4

    def test_scalars_generate_nothing_extra(self):
        f = scalar_field()
        assert generated_subalgebra_dim(f, [f.unit_element()]) == 1
