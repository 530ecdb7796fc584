import gc

import pytest

from algdeform.analysis import BlockProfile, enumerate_semisimple_types
from algdeform.constructions import (
    dual_numbers,
    from_profile,
    matrix_unit_algebra,
    scalar_field,
)
from algdeform.obstruction import (
    NOT_EXCLUDED,
    NotGeneratingError,
    _tower_words,
    admissible_targets,
    family_span_dim,
    generated_subalgebra_dim,
    sampled_lower_bound,
    tower_bound,
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
        assert _tower_words(0) == ["1", "y"]

    def test_depth_two(self):
        assert _tower_words(2) == ["1", "x", "x^2", "y", "y*x", "y*x^2"]

    def test_depth_matches_dimension_convention(self):
        assert len(_tower_words(12)) == 26


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
        d = family_span_dim(
            res.algebra, res.generator_element("x"), res.generator_element("y"), 12
        )
        assert d == 12

    def test_cayley_hamilton_ceiling_in_m3(self):
        # brute-force check on seeded random samples: a depth-9 tower in the
        # 3x3 matrix algebra never beats 2*3 = 6
        assert sampled_lower_bound(BlockProfile({3: 1}), 9, trials=10, seed=3) <= 6

    def test_evaluation_leaves_no_cyclic_garbage(self):
        # products freed by reference counting do not wait for the collector
        m2 = matrix_unit_algebra(2)
        args = [m2.basis_element(0), m2.element([0, 1, 1, 0])]
        gc.collect()
        gc.disable()
        try:
            assert family_span_dim(m2, *args, 4) == 4
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_negative_depth(self):
        m2 = matrix_unit_algebra(2)
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            family_span_dim(m2, m2.basis_element(0), m2.basis_element(1), -1)

    def test_span_never_exceeds_dimension(self):
        res = acon()
        d = family_span_dim(
            res.algebra, res.generator_element("x"), res.generator_element("y"), 20
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
        # one step deeper, the tower gains the two words x^4 and y*x^4
        res = acon()
        alg = res.algebra
        args = [res.generator_element("x"), res.generator_element("y")]
        d_base = family_span_dim(alg, *args, 3)
        d_ext = family_span_dim(alg, *args, 4)
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
        assert sampled_lower_bound(BlockProfile({2: 1}), 4, 50, 0) == 4

    def test_three_block_reaches_cayley_hamilton_ceiling(self):
        assert sampled_lower_bound(BlockProfile({3: 1}), 9, 50, 0) == 6

    def test_monotone_in_trials(self):
        profile = BlockProfile({2: 1, 1: 1})
        values = [sampled_lower_bound(profile, 6, t, seed=1) for t in (1, 3, 10)]
        assert values == sorted(values)

    def test_deterministic(self):
        profile = BlockProfile({2: 2})
        a = sampled_lower_bound(profile, 5, 7, seed=9)
        b = sampled_lower_bound(profile, 5, 7, seed=9)
        assert a == b

    def test_sampled_never_beats_certified(self):
        for profile in (
            BlockProfile({1: 4}),
            BlockProfile({2: 1}),
            BlockProfile({2: 2}),
            BlockProfile({3: 1}),
            BlockProfile({2: 1, 1: 4}),
        ):
            assert sampled_lower_bound(profile, 8, 10, 0) <= tower_bound(profile)


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
        for profile in enumerate_semisimple_types(n):
            model, x, y = tower_witness(profile)
            bound = tower_bound(profile)
            assert family_span_dim(model, x, y, n) == bound, str(profile)
            assert sampled_lower_bound(profile, n, trials=3) <= bound, str(profile)


class TestSamplingCap:
    """The cap counts trials * profiles * n^3 for the whole run, and is
    checked before the generation check or any product."""

    @pytest.mark.parametrize("size, trials", [(4, 1000), (5, 50), (6, 50)])
    def test_large_runs_are_refused(self, size, trials, monkeypatch):
        from algdeform import obstruction

        def no_work(*args):
            raise AssertionError("work was done past the cap")

        monkeypatch.setattr(obstruction, "generated_subalgebra_dim", no_work)
        alg = from_profile(BlockProfile({size: 1}))
        u = alg.unit_element()
        with pytest.raises(ValueError, match="above the cap of 10000000"):
            admissible_targets(alg, u, u, trials=trials)

    def test_the_contraction_algebra_runs_1000_trials(self, monkeypatch):
        # 1000 trials * 5 profiles * 12^3 = 8640000
        from algdeform import obstruction

        monkeypatch.setattr(obstruction, "sampled_lower_bound", lambda *args: 0)
        res = acon()
        report = admissible_targets(
            res.algebra, res.generator_element("x"), res.generator_element("y"), trials=1000
        )
        assert len(report.rows) == 5


class TestGeneration:
    def test_full_matrix_algebra_generated_by_two_elements(self):
        m2 = matrix_unit_algebra(2)
        gx = m2.element([0, 1, 1, 0])  # the symmetric swap
        gy = m2.element([1, 0, 0, 0])  # a rank-one idempotent
        assert generated_subalgebra_dim(m2, [gx, gy]) == 4

    def test_scalars_generate_nothing_extra(self):
        f = scalar_field()
        assert generated_subalgebra_dim(f, [f.unit_element()]) == 1
