import pytest

from algdeform.ncpoly import parse_ncpoly
from algdeform.presentation import (
    MAX_DEGREE,
    MAX_WORDS,
    BuildResult,
    DimensionMismatchError,
    NoStabilizationError,
    NotClosedError,
    Presentation,
    build,
)

XY = ("x", "y")

ACON_RELATIONS = (
    "y^6 - x^3 - y^2*x",
    "y^4*x + x^2 + y^2",
    "x^4 - y^4",
    "y*x^2 + y^3",
    "x*y + y*x",
)


def presentation(gens, sources, expected_dim, max_degree=None):
    rels = [parse_ncpoly(s, gens) for s in sources]
    return Presentation(gens, rels, expected_dim, max_degree)


def acon_build() -> BuildResult:
    return build(presentation(XY, ACON_RELATIONS, 12))


class TestBuild:
    def test_dual_numbers(self):
        res = build(presentation(("x",), ["x^2"], 2))
        assert res.algebra.dim == 2
        assert res.word_basis == ((), (0,))
        x = res.generator_element("x")
        assert (x * x).is_zero()

    def test_exterior_algebra(self):
        res = build(presentation(XY, ["x^2", "y^2", "x*y + y*x"], 4))
        assert res.algebra.dim == 4
        assert res.word_basis == ((), (0,), (1,), (0, 1))
        # all length-3 words vanish
        for w in ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)):
            assert res.reduce(w).is_zero()

    def test_contraction_algebra_dimension_twelve(self):
        res = acon_build()
        assert res.algebra.dim == 12
        assert res.algebra.validate().ok

    def test_relations_vanish_under_reduce(self):
        for pres in (
            presentation(("x",), ["x^2"], 2),
            presentation(XY, ["x^2", "y^2", "x*y + y*x"], 4),
            presentation(XY, ACON_RELATIONS, 12),
        ):
            res = build(pres)
            for r in pres.relations:
                assert res.evaluate_poly(r).is_zero(), str(r)

    def test_rebuild_with_higher_cap_is_stable(self):
        base = acon_build()
        deeper = build(presentation(XY, ACON_RELATIONS, 12, max_degree=base.degree + 2))
        assert deeper.word_basis == base.word_basis
        assert deeper.algebra.table == base.algebra.table

    def test_validated_table_is_returned(self):
        res = build(presentation(XY, ["x*y - y*x", "x^3", "y^2"], 6))
        assert res.algebra.validate().ok
        assert res.algebra.dim == 6


class TestEvaluateWord:
    def test_empty_word_is_unit(self):
        res = build(presentation(("x",), ["x^2"], 2))
        assert res.reduce(()) == res.algebra.unit_element()

    def test_nilpotent_square(self):
        res = build(presentation(("x",), ["x^2"], 2))
        assert res.reduce((0, 0)).is_zero()

    def test_exterior_sign_flip(self):
        res = build(presentation(XY, ["x^2", "y^2", "x*y + y*x"], 4))
        assert res.reduce((1, 0)) == -res.reduce((0, 1))

    def test_multiplicative(self):
        res = acon_build()
        u, v = (0, 1, 0), (1, 1)
        assert res.reduce(u + v) == res.reduce(u) * res.reduce(v)

    def test_word_too_long(self):
        res = build(presentation(("x",), ["x^2"], 2))
        with pytest.raises(ValueError):
            res.reduce((0,) * (res.degree + 1))


class TestErrors:
    def test_dimension_mismatch_reports_found_dim(self):
        with pytest.raises(DimensionMismatchError) as err:
            build(presentation(("x",), ["x^2"], 3))
        assert err.value.found_dim == 2

    def test_contraction_algebra_wrong_expectation(self):
        with pytest.raises(DimensionMismatchError) as err:
            build(presentation(XY, ACON_RELATIONS, 11))
        assert err.value.found_dim == 12

    def test_no_acceptance_before_every_relation_is_in(self):
        # x^3 alone stabilizes at dimension 3 by degree 3, but with x^3 = 0
        # the degree-10 relation x^10 = 1 gives 1 = 0
        for expected in (3, 1):
            with pytest.raises(DimensionMismatchError) as err:
                build(presentation(("x",), ["x^3", "x^10 - 1"], expected))
            assert err.value.found_dim == 0

    def test_no_stabilization_without_relations(self):
        # a free generator can never stabilize
        with pytest.raises(NoStabilizationError):
            build(Presentation(("x",), [], 1, max_degree=5))

    def test_no_stabilization_from_late_consequences(self):
        # x*y = y and y*x = x force the idempotent consequences x^2 = x and
        # y^2 = y only at degree 3, so a cap of 3 still sees fresh short pivots
        with pytest.raises(NoStabilizationError):
            build(presentation(XY, ["x*y - y", "y*x - x"], 3, max_degree=3))

    def test_not_closed_when_cap_blocks_products(self):
        with pytest.raises(NotClosedError):
            build(presentation(XY, ["x*y - y", "y*x - x"], 3, max_degree=2))

    def test_generator_named_i_is_refused(self):
        # no relation needs parsing: the constructor checks the names itself
        with pytest.raises(ValueError, match="'i' is reserved for the imaginary unit"):
            Presentation(("x", "i"), [], 3)

    def test_max_degree_is_capped(self):
        with pytest.raises(ValueError, match="above the cap"):
            presentation(XY, ACON_RELATIONS, 12, max_degree=MAX_DEGREE + 1)
        assert presentation(("x",), ["x^40"], 40).max_degree == MAX_DEGREE

    def test_words_walked_are_capped(self):
        # 2^15 - 1 words up to degree 14 on two generators: the contraction
        # algebra's default still fits
        assert presentation(XY, ACON_RELATIONS, 12).max_degree == 14
        with pytest.raises(ValueError, match="max_degree 15 walks 65535 words over 2 generators, "
                                             f"above the cap of {MAX_WORDS}"):
            presentation(XY, ACON_RELATIONS, 12, max_degree=15)
        # the default is cut down to fit: 11111 words up to degree 4 on ten
        gens = tuple("abcdefghjk")
        assert presentation(gens, ["a*b"], 3).max_degree == 4

    def test_wrong_expectation_reported_for_exterior(self):
        with pytest.raises(DimensionMismatchError) as err:
            build(presentation(XY, ["x^2", "y^2", "x*y + y*x"], 3, max_degree=6))
        assert err.value.found_dim == 4

    def test_commutative_truncation_builds(self):
        res = build(presentation(("x",), ["x^5"], 5))
        assert res.algebra.dim == 5
        x = res.generator_element("x")
        p = x
        for _ in range(4):
            p = p * x
        assert p.is_zero()

    def test_rejects_zero_relation(self):
        with pytest.raises(ValueError):
            presentation(XY, ["x - x"], 2)

    def test_rejects_t_dependent_relation(self):
        with pytest.raises(ValueError):
            presentation(XY, ["x^2 - t"], 2)


    @pytest.mark.parametrize("value", [2.9, True, "2"])
    def test_expected_dim_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="expected_dim must be a JSON integer"):
            presentation(("x",), ["x^2"], value)

    @pytest.mark.parametrize("value", [2.9, True, "2"])
    def test_max_degree_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="max_degree must be a JSON integer"):
            presentation(("x",), ["x^2"], 2, max_degree=value)


class TestJson:
    def test_roundtrip_preserves_build(self):
        pres = presentation(XY, ACON_RELATIONS, 12)
        again = Presentation.from_json_dict(pres.to_json_dict())
        assert again.generators == pres.generators
        assert again.relations == pres.relations
        assert build(again).word_basis == build(pres).word_basis
