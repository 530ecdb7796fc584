import random
from fractions import Fraction

import pytest

from algdeform.analysis import BlockProfile, block_profile, is_semisimple, radical
from algdeform.constructions import dual_numbers, matrix_unit_algebra
from algdeform.deformation import (
    MIXED,
    NEVER,
    STABLE,
    DeformationFamily,
    FamilyValidationError,
    SampledFamily,
    ScheduleError,
    constant_family,
    dual_number_family,
    scan,
    trace_form_determinant,
)
from algdeform.linalg import GaussianRational
from algdeform.ncpoly import TPoly, parse_ncpoly


def _broken_triangular_family():
    from algdeform.constructions import upper_triangular_algebra

    ut = upper_triangular_algebra(2)
    table = [
        [[TPoly.const(c) for c in vec] for vec in row] for row in ut.table
    ]
    i12 = ut.labels.index("e12")
    i11 = ut.labels.index("e11")
    table[i12][i12][i11] = table[i12][i12][i11] + TPoly.t_power(1)
    return ut.labels, table, ut.unit


class TestValidateFamily:
    def test_dual_number_family_valid(self):
        assert dual_number_family().validate().ok

    def test_constant_families_valid(self):
        for alg in (matrix_unit_algebra(2), dual_numbers()):
            assert constant_family(alg).validate().ok

    def test_perturbed_unit_column_fails(self):
        fam = dual_number_family()
        table = [
            [list(vec) for vec in row] for row in fam.table
        ]
        # make 1*1 = 1 + t*x: the unit no longer acts as the identity at t != 0
        table[0][0][1] = table[0][0][1] + TPoly.t_power(1)
        bad = DeformationFamily(fam.labels, table, fam.unit)
        report = bad.validate()
        assert not report.ok
        assert report.unit

    def test_broken_associativity_in_t_detected(self):
        # upper-triangular 2x2 with e12*e12 = t*e11: then (e12 e12) e12 = t*e12
        # while e12 (e12 e12) = 0, an inconsistency visible at the t^1 layer
        bad = DeformationFamily(*_broken_triangular_family())
        report = bad.validate()
        assert not report.ok
        assert report.associativity


class TestSpecialize:
    def test_at_zero_reproduces_base(self):
        fam = dual_number_family()
        alg = fam.specialize(0)
        assert alg.table == dual_numbers().table
        assert radical(alg).dim == 1

    def test_at_quarter_is_split_semisimple(self):
        alg = dual_number_family().specialize(Fraction(1, 4))
        assert is_semisimple(alg)
        profile = block_profile(alg)
        assert profile == BlockProfile({1: 2})
        # the idempotent 1/2 + x witnesses the splitting over the rationals
        e = alg.element([Fraction(1, 2), 1])
        assert e * e == e

    def test_constant_family_everywhere_equal(self):
        fam = constant_family(matrix_unit_algebra(2))
        for s in (0, Fraction(3, 7), 5):
            assert fam.specialize(s).table == matrix_unit_algebra(2).table

    def test_rejects_complex_parameter(self):
        with pytest.raises(ValueError):
            dual_number_family().specialize(GaussianRational(0, 1))

    def test_rejects_invalid_family(self):
        bad = DeformationFamily(*_broken_triangular_family())
        with pytest.raises(FamilyValidationError):
            bad.specialize(Fraction(1, 2))

    def test_specializations_valid_at_random_rationals(self):
        rng = random.Random(71)
        fam = dual_number_family()
        for _ in range(20):
            s = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            assert fam.specialize(s).validate().ok


class TestScan:
    def test_dual_family_stable_split(self):
        result = scan(dual_number_family(), Fraction(1, 2), 8)
        assert result.verdict.kind == STABLE
        assert result.verdict.profile == BlockProfile({1: 2})
        assert result.verdict.start_index == 0
        assert [row.s for row in result.samples] == [
            GaussianRational(Fraction(1, 2 ** (k + 1))) for k in range(8)
        ]

    def test_constant_m2_stable(self):
        result = scan(constant_family(matrix_unit_algebra(2)), Fraction(1, 2), 4)
        assert result.verdict.kind == STABLE
        assert result.verdict.profile == BlockProfile({2: 1})
        assert result.verdict.start_index == 0

    def test_constant_dual_numbers_never_semisimple(self):
        result = scan(constant_family(dual_numbers()), Fraction(1, 2), 5)
        assert result.verdict.kind == NEVER
        assert all(row.radical_dim == 1 for row in result.samples)

    def test_schedule_validation(self):
        fam = dual_number_family()
        with pytest.raises(ScheduleError):
            scan(fam, Fraction(-1, 2), 4)
        with pytest.raises(ScheduleError):
            scan(fam, 0, 4)
        with pytest.raises(ScheduleError):
            scan(fam, Fraction(1, 2), 1)

    def test_gram_determinant_matches_semisimplicity(self):
        fam = dual_number_family()
        det = trace_form_determinant(fam)
        result = scan(fam, Fraction(1, 2), 6)
        for row in result.samples:
            assert (det.eval(row.s) != 0) == row.semisimple
        # at the degenerate point the determinant vanishes with the radical
        assert det.eval(0) == 0

    def test_verdict_deterministic(self):
        a = scan(dual_number_family(), Fraction(1, 4), 6)
        b = scan(dual_number_family(), Fraction(1, 4), 6)
        assert a.to_json_dict() == b.to_json_dict()


class TestSampledFamily:
    def family(self):
        gens = ("x",)
        return SampledFamily(gens, [parse_ncpoly("x^2 - t", gens)], expected_dim=2)

    def test_base_build_checked_on_construction(self):
        self.family()
        gens = ("x",)
        with pytest.raises(Exception):
            SampledFamily(gens, [parse_ncpoly("x^2 - t", gens)], expected_dim=3)

    @pytest.mark.parametrize("value", [2.9, True, "2"])
    def test_expected_dim_must_be_an_int(self, value):
        gens = ("x",)
        with pytest.raises(ValueError, match="expected_dim must be a JSON integer"):
            SampledFamily(gens, [parse_ncpoly("x^2 - t", gens)], expected_dim=value)

    @pytest.mark.parametrize("value", [2.9, True, "2"])
    def test_max_degree_must_be_an_int(self, value):
        gens = ("x",)
        with pytest.raises(ValueError, match="max_degree must be a JSON integer"):
            SampledFamily(gens, [parse_ncpoly("x^2 - t", gens)], 2, max_degree=value)

    def test_scan_splits(self):
        result = scan(self.family(), Fraction(1, 4), 6)
        assert result.verdict.kind == STABLE
        assert result.verdict.profile == BlockProfile({1: 2})
        assert all(row.dim == 2 for row in result.samples)

    def test_build_errors_reported_per_sample_and_go_mixed(self):
        gens = ("x",)
        # at t = 0 the relation is x^2 (dual numbers, dim 2); at t = s != 0
        # the cube term revives and the quotient has dimension 3, so every
        # positive sample fails the expected dimension and the scan continues
        # with error rows
        fam = SampledFamily(gens, [parse_ncpoly("x^2 - t*x^3", gens)], expected_dim=2)
        result = scan(fam, Fraction(1, 2), 4)
        assert result.verdict.kind == MIXED
        assert all(row.error is not None for row in result.samples)
        assert all("DimensionMismatch" in row.error for row in result.samples)

    def test_rescaled_split_stays_flat(self):
        gens = ("x",)
        # x^2 = t*x keeps {1, x} a basis at every t and splits at t != 0
        fam = SampledFamily(gens, [parse_ncpoly("x^2 - t*x", gens)], expected_dim=2)
        result = scan(fam, Fraction(1, 2), 4)
        assert result.verdict.kind == STABLE
        assert all(row.dim == 2 for row in result.samples)

    def test_json_roundtrip(self):
        fam = self.family()
        data = fam.to_json_dict()
        again = SampledFamily.from_json_dict(data)
        assert again.to_json_dict() == data

    def test_table_and_relation_kinds_agree(self):
        # the same deformation written both ways: as a structure-constant
        # table and as the relation template x^2 = t
        table_scan = scan(dual_number_family(), Fraction(1, 4), 6)
        relation_scan = scan(self.family(), Fraction(1, 4), 6)
        assert table_scan.verdict.kind == relation_scan.verdict.kind == STABLE
        assert table_scan.verdict.profile == relation_scan.verdict.profile
        for a, b in zip(table_scan.samples, relation_scan.samples):
            assert a.s == b.s
            assert a.semisimple == b.semisimple
            assert a.radical_dim == b.radical_dim
            assert a.profile == b.profile


class TestFamilyJson:
    def test_table_roundtrip(self):
        fam = dual_number_family()
        again = DeformationFamily.from_json_dict(fam.to_json_dict())
        assert again.table == fam.table
        assert again.unit == fam.unit
