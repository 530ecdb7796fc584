import random
from fractions import Fraction

import pytest

from algdeform.linalg import (
    GaussianRational,
    Matrix,
    ScalarSyntaxError,
    Subspace,
    parse_scalar,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def random_scalar(rng, big=False):
    bound = 10**6 if big else 9
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    if rng.random() < 0.5:
        return GaussianRational(Fraction(num, den))
    num2 = rng.randint(-bound, bound)
    den2 = rng.randint(1, bound)
    return GaussianRational(Fraction(num, den), Fraction(num2, den2))


class TestScalar:
    def test_rational_embedding(self):
        assert gr(3) == 3
        assert gr(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(gr(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert gr(3, 1) != 3

    def test_exact_arithmetic_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_scalar(rng, big=True)
            b = random_scalar(rng, big=True)
            assert (a + b) - b == a
            if b:
                assert (a * b) / b == a

    def test_lowest_terms_positive_denominator(self):
        x = gr(Fraction(2, 4)) + gr(Fraction(1, 4))
        assert x.re.numerator == 3 and x.re.denominator == 4
        y = GaussianRational(Fraction(1, -2))
        assert y.re.denominator == 2 and y.re.numerator == -1

    def test_complex_multiplication(self):
        i = gr(0, 1)
        assert i * i == -1
        assert (gr(1, 1) * gr(1, -1)) == 2
        assert gr(2, 3).conjugate() == gr(2, -3)
        assert (gr(2, 3) / gr(2, 3)) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_parse_examples(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("3/2") == Fraction(3, 2)
        assert parse_scalar("-3/2") == Fraction(-3, 2)
        assert parse_scalar("1/2+3/4*i") == gr(Fraction(1, 2), Fraction(3, 4))
        assert parse_scalar("1/2-3/4*i") == gr(Fraction(1, 2), Fraction(-3, 4))
        assert parse_scalar("3/4*i") == gr(0, Fraction(3, 4))
        assert parse_scalar("i") == gr(0, 1)
        assert parse_scalar("-i") == gr(0, -1)
        assert parse_scalar(" 1 / 2 ") == Fraction(1, 2)
        assert parse_scalar("0") == 0

    @pytest.mark.parametrize(
        "bad", ["", "x", "1/0", "1+2", "i+i", "1.5", "3i", "--2", "*i", "-*i", "1+*i", "1-*i", "**i"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(bad)

    @pytest.mark.parametrize(
        "bad", ["\u0663", "\uff11\uff12", "\u00b2", "1/\u00b2", "-\u0663", "1/\u0663", "\u0663*i", "1+\u00b2*i"]
    )
    def test_parse_accepts_ascii_digits_only(self, bad):
        with pytest.raises(ScalarSyntaxError, match="malformed scalar literal"):
            parse_scalar(bad)

    def test_print_parse_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            x = random_scalar(rng)
            assert parse_scalar(str(x)) == x


class TestMatrix:
    def test_rref_proportional_rows(self):
        m = Matrix([[1, 2], [2, 4]])
        r, pivots = m.rref()
        assert r == Matrix([[1, 2], [0, 0]])
        assert len(pivots) == 1

    def test_rref_identity(self):
        m = Matrix.identity(3)
        r, pivots = m.rref()
        assert r == m
        assert len(pivots) == 3

    def test_rref_permutation(self):
        m = Matrix([[0, 1], [1, 0]])
        r, pivots = m.rref()
        assert r == Matrix.identity(2)
        assert len(pivots) == 2

    def test_rref_idempotent(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [
                [random_scalar(rng) for _ in range(4)] for _ in range(rng.randint(1, 5))
            ]
            m = Matrix(rows)
            r1, _ = m.rref()
            r2, _ = r1.rref()
            assert r1 == r2

    def test_kernel_examples(self):
        k = Matrix([[1, 2], [2, 4]]).kernel()
        assert k.dim == 1
        assert k.contains([-2, 1])
        assert Matrix.identity(4).kernel().dim == 0
        assert Matrix.zero(2, 3).kernel().dim == 3

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = [
                [random_scalar(rng) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            rows = [r + [gr(0)] * (5 - len(r)) for r in rows]
            m = Matrix(rows)
            ker = m.kernel()
            for v in ker.basis:
                assert not any(m.mul_vec(v))

    def test_rank_nullity(self):
        rng = random.Random(9)
        for _ in range(25):
            cols = rng.randint(1, 5)
            rows = [
                [random_scalar(rng) for _ in range(cols)]
                for _ in range(rng.randint(1, 5))
            ]
            m = Matrix(rows)
            assert m.rank + m.kernel().dim == cols

    def test_rank_invariant_under_row_scaling_and_permutation(self):
        rng = random.Random(13)
        for _ in range(25):
            cols = rng.randint(1, 4)
            rows = [
                [random_scalar(rng) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))
            ]
            m = Matrix(rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            scaled = []
            for r in shuffled:
                c = gr(0)
                while not c:
                    c = random_scalar(rng)
                scaled.append([c * x for x in r])
            assert Matrix(scaled).rank == m.rank


class TestSubspace:
    def test_join_axes(self):
        a = Subspace.from_vectors(2, [[1, 0]])
        b = Subspace.from_vectors(2, [[0, 1]])
        assert a.join(b).dim == 2

    def test_join_idempotent(self):
        s = Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]])
        assert s.join(s) == s

    def test_join_excludes_outside_vector(self):
        s = Subspace.from_vectors(3, [[1, 1, 0]]).join(
            Subspace.from_vectors(3, [[1, -1, 0]])
        )
        assert s.dim == 2
        assert not s.contains([0, 0, 1])

    def test_join_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.zero(2).join(Subspace.zero(3))

    def test_contains(self):
        s = Subspace.from_vectors(2, [[1, 0]])
        assert s.contains([3, 0])
        assert not s.contains([0, 1])
        assert s.contains([0, 0])
        with pytest.raises(ValueError):
            s.contains([1, 0, 0])

    def test_canonical_equality(self):
        a = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 2]])
        b = Subspace.from_vectors(3, [[2, 2, 0], [1, 2, 1]])
        assert a == b
        assert a.basis == b.basis


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = Matrix([[random_scalar(rng) for _ in range(n)] for _ in range(n)])
            if m.rank < n:
                continue
            assert m.inverse() @ m == Matrix.identity(n)
            assert m @ m.inverse() == Matrix.identity(n)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3]]).inverse()
