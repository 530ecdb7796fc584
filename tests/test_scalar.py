"""The integer-triple ``GaussianRational`` against a pair-of-Fractions oracle.

``PairGaussian`` is the scalar class the package used before it stored
(p + q*i)/d as three ints: one ``Fraction`` for each part, every operation
done in ``Fraction`` arithmetic.  It is kept here, unchanged in substance,
as the reference that each operation, printed form and hash must match.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algdeform.linalg import GaussianRational, parse_scalar


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _rat_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class PairGaussian:
    """a + b*i stored as two Fractions (the reference implementation)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_rational(self) -> bool:
        return not self.im

    def conjugate(self):
        return PairGaussian(self.re, -self.im)

    def __neg__(self):
        return PairGaussian(-self.re, -self.im)

    def __add__(self, other):
        if not isinstance(other, PairGaussian):
            return PairGaussian(self.re + other, self.im)
        return PairGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, PairGaussian):
            return PairGaussian(self.re - other, self.im)
        return PairGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return PairGaussian(other - self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, PairGaussian):
            return PairGaussian(self.re * other, self.im * other)
        return PairGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        norm = self.re * self.re + self.im * self.im
        return PairGaussian(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        if not isinstance(other, PairGaussian):
            other = PairGaussian(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return PairGaussian(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, PairGaussian):
            return self.re == other.re and self.im == other.im
        return not self.im and self.re == other

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return _rat_str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{_rat_str(self.im)}*i"
        if not self.re:
            return imag
        sep = "+" if self.im > 0 else ""
        return f"{_rat_str(self.re)}{sep}{imag}"


# zero, units, small values and numerators/denominators far past a machine word
BIG = 10**40
integers = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2, -2]),
    st.integers(-9, 9),
    st.integers(-BIG, BIG),
)
rationals = st.one_of(
    integers.map(Fraction),
    st.builds(Fraction, integers, st.one_of(st.integers(1, 9), st.integers(1, BIG))),
)
# about half the values real, so the q == 0 branches are exercised
pairs = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))
plain = st.one_of(integers, rationals)

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def both(pair):
    return GaussianRational(*pair), PairGaussian(*pair)


def agrees(x, ref):
    assert isinstance(x, GaussianRational)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert str(x) == str(ref)
    assert hash(x) == hash(ref)
    assert bool(x) == bool(ref)
    assert x.is_rational() == ref.is_rational()


def apply(op, a, b):
    try:
        return op(a, b)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_unary_operations_match_the_oracle(pair):
    x, ref = both(pair)
    agrees(x, ref)
    agrees(-x, -ref)
    agrees(x.conjugate(), ref.conjugate())
    agrees(GaussianRational.coerce(x), ref)
    if ref:
        agrees(x.inverse(), ref.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, st.sampled_from(BINARY))
def test_binary_operations_match_the_oracle(pa, pb, op):
    (a, ra), (b, rb) = both(pa), both(pb)
    got, want = apply(op, a, b), apply(op, ra, rb)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        agrees(got, want)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)


@settings(max_examples=300, deadline=None)
@given(pairs, plain, st.sampled_from(BINARY))
def test_mixed_int_and_fraction_operands_on_either_side(pair, y, op):
    x, ref = both(pair)
    for got, want in ((apply(op, x, y), apply(op, ref, y)), (apply(op, y, x), apply(op, y, ref))):
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            agrees(got, want)
    assert (x == y) == (ref == y) == (y == x)
    for part in (ref.re.numerator, ref.re.denominator, ref.im.numerator):
        assert (x == part) == (ref == part) == (part == x)
    if x.is_rational():
        assert x == x.re and hash(x) == hash(x.re)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_printed_form_parses_back(pair):
    x, _ = both(pair)
    assert parse_scalar(str(x)) == x
    assert parse_scalar(str(x).replace("+", " + ")) == x


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equal_values_are_equal_however_they_are_reached(pa, pb):
    (a, _), (b, _) = both(pa), both(pb)
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)
    if b:
        assert (a * b) / b == a


def test_constructor_rejects_other_types():
    for bad in (1.5, "1", GaussianRational(1)):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            GaussianRational(bad)
        with pytest.raises(TypeError, match="expected int or Fraction"):
            GaussianRational(0, bad)
    assert GaussianRational(1).__add__(1.5) is NotImplemented
    assert GaussianRational(1).__eq__("1") is NotImplemented
