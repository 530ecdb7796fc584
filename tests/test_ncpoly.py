import random
from fractions import Fraction

import pytest

from algdeform.linalg import GaussianRational
from algdeform import ncpoly
from algdeform.ncpoly import (
    MAX_DEGREE,
    MAX_PARSE_TERMS,
    MAX_WORDS,
    NcParseError,
    NcPoly,
    TPoly,
    parse_ncpoly,
    word_to_str,
)

XY = ("x", "y")


def test_parse_commutator_relation():
    p = parse_ncpoly("x*y + y*x", XY)
    assert len(p.terms) == 2
    assert p.terms[(0, 1)] == TPoly.const(1)
    assert p.terms[(1, 0)] == TPoly.const(1)


def test_parse_mixed_degrees():
    p = parse_ncpoly("y^6 - x^3 - y^2*x", XY)
    assert sorted(len(w) for w in p.terms) == [3, 3, 6]
    assert p.terms[(1,) * 6] == TPoly.const(1)
    assert p.terms[(0, 0, 0)] == TPoly.const(-1)
    assert p.terms[(1, 1, 0)] == TPoly.const(-1)


def test_parse_zero():
    assert parse_ncpoly("0", XY).is_zero()
    assert parse_ncpoly("x - x", XY).is_zero()


def test_parse_scalars_and_parameter():
    p = parse_ncpoly("1/2*x + t^2*y - 3", XY)
    assert p.terms[(0,)] == TPoly.const(Fraction(1, 2))
    assert p.terms[(1,)] == TPoly.t_power(2)
    assert p.terms[()] == TPoly.const(-3)


def test_parse_imaginary_unit():
    p = parse_ncpoly("i*x + i^2", XY)
    assert p.terms[(0,)] == TPoly.const(GaussianRational(0, 1))
    assert p.terms[()] == TPoly.const(-1)


def test_powers_of_i_are_read_mod_4():
    i = GaussianRational(0, 1)
    for k, value in ((0, 1), (5, i), (30_000_002, -1), (10 ** 40 + 3, -i)):
        assert parse_ncpoly(f"i^{k}", XY) == NcPoly(XY, {(): TPoly.const(value)})


def test_generator_and_t_exponents_are_capped():
    assert parse_ncpoly(f"x^{MAX_DEGREE} - t^{MAX_DEGREE}", XY).degree == MAX_DEGREE
    for text in (f"x^{MAX_DEGREE + 1}", f"y - t^{MAX_DEGREE + 1}"):
        with pytest.raises(NcParseError, match=f"exponent {MAX_DEGREE + 1} is above the cap of "
                                               f"{MAX_DEGREE}") as err:
            parse_ncpoly(text, XY)
        assert err.value.position == len(text) - 2


def test_products_are_capped_at_max_words(monkeypatch):
    # (x+y)^k has 2^k terms: the 16th factor would make 65536
    text = "*".join(["(x+y)"] * 16)
    with pytest.raises(NcParseError, match=f"a product of 32768 by 2 terms is above the cap "
                                           f"of {MAX_WORDS} words") as err:
        parse_ncpoly(text, XY)
    assert err.value.position == text.rindex("*")
    monkeypatch.setattr(ncpoly, "MAX_WORDS", 4)
    assert len(parse_ncpoly("(x+y)*(x+y)", XY).terms) == 4
    with pytest.raises(NcParseError, match="a product of 4 by 2 terms") as err:
        parse_ncpoly("(x+y)*(x+y)*(x+y)", XY)
    assert err.value.position == 11


def test_the_products_and_sums_of_a_relation_share_one_budget(monkeypatch):
    # 15 factors (x+y) form 65532 terms by their products and 30 by their sums,
    # within the budget; the second such product in a sum passes it at its
    # 14th '*', before the per-product cap is reached
    product = "*".join(["(x+y)"] * 15)
    assert len(parse_ncpoly(product, XY).terms) == MAX_WORDS
    text = f"{product} + {product}"
    with pytest.raises(NcParseError, match=f"this product brings the terms formed in one "
                                           f"relation to 131124, above the budget of "
                                           f"{MAX_PARSE_TERMS}") as err:
        parse_ncpoly(text, XY)
    assert err.value.position == text.rindex("*")
    # at a sum: x + y forms 2 terms, x*y 1, and the second sum 2 + 1
    monkeypatch.setattr(ncpoly, "MAX_PARSE_TERMS", 6)
    assert len(parse_ncpoly("x + y + x*y", XY).terms) == 3
    monkeypatch.setattr(ncpoly, "MAX_PARSE_TERMS", 5)
    with pytest.raises(NcParseError, match="this sum brings the terms formed in one relation "
                                           "to 6, above the budget of 5") as err:
        parse_ncpoly("x + y + x*y", XY)
    assert err.value.position == 6


def test_a_long_sum_of_one_word_terms_is_held_to_the_budget(monkeypatch):
    # distinct words: the k-th sum forms k + 1 terms, 2 + 3 + ... + 11 = 65
    monkeypatch.setattr(ncpoly, "MAX_PARSE_TERMS", 64)
    words = [f"x^{k}" for k in range(11)]
    text = " + ".join(words)
    assert len(parse_ncpoly(" + ".join(words[:10]), XY).terms) == 10
    with pytest.raises(NcParseError, match="to 65, above the budget of 64") as err:
        parse_ncpoly(text, XY)
    assert err.value.position == text.rindex("+")
    # one word summed again and again forms 2 terms each time
    with pytest.raises(NcParseError, match="to 66, above the budget of 64") as err:
        parse_ncpoly(" + ".join(["x"] * 34), XY)
    assert err.value.position == 4 * 32 + 2


def test_parse_parentheses_and_unary_minus():
    p = parse_ncpoly("-(x - y)*x", XY)
    q = parse_ncpoly("y*x - x^2", XY)
    assert p == q


def test_parse_exponent_zero_is_identity_monomial():
    assert parse_ncpoly("x^0", XY) == NcPoly.one(XY)


def test_parse_error_positions():
    with pytest.raises(NcParseError) as err:
        parse_ncpoly("x + z", XY)
    assert err.value.position == 4
    with pytest.raises(NcParseError) as err:
        parse_ncpoly("x y", XY)
    assert err.value.position == 2
    with pytest.raises(NcParseError):
        parse_ncpoly("x + 1/0", XY)
    with pytest.raises(NcParseError):
        parse_ncpoly("x^y", XY)
    with pytest.raises(NcParseError):
        parse_ncpoly("(x", XY)


def test_reserved_and_duplicate_generator_names():
    with pytest.raises(ValueError):
        parse_ncpoly("t", ("t", "x"))
    with pytest.raises(ValueError):
        parse_ncpoly("x", ("x", "x"))


def test_generator_named_i_is_refused():
    # declared, ``i`` would read back the printed scalar i as a word
    with pytest.raises(ValueError, match="'i' is reserved for the imaginary unit"):
        parse_ncpoly("i*x", ("x", "i"))
    assert parse_ncpoly("i*x", ("x",)) == NcPoly(("x",), {(0,): TPoly.const(GaussianRational(0, 1))})


def test_multiply_single_words():
    x = NcPoly.generator(XY, 0)
    y = NcPoly.generator(XY, 1)
    assert (x * y).terms == {(0, 1): TPoly.const(1)}


def test_multiply_distributes_preserving_order():
    x = NcPoly.generator(XY, 0)
    y = NcPoly.generator(XY, 1)
    left = (x + y) * (x - y)
    expected = parse_ncpoly("x^2 - x*y + y*x - y^2", XY)
    assert left == expected


def test_multiply_identity():
    p = parse_ncpoly("x*y - 2*y + 3", XY)
    assert NcPoly.one(XY) * p == p
    assert p * NcPoly.one(XY) == p


def test_multiply_alphabet_mismatch():
    with pytest.raises(ValueError):
        NcPoly.generator(("x",), 0) * NcPoly.generator(XY, 0)


def random_tpoly(rng):
    return TPoly(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    )


def random_ncpoly(rng, gens=XY):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randrange(len(gens)) for _ in range(rng.randint(0, 3)))
        terms[w] = random_tpoly(rng)
    return NcPoly(gens, terms)


def test_multiply_associative_randomized():
    rng = random.Random(21)
    for _ in range(60):
        a, b, c = (random_ncpoly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_product_degree_bound():
    rng = random.Random(22)
    for _ in range(60):
        a, b = random_ncpoly(rng), random_ncpoly(rng)
        p = a * b
        if not p.is_zero():
            assert p.degree <= a.degree + b.degree


def test_additive_inverse():
    rng = random.Random(23)
    for _ in range(30):
        p = random_ncpoly(rng)
        assert (p + (-p)).is_zero()


def test_print_parse_roundtrip():
    rng = random.Random(29)
    for _ in range(150):
        p = random_ncpoly(rng)
        assert parse_ncpoly(str(p), XY) == p


def test_print_parse_roundtrip_gaussian_coeffs():
    samples = [
        NcPoly(XY, {(0,): TPoly.const(GaussianRational(Fraction(1, 2), Fraction(-3, 4)))}),
        NcPoly(XY, {(0, 1): TPoly.const(GaussianRational(0, 1))}),
        NcPoly(XY, {(): TPoly([GaussianRational(0, -1), GaussianRational(2)])}),
    ]
    for p in samples:
        assert parse_ncpoly(str(p), XY) == p


def test_tpoly_eval_examples():
    assert TPoly.t_power(2).eval(Fraction(1, 2)) == Fraction(1, 4)
    assert TPoly.const(1).eval(Fraction(7, 3)) == 1
    assert TPoly([1, -1]).eval(1) == 0


def test_tpoly_eval_is_ring_homomorphism():
    rng = random.Random(31)
    for _ in range(60):
        p, q = random_tpoly(rng), random_tpoly(rng)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (p * q).eval(s) == p.eval(s) * q.eval(s)
        assert (p + q).eval(s) == p.eval(s) + q.eval(s)


def test_tpoly_trimming():
    assert TPoly([1, 0, 0]).coeffs == TPoly([1]).coeffs
    assert TPoly([0, 0]).is_zero()
    assert TPoly([2, 3]).eval(0) == 2


def test_word_to_str():
    assert word_to_str((), XY) == "1"
    assert word_to_str((0, 0, 1), XY) == "x^2*y"
    assert word_to_str((1, 0, 1), XY) == "y*x*y"
