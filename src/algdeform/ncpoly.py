"""Noncommutative polynomials in named generators.

Coefficients are polynomials in the deformation parameter t, so the same type
covers both static relations (constant in t) and t-parameterized families.
Words are tuples of generator indices ordered deglex (length first, then
lexicographic), and the module ships a parser for the relation syntax

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := scalar | name | name '^' uint | 't' | 't' '^' uint | '(' expr ')'

Juxtaposition without '*' is rejected so multi-character generator names stay
unambiguous.  The names ``t`` and ``i`` are reserved for the parameter and
the imaginary unit, so no generator may take them.  A generator or ``t``
exponent may not exceed :data:`MAX_DEGREE`; ``i^k`` is read as i^(k mod 4).
A product may not expand past :data:`MAX_WORDS` terms.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import ZERO, GaussianRational

Word = tuple  # tuple of generator indices; the empty tuple is the monomial 1

# Highest truncation degree a presentation build may be given, and so the
# highest exponent of a generator or of t in relation text: a longer word can
# never enter a build.
MAX_DEGREE = 64

# Most words a build may walk: every word of length at most max_degree, sum
# of g^d over d <= max_degree for g generators.  The 12-dimensional
# contraction algebra's default (g = 2, max_degree 14) walks 32767.  A
# relation with more words can never enter a build, so no product in
# relation text may expand past it either.
MAX_WORDS = 1 << 15


def word_key(w):
    """Deglex sort key: length first, then lexicographic on indices."""
    return (len(w), w)


def word_to_str(w, gens) -> str:
    """Render a word with exponent collapsing, e.g. (0,0,1) -> 'x^2*y'."""
    if not w:
        return "1"
    parts = []
    run_letter, run_len = w[0], 1
    for letter in w[1:]:
        if letter == run_letter:
            run_len += 1
        else:
            parts.append((run_letter, run_len))
            run_letter, run_len = letter, 1
    parts.append((run_letter, run_len))
    return "*".join(
        gens[g] if k == 1 else f"{gens[g]}^{k}" for g, k in parts
    )


class TPoly:
    """Polynomial in t with Gaussian-rational coefficients, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [GaussianRational.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls([c])

    @classmethod
    def t_power(cls, k: int) -> "TPoly":
        if k < 0:
            raise ValueError("negative power of t")
        return cls([0] * k + [1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("polynomial is not constant in t")
        return self.coeffs[0] if self.coeffs else ZERO

    @property
    def degree(self) -> int:
        """Degree in t; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return TPoly(out)

    def __sub__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                if b:
                    out[j + k] = out[j + k] + a * b
        return TPoly(out)

    __rmul__ = __mul__

    def eval(self, s) -> GaussianRational:
        """Exact Horner evaluation at t = s."""
        s = GaussianRational.coerce(s)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.coeffs == TPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            sign, body = _monomial_str(c, k, "")
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"TPoly({self})"


TPOLY_ONE = TPoly.const(1)


def _monomial_str(c: GaussianRational, k: int, word_part: str):
    """String for c * t^k * word, with the sign pulled out when unambiguous.

    Returns (sign, body) where sign is '+' or '-'.  Scalars mixing real and
    imaginary parts are parenthesized so the output re-parses.
    """
    sign = "+"
    if c.im and c.re:
        scalar_part = f"({c})"
    elif c.im:
        if c.im < 0:
            sign, c = "-", -c
        scalar_part = "" if c.im == 1 else str(c)
        if scalar_part == "":
            scalar_part = "i"
        # str() of a pure-imaginary value already ends in '*i'
    else:
        if c.re < 0:
            sign, c = "-", -c
        scalar_part = "" if c.re == 1 else str(c)
    t_part = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
    factors = [p for p in (scalar_part, t_part, word_part) if p]
    return sign, "*".join(factors) if factors else "1"


class NcParseError(ValueError):
    """Syntax or name error in relation text, with a character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NcPoly:
    """Noncommutative polynomial: finitely many words with TPoly coefficients."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        self.gens = tuple(gens)
        cleaned = {}
        for w, c in (terms or {}).items():
            if not isinstance(c, TPoly):
                c = TPoly.const(c)
            if c:
                cleaned[tuple(w)] = c
        self.terms = cleaned

    @classmethod
    def zero(cls, gens) -> "NcPoly":
        return cls(gens)

    @classmethod
    def one(cls, gens) -> "NcPoly":
        return cls(gens, {(): TPOLY_ONE})

    @classmethod
    def generator(cls, gens, index) -> "NcPoly":
        return cls(gens, {(index,): TPOLY_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant_in_t(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    @property
    def degree(self) -> int:
        """Maximum word length; the zero polynomial reports -1."""
        return max((len(w) for w in self.terms), default=-1)

    def words(self):
        return sorted(self.terms, key=word_key)

    def _check_alphabet(self, other: "NcPoly"):
        if self.gens != other.gens:
            raise ValueError(
                f"generator alphabet mismatch: {self.gens} vs {other.gens}"
            )

    def __neg__(self):
        return NcPoly(self.gens, {w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_alphabet(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return NcPoly(self.gens, out)

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, TPoly)):
            return self.scale(other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_alphabet(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                out[w] = out[w] + c if w in out else c
        return NcPoly(self.gens, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, TPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NcPoly":
        if not isinstance(c, TPoly):
            c = TPoly.const(c)
        return NcPoly(self.gens, {w: c0 * c for w, c0 in self.terms.items()})

    def at_t(self, s):
        """Specialize t = s; returns a list of (word, scalar) pairs in deglex order."""
        out = []
        for w in self.words():
            value = self.terms[w].eval(s)
            if value:
                out.append((w, value))
        return out

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            c = self.terms[w]
            word_part = word_to_str(w, self.gens) if w else ""
            nonzero = [k for k, a in enumerate(c.coeffs) if a]
            if len(nonzero) == 1:
                k = nonzero[0]
                sign, body = _monomial_str(c.coeffs[k], k, word_part)
            else:
                sign, body = "+", f"({c})" + (f"*{word_part}" if word_part else "")
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"NcPoly({self})"


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII digits only, as in scalar literals
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("num", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise NcParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src, gens):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.gens = gens
        self.index = {name: k for k, name in enumerate(gens)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise NcParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> NcPoly:
        acc = NcPoly.zero(self.gens)
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        term = self.parse_term()
        acc = acc + (-term if negate else term)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            acc = acc + (-term if op == "-" else term)
        return acc

    def parse_term(self) -> NcPoly:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            factor = self.parse_factor()
            if len(acc.terms) * len(factor.terms) > MAX_WORDS:
                raise NcParseError(
                    f"a product of {len(acc.terms)} by {len(factor.terms)} terms is above "
                    f"the cap of {MAX_WORDS} words", pos)
            acc = acc * factor
        return acc

    def parse_factor(self) -> NcPoly:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            coeff = Fraction(value)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dvalue, dpos = self.advance()
                if dkind != "num":
                    raise NcParseError("malformed scalar literal: expected denominator", dpos)
                if dvalue == 0:
                    raise NcParseError("malformed scalar literal: zero denominator", dpos)
                coeff = Fraction(value, dvalue)
            return NcPoly(self.gens, {(): TPoly.const(coeff)})
        if kind == "name":
            self.advance()
            if value == "t":
                k = self.parse_exponent(MAX_DEGREE)
                return NcPoly(self.gens, {(): TPoly.t_power(k)})
            if value in self.index:
                k = self.parse_exponent(MAX_DEGREE)
                return NcPoly(self.gens, {(self.index[value],) * k: TPOLY_ONE})
            if value == "i":
                k = self.parse_exponent() % 4
                return NcPoly(self.gens, {(): TPoly.const(GaussianRational(0, 1) ** k)})
            raise NcParseError(f"unknown generator {value!r}", pos)
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise NcParseError("expected a scalar, generator, 't', or '('", pos)

    def parse_exponent(self, cap=None) -> int:
        """The exponent after '^' (1 if there is none), at most ``cap``."""
        if self.peek()[0] != "^":
            return 1
        self.advance()
        kind, value, pos = self.advance()
        if kind != "num":
            raise NcParseError("expected a nonnegative integer exponent", pos)
        if cap is not None and value > cap:
            raise NcParseError(f"exponent {value} is above the cap of {cap}", pos)
        return value

    def finish(self):
        kind, value, pos = self.peek()
        if kind != "end":
            raise NcParseError(f"unexpected trailing input {value!r}", pos)


def _generator_names(generators):
    """The names as a tuple; a repeated name, ``t`` or ``i`` is a ``ValueError``."""
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate generator names")
    for name, meaning in (("t", "the deformation parameter"), ("i", "the imaginary unit")):
        if name in gens:
            raise ValueError(f"'{name}' is reserved for {meaning}")
    return gens


def parse_ncpoly(src: str, generators) -> NcPoly:
    """Parse relation text over the given generator names.

    The names ``t`` (the parameter) and ``i`` (the imaginary unit) may not
    be declared as generators, so every printed polynomial parses back.
    """
    gens = _generator_names(generators)
    parser = _Parser(src, gens)
    poly = parser.parse_expr()
    parser.finish()
    return poly
