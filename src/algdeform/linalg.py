"""Exact linear algebra over the Gaussian rationals.

Scalars a + b*i are stored as int triples (p + q*i)/d, so an operation is a
few int products and one gcd.  Matrices are dense, but every elimination,
from rref and kernels to ideal closures and presentation builds, runs through
one exact kernel: an incremental echelon basis of sparse ``{key: scalar}``
rows that visits only nonzero entries.  A subspace is stored as the fully
reduced echelon that produced it, so subspace equality compares its sparse
rows; the dense basis is a view built on first use.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ScalarSyntaxError(ValueError):
    """Malformed scalar literal."""


def _gaussian(p, q, d):
    """(p + q*i)/d for ints with d > 0, brought to lowest terms."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = object.__new__(GaussianRational)
    x._p, x._q, x._d = p, q, d
    return x


def _ratio(x):
    """``(numerator, denominator)`` of an ``int`` or ``Fraction``."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _lift(x):
    return GaussianRational(x) if isinstance(x, (int, Fraction)) else NotImplemented


class GaussianRational:
    """An exact number a + b*i with rational real and imaginary parts.

    Stored as the canonical int triple (p + q*i)/d, d > 0, gcd(p, q, d) = 1;
    ``re`` and ``im`` are ``Fraction``.  Values are immutable; arithmetic
    mixes freely with ``int`` and ``Fraction``, and a real value (q = 0)
    compares (and hashes) equal to the corresponding plain rational.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, re=0, im=0):
        (a, b), (c, e) = _ratio(re), _ratio(im)
        p, q, d = a * e, c * b, b * e
        g = gcd(p, q, d)
        self._p, self._q, self._d = p // g, q // g, d // g

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __bool__(self):
        return bool(self._p or self._q)

    def is_rational(self) -> bool:
        return not self._q

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self._p, -self._q, self._d)

    def __neg__(self):
        return _gaussian(-self._p, -self._q, self._d)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return _gaussian(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return _gaussian(self._p * e - other._p * d, self._q * e - other._q * d, d * e)

    def __rsub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(other._p * self._d - self._p * other._d, -self._q * other._d,
                         self._d * other._d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        p, q, r, s = self._p, self._q, other._p, other._q
        if not q and not s:
            return _gaussian(p * r, 0, self._d * other._d)
        return _gaussian(p * r - q * s, p * s + q * r, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        p, q, d = self._p, self._q, self._d
        if not p and not q:
            raise ZeroDivisionError("inverse of zero")
        return _gaussian(d * p, -d * q, p * p + q * q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(other) * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._p == other._p and self._q == other._q and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._q and self._p == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # must agree with Fraction's hash when the value is plain rational
        if not self._q:
            return hash(self._p) if self._d == 1 else hash(Fraction(self._p, self._d))
        return hash((self.re, self.im))

    def __str__(self):
        if not self._q:
            return _rat_str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{_rat_str(self.im)}*i"
        if not self._p:
            return imag
        sep = "+" if self._q > 0 else ""
        return f"{_rat_str(self.re)}{sep}{imag}"

    def __repr__(self):
        return f"GaussianRational({self})"


def _rat_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _parse_rational(text: str, full: str, sign: int):
    """``(numerator, denominator)`` of ``sign`` times an ``a`` or ``a/b`` literal."""
    num, slash, den = text.partition("/")
    if not num.isdigit():
        raise ScalarSyntaxError(f"malformed scalar literal {full!r}")
    if slash:
        if not den.isdigit():
            raise ScalarSyntaxError(f"malformed scalar literal {full!r}")
        if int(den) == 0:
            raise ScalarSyntaxError(f"zero denominator in scalar literal {full!r}")
        return sign * int(num), int(den)
    return sign * int(num), 1


def parse_scalar(text) -> GaussianRational:
    """Parse the exact scalar syntax: ``a/b``, ``a/b+c/d*i``, ``c/d*i``, ``i``.

    Integers abbreviate rationals (``3`` means ``3/1``) and whitespace is
    ignored; digits are ASCII only.  Raises :class:`ScalarSyntaxError` on
    anything else.
    """
    if isinstance(text, (int, Fraction)):
        return GaussianRational(text)
    s = str(text)
    if s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
        return _gaussian(int(s), 0, 1)
    s = "".join(s.split())
    if not s:
        raise ScalarSyntaxError("empty scalar literal")
    if not s.isascii():
        raise ScalarSyntaxError(f"malformed scalar literal {text!r}")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    re_part = None
    im_part = None
    for term in terms:
        sign = 1
        body = term
        if body and body[0] in "+-":
            if body[0] == "-":
                sign = -1
            body = body[1:]
        if not body:
            raise ScalarSyntaxError(f"malformed scalar literal {text!r}")
        if body.endswith("i"):
            if im_part is not None:
                raise ScalarSyntaxError(f"repeated imaginary part in {text!r}")
            mag = body[:-1]  # empty, or a magnitude and then a star: ``c*i``
            if mag and (len(mag) == 1 or mag[-1] != "*"):
                raise ScalarSyntaxError(f"malformed scalar literal {text!r}")
            im_part = _parse_rational(mag[:-1], s, sign) if mag else (sign, 1)
        else:
            if re_part is not None:
                raise ScalarSyntaxError(f"repeated real part in {text!r}")
            re_part = _parse_rational(body, s, sign)
    a, b = re_part or (0, 1)
    c, e = im_part or (0, 1)
    return _gaussian(a * e, c * b, b * e)


def _coerce_vector(entries):
    return tuple(GaussianRational.coerce(x) for x in entries)


class Matrix:
    """Dense matrix of Gaussian rationals.  Immutable after construction."""

    __slots__ = ("rows", "nrows", "ncols", "_rref")

    def __init__(self, rows):
        rows = tuple(_coerce_vector(r) for r in rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self.rows = rows
        self._rref = None

    @classmethod
    def identity(cls, n) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows, ncols) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    def _reduced(self):
        if self._rref is None:
            self._rref = _rref_rows((dict(enumerate(r)) for r in self.rows), self.ncols)
        return self._rref

    def rref(self):
        """Reduced row echelon form.  Returns ``(matrix, pivot_columns)``."""
        ech = self._reduced()
        rows = ech.dense(self.ncols) + ((ZERO,) * self.ncols,) * (self.nrows - len(ech.rows))
        return Matrix(rows), tuple(sorted(ech.rows))

    @property
    def rank(self) -> int:
        return len(self._reduced().rows)

    def kernel(self) -> "Subspace":
        """Right kernel, i.e. all v with M·v = 0."""
        return self._reduced().kernel(self.ncols)

    def mul_vec(self, vec):
        vec = _coerce_vector(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((row[j] * vec[j] for j in range(self.ncols) if vec[j]), ZERO)
            for row in self.rows
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        cols = list(zip(*other.rows)) if other.rows else []
        return Matrix(
            [
                [sum((a * b for a, b in zip(row, col) if a and b), ZERO) for col in cols]
                for row in self.rows
            ]
        )

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        augmented = [{**dict(enumerate(row)), n + i: ONE} for i, row in enumerate(self.rows)]
        rows = _rref_rows(augmented, 2 * n).rows
        if any(p not in rows for p in range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([[rows[p].get(n + j, ZERO) for j in range(n)] for p in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def _axpy(out, f, row):
    """out -= f * row on sparse dicts, dropping the entries that cancel."""
    for k, c in row.items():
        v = out.get(k)
        if v is None:
            out[k] = -(f * c)
        else:
            v = v - f * c
            if v:
                out[k] = v
            else:
                del out[k]


class _Echelon:
    """Incremental reduced echelon basis of sparse ``{key: scalar}`` rows.

    Keys may be of any totally ordered type; ``lead`` picks a row's pivot key
    (the smallest by default).  The basis is kept fully reduced: each row
    has a 1 at its pivot and 0 at every other pivot, so reducing a vector is
    one pass over the pivots it touches, in any order.  ``rows`` maps each
    pivot to its row without the pivot entry.
    """

    __slots__ = ("rows", "_lead")

    def __init__(self, lead=min):
        self.rows = {}
        self._lead = lead

    def reduce(self, vec):
        """The one vector congruent to ``vec`` with no entry at a pivot key."""
        rows = self.rows
        out = {k: c for k, c in vec.items() if c}
        for p in [k for k in out if k in rows]:
            _axpy(out, out.pop(p), rows[p])
        return out

    def add(self, vec):
        """Add ``vec``; its new row with the pivot's 1, or ``None`` if dependent."""
        tail = self.reduce(vec)
        if not tail:
            return None
        p = self._lead(tail)
        inv = tail.pop(p).inverse()
        if inv != 1:
            tail = {k: c * inv for k, c in tail.items()}
        for row in self.rows.values():
            f = row.pop(p, None)
            if f is not None:
                _axpy(row, f, tail)
        self.rows[p] = tail
        return {p: ONE, **tail}

    def vectors(self):
        """The rows with their pivot's 1, as sparse dicts in pivot order."""
        return [{p: ONE, **self.rows[p]} for p in sorted(self.rows)]

    def dense(self, ncols):
        """The rows of :meth:`vectors` as dense tuples over keys ``0 .. ncols-1``."""
        return tuple(tuple(v.get(k, ZERO) for k in range(ncols)) for v in self.vectors())

    def kernel(self, ncols):
        """All v with r·v = 0 for each row r, over keys ``0 .. ncols-1``: per
        free column f, 1 at f and, at each pivot, minus its row's entry at f."""
        rows = self.rows
        vectors = []
        for f in (c for c in range(ncols) if c not in rows):
            v = [ONE if c == f else ZERO for c in range(ncols)]
            for p, row in rows.items():
                v[p] = -row.get(f, ZERO)
            vectors.append(v)
        return Subspace.from_vectors(ncols, vectors)


def _rref_rows(rows, ncols):
    """The fully reduced echelon of sparse ``{column: scalar}`` rows."""
    ech = _Echelon()
    for r in rows:
        if len(ech.rows) == ncols:  # at full rank every further row reduces to zero
            break
        ech.add(r)
    return ech


class Subspace:
    """A subspace of column vectors, stored as the fully reduced echelon that
    produced it and no longer grows: its rows are the unique rref basis, which
    equality compares, and ``basis`` and ``pivots`` are dense views of them."""

    __slots__ = ("ambient_dim", "echelon", "_basis")

    def __init__(self, ambient_dim, echelon):
        self.ambient_dim = ambient_dim
        self.echelon = echelon
        self._basis = None

    @classmethod
    def from_vectors(cls, ambient_dim, vectors) -> "Subspace":
        vectors = [dict(enumerate(_coerce_vector(v))) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, _rref_rows(vectors, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim) -> "Subspace":
        return cls(ambient_dim, _Echelon())

    @classmethod
    def full(cls, ambient_dim) -> "Subspace":
        return cls.from_vectors(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def basis(self):
        """The rref basis as dense tuples, in pivot order, built on first use."""
        if self._basis is None:
            self._basis = self.echelon.dense(self.ambient_dim)
        return self._basis

    @property
    def pivots(self):
        """The pivot column of each basis row, ascending."""
        return tuple(sorted(self.echelon.rows))

    @property
    def dim(self) -> int:
        return len(self.echelon.rows)

    def contains(self, vec) -> bool:
        vec = _coerce_vector(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not self.echelon.reduce(dict(enumerate(vec)))

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.join(other).dim == self.dim

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both operands (span of the union)."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        vectors = self.echelon.vectors() + other.echelon.vectors()
        return Subspace(self.ambient_dim, _rref_rows(vectors, self.ambient_dim))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.echelon.rows == other.echelon.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"
