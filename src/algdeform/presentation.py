"""Build a finite-dimensional algebra from a finite presentation.

The construction is degree-truncated linear algebra over graded word spaces:
for increasing degree D, the span of all products (word) * relation * (word)
of total degree at most D is eliminated against the free-word basis, largest
word first under deglex order.  The build is accepted at the first D where

  (a) D is at least the longest relation's degree, and raising the degree
      produced no new pivot words of length <= D-1 (the quotient seen by
      shorter words stabilized),
  (b) the stabilized dimension equals the presentation's expected dimension,
  (c) every product of a surviving basis word by a generator reduces into the
      span of the surviving basis words (multiplication closes).

The surviving basis words are the deglex-smallest independent words, the
structure constants are read off letter by letter, and the finished table is
validated (associativity and unit law) before it is returned.
"""

from __future__ import annotations

from .algebra import Element, StructureAlgebra, _combine, _field, _json_array, _json_int
from .linalg import ONE, ZERO, _Echelon
from .ncpoly import (MAX_DEGREE, MAX_WORDS, NcPoly, _generator_names, parse_ncpoly, word_key,
                     word_to_str)


class PresentationError(Exception):
    """Base class for presentation build failures."""


class NoStabilizationError(PresentationError):
    """The degree cap was reached while short pivot words were still appearing."""


class DimensionMismatchError(PresentationError):
    """The build stabilized at a dimension different from the expected one."""

    def __init__(self, found_dim, expected_dim):
        super().__init__(
            f"presentation stabilized at dimension {found_dim}, expected {expected_dim}"
        )
        self.found_dim = found_dim
        self.expected_dim = expected_dim


class NotClosedError(PresentationError):
    """Multiplication does not close on the stabilized basis; the cap is too low."""


def _word_count(g, degree):
    return sum(g ** d for d in range(degree + 1))


class Presentation:
    """Generators, relations constant in t, and the expected dimension.

    ``max_degree`` caps the truncation degree; the default doubles the longest
    relation degree plus two, which is ample for presentations whose quotient
    basis words are no longer than the relations themselves.  A given value
    may not exceed ``ncpoly.MAX_DEGREE``, nor walk more than
    ``ncpoly.MAX_WORDS`` words; the default is cut down to fit both.  Both
    numbers must be ``int`` (not bool, str or float), as in the file format.
    """

    __slots__ = ("generators", "relations", "expected_dim", "max_degree")

    def __init__(self, generators, relations, expected_dim, max_degree=None):
        if max_degree is not None:
            _json_int(max_degree, "max_degree")
        self.expected_dim = _json_int(expected_dim, "expected_dim")
        self.generators = _generator_names(generators)
        rels = []
        for r in relations:
            if not isinstance(r, NcPoly):
                raise TypeError("relations must be NcPoly values")
            if r.gens != self.generators:
                raise ValueError("relation alphabet does not match the generators")
            if r.is_zero():
                raise ValueError("relations must be nonzero")
            if not r.is_constant_in_t():
                raise ValueError("presentation relations must be constant in t")
            rels.append(r)
        self.relations = tuple(rels)
        if self.expected_dim < 1:
            raise ValueError("expected_dim must be at least 1")
        g = len(self.generators)
        if max_degree is None:
            longest = max((r.degree for r in rels), default=1)
            max_degree = min(2 * longest + 2, MAX_DEGREE)
            while max_degree > 1 and _word_count(g, max_degree) > MAX_WORDS:
                max_degree -= 1
        self.max_degree = max_degree
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.max_degree > MAX_DEGREE:
            raise ValueError(f"max_degree {self.max_degree} is above the cap of {MAX_DEGREE}")
        words = _word_count(g, self.max_degree)
        if words > MAX_WORDS:
            raise ValueError(
                f"max_degree {self.max_degree} walks {words} words over {g} generators, "
                f"above the cap of {MAX_WORDS}"
            )

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [str(r) for r in self.relations],
            "expected_dim": self.expected_dim,
            "max_degree": self.max_degree,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Presentation":
        return cls(*_read_presentation(data))


def _read_presentation(data):
    """Generators, parsed relations, expected dim and max degree of a
    presentation document; generators and relations are arrays of strings.
    The constructors check that the dimension and degree are integers."""
    if not isinstance(data, dict):
        raise ValueError("a presentation file must hold a JSON object")
    gens = tuple(_json_array(_field(data, "generators"), "generators", strings=True))
    sources = _json_array(_field(data, "relations"), "relations", strings=True)
    rels = [parse_ncpoly(src, gens) for src in sources]
    return gens, rels, _field(data, "expected_dim"), data.get("max_degree")


class BuildResult:
    """A finished build: the algebra, its basis words, and the word reducer."""

    __slots__ = ("algebra", "word_basis", "degree", "generators", "_letter_elements")

    def __init__(self, algebra, word_basis, degree, generators, letter_elements):
        self.algebra = algebra
        self.word_basis = word_basis
        self.degree = degree
        self.generators = generators
        self._letter_elements = letter_elements

    def reduce(self, word) -> Element:
        """Coordinates of the class of a word of length <= the accepted degree.

        Computed through the validated product table, so it is exactly
        multiplicative: reduce(u + v) = reduce(u) * reduce(v) whenever both
        sides are defined.
        """
        word = tuple(word)
        if len(word) > self.degree:
            raise ValueError(
                f"word of length {len(word)} exceeds the accepted truncation degree {self.degree}"
            )
        el = self.algebra.unit_element()
        for letter in word:
            el = el * self._letter_elements[letter]
        return el

    def generator_element(self, name) -> Element:
        return self._letter_elements[self.generators.index(name)]

    def evaluate_poly(self, poly: NcPoly) -> Element:
        """Image of a relation-style polynomial (constant in t) in the algebra."""
        if poly.gens != self.generators:
            raise ValueError("polynomial alphabet does not match the generators")
        total = self.algebra.zero_element()
        for w, c in poly.terms.items():
            total = total + self.reduce(w) * c.constant_value()
        return total


def build(p: Presentation) -> BuildResult:
    """Construct the algebra presented by ``p``.

    Raises :class:`NoStabilizationError`, :class:`DimensionMismatchError`
    (carrying the dimension that was found), or :class:`NotClosedError` when
    the degree cap is reached without satisfying the acceptance criteria.
    """
    gens = p.generators
    g = len(gens)
    rel_terms = [
        (r.degree, tuple((w, c.constant_value()) for w, c in sorted(r.terms.items())))
        for r in p.relations
    ]

    words_cache = {0: [()]}

    def words_of(length):
        while length not in words_cache:
            top = max(words_cache)
            words_cache[top + 1] = [
                w + (l,) for w in words_cache[top] for l in range(g)
            ]
        return words_cache[length]

    # word-keyed rows, each led by its deglex-largest word
    span = _Echelon(lead=lambda vec: max(vec, key=word_key))
    pivots = span.rows

    def closure_rows(basis):
        basis_set = set(basis)
        rows = {}
        for w in basis:
            for letter in range(g):
                red = span.reduce({w + (letter,): ONE})
                if any(w2 not in basis_set for w2 in red):
                    return None
                rows[(w, letter)] = red
        return rows

    longest = max((deg_r for deg_r, _ in rel_terms), default=0)
    for deg_r, terms in rel_terms:
        if deg_r == 0:
            span.add(dict(terms))
    prev_rank = len(pivots)
    prev_dim_found = None
    words_upto = 1
    state = ("no_stab", None)

    for degree in range(1, p.max_degree + 1):
        for deg_r, terms in rel_terms:
            spare = degree - deg_r
            if spare < 0:
                continue
            for left_len in range(spare + 1):
                for u in words_of(left_len):
                    for v in words_of(spare - left_len):
                        span.add({u + w + v: c for w, c in terms})
        short_pivots = sum(1 for w in pivots if len(w) < degree)
        dim_found = words_upto - short_pivots
        if short_pivots != prev_rank or degree < longest:
            # fresh pivots among the shorter words, or a relation not yet in:
            # not stabilized yet
            state = ("no_stab", dim_found)
        elif dim_found == p.expected_dim:
            basis = [
                w for d in range(degree) for w in words_of(d) if w not in pivots
            ]
            rows = closure_rows(basis)
            if rows is not None:
                return _construct(p, basis, rows, degree)
            state = ("not_closed", dim_found)
        elif dim_found == prev_dim_found:
            # stabilized twice at the wrong dimension; if multiplication also
            # closes there is no point running to the cap
            basis = [
                w for d in range(degree) for w in words_of(d) if w not in pivots
            ]
            if closure_rows(basis) is not None:
                raise DimensionMismatchError(dim_found, p.expected_dim)
            state = ("dim", dim_found)
        else:
            # no new short pivots, but the measured dimension is still moving
            state = ("no_stab", dim_found)
        prev_rank = len(pivots)
        prev_dim_found = dim_found
        words_upto += g ** degree

    kind, dim_found = state
    if kind == "not_closed":
        raise NotClosedError(
            f"multiplication does not close on the stabilized basis at degree cap "
            f"{p.max_degree}; raise max_degree"
        )
    if kind == "dim":
        raise DimensionMismatchError(dim_found, p.expected_dim)
    raise NoStabilizationError(
        f"no stabilization within degree cap {p.max_degree}; raise max_degree "
        f"or check that the presented algebra is finite-dimensional"
    )


def _construct(p: Presentation, basis, closure_rows, degree) -> BuildResult:
    gens = p.generators
    g = len(gens)
    m = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    if () not in index:
        raise NotClosedError("the empty word collapsed into the ideal")

    # right multiplication by each letter, as sparse rows over basis indices
    right = [
        [tuple((index[w2], c) for w2, c in closure_rows[(w, letter)].items()) for w in basis]
        for letter in range(g)
    ]
    table = []
    for i in range(m):
        row = []
        for wj in basis:
            vec = {i: ONE}
            for letter in wj:
                vec = _combine((c, right[letter][b]) for b, c in vec.items())
            row.append(tuple(sorted(vec.items())))
        table.append(tuple(row))
    unit = tuple(ONE if b == index[()] else ZERO for b in range(m))
    labels = [word_to_str(w, gens) for w in basis]
    algebra = StructureAlgebra._from_sparse(labels, tuple(table), unit)
    report = algebra.validate()
    if not report.ok:
        raise NotClosedError(
            "truncated reductions produced an inconsistent product table; raise max_degree"
        )
    letters = [
        algebra.element([closure_rows[((), letter)].get(w, ZERO) for w in basis])
        for letter in range(g)
    ]
    return BuildResult(algebra, tuple(basis), degree, gens, letters)
